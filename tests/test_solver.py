import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import minput
from bruteforce import assignment_min_inputs, greedy_forbidden, reference_scc
from families import chain, diagonal, erdos_renyi, preferential, random_forbidden
from minput import (
    IndexOutOfRange,
    Problem,
    Solution,
    SparseDigraph,
    Unsolvable,
    UnsolvableReason,
    brute_force_min_cost_allowed_matching,
    brute_force_min_input_set,
    check_structural_controllability,
    numeric_rank_spot_check,
    recover_input_set,
    solve,
)
from minput.graph import reachable_from, source_components
from minput.matching import Matching
from minput.solver import find_allowed_matching


class TestRecoverInputSet:
    def test_no_representative_needed(self, g4, m2):
        assert recover_input_set(source_components(g4), m2, []) == [0]

    def test_input_set_is_what_the_certificate_leaves_unmatched(self, g4):
        # every source component keeps an unmatched member, so the
        # certificate alone gives the input set; on diagonal(n) the
        # start matches every self loop, and each vertex is freed
        rng = random.Random(71)
        cases = [(diagonal(5), frozenset()), (g4, frozenset([0])), (g4, frozenset())]
        for _ in range(300):
            n = rng.randint(1, 40)
            if rng.random() < 0.5:
                g = erdos_renyi(n, rng.choice([1.0, 2.0, 3.0]) / n, rng)
            else:
                g = preferential(n, rng.randint(1, 3), rng)
            cases.append((g, greedy_forbidden(g, rng.choice([0.0, 0.3]), rng)))
        solved = 0
        for g, f in cases:
            res = solve(Problem(g, f))
            if not isinstance(res, Solution):
                continue
            solved += 1
            covered = {v for _, v in res.certificate}
            assert set(res.input_set) == {v for v in range(g.n) if v not in covered}
        assert solved >= 250, solved


class TestSolveExamples:
    def test_four_vertex(self, g4):
        sol = solve(Problem(g4))
        assert isinstance(sol, Solution)
        assert sol.input_set == [0]
        assert sol.cost == 1
        assert sol.b_pattern == [(0, 0)]
        assert sorted(sol.certificate) == [(0, 1), (1, 2), (2, 3)]

    def test_five_vertex(self, g5):
        sol = solve(Problem(g5), check=True)
        assert isinstance(sol, Solution)
        assert sol.cost == 1
        assert check_structural_controllability(g5, sol.input_set)

    def test_chain(self):
        sol = solve(Problem(chain(3)))
        assert sol.input_set == [0]
        assert sol.cost == 1

    def test_diagonal(self):
        sol = solve(Problem(diagonal(4)))
        assert sol.input_set == [0, 1, 2, 3]
        assert sol.cost == 4
        assert sol.certificate == []

    def test_forbidden_changes_witness(self):
        g = SparseDigraph(2, [(0, 1), (1, 0)])
        free = solve(Problem(g))
        assert free.input_set == [0]
        pinned = solve(Problem(g, frozenset([0])))
        assert pinned.input_set == [1]


class TestSolveIsolated:
    def test_isolated_vertex_joins_input_set(self):
        g = SparseDigraph(4, [(1, 2), (2, 3)])
        sol = solve(Problem(g))
        assert sol.input_set == [0, 1]
        assert sol.cost == 2
        assert sorted(sol.certificate) == [(1, 2), (2, 3)]
        assert sol.b_pattern == [(0, 0), (1, 1)]
        assert [it.cost for it in sol.diagnostics.per_iteration] == [2]

    def test_all_isolated(self):
        sol = solve(Problem(SparseDigraph(2, [])))
        assert sol.input_set == [0, 1]
        assert sol.cost == 2
        assert sol.certificate == []
        # one terminal round, as on every other solved instance
        assert sol.diagnostics.iterations == 1
        assert [it.cost for it in sol.diagnostics.per_iteration] == [2]

    def test_empty_instance(self):
        sol = solve(Problem(SparseDigraph(0, [])))
        assert sol.input_set == [] and sol.cost == 0

    def test_self_loop_is_not_isolated(self):
        sol = solve(Problem(SparseDigraph(1, [(0, 0)])))
        # the loop forms a source component, which the start matches
        # fully and then frees
        assert sol.input_set == [0]
        assert sol.certificate == []


class TestUnsolvable:
    def test_isolated_forbidden(self):
        # an isolated vertex is a source component of its own
        out = solve(Problem(SparseDigraph(3, [(0, 1)]), frozenset([2])))
        assert isinstance(out, Unsolvable)
        assert out.reason is UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN
        assert "[2]" in out.detail
        assert out.witness == [2]

    def test_source_gate_names_every_component(self):
        # isolated 0, the head 1 of the chain 1 -> 2 and the cycle 3 <-> 4
        g = SparseDigraph(6, [(1, 2), (3, 4), (4, 3), (4, 5)])
        out = solve(Problem(g, frozenset([0, 1, 3, 4])))
        assert out.reason is UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN
        assert out.witness == [0, 1, 3, 4]
        assert "[3, 4]" in out.detail

    def test_source_scc_all_forbidden(self):
        out = solve(Problem(chain(2), frozenset([0])))
        assert isinstance(out, Unsolvable)
        assert out.reason is UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN

    def test_source_gate_reports_original_ids(self):
        # vertex 0 isolated; the chain 1 -> 2 has its forbidden head 1
        g = SparseDigraph(3, [(1, 2)])
        out = solve(Problem(g, frozenset([1])))
        assert out.reason is UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN
        assert "[1]" in out.detail
        assert out.witness == [1]

    def test_no_allowed_matching(self):
        out = solve(Problem(SparseDigraph(3, [(0, 1), (0, 2)]), frozenset([1, 2])))
        assert isinstance(out, Unsolvable)
        assert out.reason is UnsolvableReason.NO_ALLOWED_MATCHING
        # the one source 0 cannot cover both forbidden destinations
        assert out.witness == [1, 2]

    def test_no_allowed_matching_witness_is_a_hall_violator(self):
        # forbidding only vertices outside source components leaves the
        # matching gate as the one that can fail
        rng = random.Random(40)
        seen = 0
        for _ in range(400):
            n = rng.randint(2, 40)
            g = erdos_renyi(n, rng.choice([0.03, 0.08, 0.15]), rng)
            scc = source_components(g)
            inner = [v for v in range(n) if scc.comp_id[v] >= len(scc.source_ids)]
            f = frozenset(v for v in inner if rng.random() < 0.7)
            out = solve(Problem(g, f))
            if isinstance(out, Unsolvable):
                assert out.reason is UnsolvableReason.NO_ALLOWED_MATCHING
                seen += 1
                s = set(out.witness)
                assert out.witness == sorted(s) and s and s <= f
                assert len({u for v in s for u in g.in_adj[v]}) == len(s) - 1
        assert seen >= 30

    def test_witnesses_prove_each_verdict(self):
        """``solve`` is unsolvable exactly when the assignment reference
        is, and each witness is what its reason says, checked against
        independent computations."""
        rng = random.Random(41)
        seen = dict.fromkeys(["solved", *UnsolvableReason], 0)
        for _ in range(600):
            n = rng.randint(1, 40)
            if rng.random() < 0.5:
                g = erdos_renyi(n, rng.choice([0.5, 1.0, 2.0, 3.0]) / n, rng)
            else:
                g = preferential(n, rng.randint(1, 3), rng)
            kind = rng.randrange(3)
            if kind == 0:
                f = greedy_forbidden(g, rng.choice([0.1, 0.3, 0.6]), rng)
            elif kind == 1:
                f = random_forbidden(n, rng.choice([0.1, 0.3, 0.6]), rng)
            else:
                # random among the vertices outside source components,
                # where only the matching gate can fail
                scc = reference_scc(g)
                inner = random_forbidden(n, 0.8, rng)
                f = frozenset(v for v in inner if scc.comp_id[v] >= len(scc.source_ids))
            out = solve(Problem(g, f))
            assert isinstance(out, Unsolvable) == (assignment_min_inputs(g, f) is None)
            if not isinstance(out, Unsolvable):
                seen["solved"] += 1
                continue
            seen[out.reason] += 1
            if out.reason is UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN:
                scc = reference_scc(g)
                blocked = [scc.comps[c] for c in scc.source_ids if f.issuperset(scc.comps[c])]
                assert out.witness == sorted(v for members in blocked for v in members)
            else:
                s = set(out.witness)
                assert out.witness == sorted(s) and s <= f
                assert len({u for v in s for u in g.in_adj[v]}) == len(s) - 1
        assert min(seen.values()) >= 30, seen

    def test_reason_values_are_stable(self):
        assert UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN.value == "SourceSccAllForbidden"
        assert UnsolvableReason.NO_ALLOWED_MATCHING.value == "NoAllowedMatching"


def _solve_answer(g, ids):
    sol = solve(Problem(g, frozenset(ids)))
    return sol.input_set, sol.certificate


# Every entry point that takes vertex ids from its caller, called as
# ``call(g, ids)``.
ID_ENTRY_POINTS = {
    "solve": _solve_answer,
    "find_allowed_matching": find_allowed_matching,
    "reachable_from": reachable_from,
    "has_edge": lambda g, ids: (g.has_edge(ids[0], 1), g.has_edge(1, ids[0])),
    "check_structural_controllability": check_structural_controllability,
    "numeric_rank_spot_check": numeric_rank_spot_check,
    "brute_force_min_input_set": brute_force_min_input_set,
    "brute_force_min_cost_allowed_matching": brute_force_min_cost_allowed_matching,
}


class TestSolveValidation:
    def test_forbidden_out_of_range(self, g4):
        """Every entry point applies ``graph.vertex_id``'s rule to the ids
        it is handed; the answer is compared by ``repr``, so a
        ``numpy.int64`` that leaks into it fails."""
        for name, call in ID_ENTRY_POINTS.items():
            for bad in (g4.n, -1, True, 0.0, "0"):
                try:
                    call(g4, [bad])
                except IndexOutOfRange:
                    continue
                pytest.fail(f"{name} accepted the vertex id {bad!r}")
            assert repr(call(g4, [np.int64(1)])) == repr(call(g4, [1])), name

    def test_deterministic(self, g5):
        a = solve(Problem(g5, frozenset([3])))
        b = solve(Problem(g5, frozenset([3])))
        assert a.input_set == b.input_set
        assert a.certificate == b.certificate


# A round that applies none of its paths breaks the law that each path
# lowers the cost by one; run under ``python -O`` by the test below.
BROKEN_ROUND = """
import random
import minput.augment
from families import erdos_renyi
from minput import Problem, solve

minput.augment.augment_on_paths = lambda m, paths: m
try:
    solve(Problem(erdos_renyi(60, 1.5 / 60, random.Random(3))), check=True)
except AssertionError as exc:
    print(exc)
"""


class TestSelfCheck:
    def test_check_raises_under_python_dash_o(self):
        """``check=True`` must not rest on ``assert`` statements, which
        ``python -O`` strips: the broken round still raises AssertionError."""
        src = str(pathlib.Path(minput.__file__).resolve().parents[1])
        tests = str(pathlib.Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", BROKEN_ROUND],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "each path must lower the cost by one"


class TestSolveRandom:
    def test_matches_subset_sweep(self):
        rng = random.Random(60)
        solved = unsolved = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            f = random_forbidden(n, 0.3, rng)
            got = solve(Problem(g, frozenset(f)), check=True)
            want = brute_force_min_input_set(g, f)
            if isinstance(got, Unsolvable):
                assert want is None
                unsolved += 1
                continue
            assert want is not None
            assert got.cost == want[0]
            solved += 1
        assert solved > 200 and unsolved > 30

    def test_solution_invariants(self):
        rng = random.Random(61)
        for _ in range(250):
            n = rng.randint(1, 6)
            g = erdos_renyi(n, 0.3, rng)
            f = random_forbidden(n, 0.3, rng)
            sol = solve(Problem(g, frozenset(f)))
            if isinstance(sol, Unsolvable):
                continue
            assert sol.input_set == sorted(set(sol.input_set))
            assert sol.cost == len(sol.input_set)
            assert not set(sol.input_set) & set(f)
            assert sol.b_pattern == [(v, v) for v in sol.input_set]
            rounds = sol.diagnostics.per_iteration
            assert not rounds or rounds[-1].cost == sol.cost
            edge_set = set(g.edges())
            assert all(e in edge_set for e in sol.certificate)
            assert check_structural_controllability(g, sol.input_set)
            m = Matching.from_edges(n, sol.certificate)
            m.validate(g)
            assert m.is_allowed(f)

    def test_every_member_essential(self):
        rng = random.Random(62)
        tried = 0
        for _ in range(200):
            n = rng.randint(2, 6)
            g = erdos_renyi(n, 0.3, rng)
            sol = solve(Problem(g))
            if isinstance(sol, Unsolvable) or len(sol.input_set) < 2:
                continue
            for v in sol.input_set:
                rest = [u for u in sol.input_set if u != v]
                assert not check_structural_controllability(g, rest)
            tried += 1
        assert tried > 40


class TestSolveAtScale:
    def test_assignment_reference_matches_subset_sweep(self):
        rng = random.Random(63)
        for _ in range(300):
            n = rng.randint(0, 6)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            f = random_forbidden(n, 0.3, rng)
            want = brute_force_min_input_set(g, f)
            assert assignment_min_inputs(g, f) == (None if want is None else want[0])

    def test_matches_assignment_reference(self):
        rng = random.Random(64)
        solved = unsolved = with_isolated = 0
        for k in range(30):
            n = rng.randint(200, 1000)
            g = erdos_renyi(n, rng.uniform(1.0, 3.0) / n, rng)
            if k % 3 == 0:
                f = frozenset()
            elif k % 3 == 1:
                f = random_forbidden(n, 0.05, rng)
            else:
                # destinations of a greedy matching: coverable, so often solvable
                taken = set()
                for u in range(n):
                    v = next((v for v in g.out_adj[u] if v not in taken), None)
                    if v is not None:
                        taken.add(v)
                f = frozenset(v for v in sorted(taken) if rng.random() < 0.3)
            with_isolated += any(not g.out_adj[v] and not g.in_adj[v] for v in range(n))
            got = solve(Problem(g, f))
            want = assignment_min_inputs(g, f)
            if isinstance(got, Unsolvable):
                assert want is None, (k, got.reason)
                unsolved += 1
                continue
            assert got.cost == want, k
            assert not set(got.input_set) & f
            assert check_structural_controllability(g, got.input_set)
            solved += 1
        assert solved >= 15 and unsolved >= 3 and with_isolated >= 15
