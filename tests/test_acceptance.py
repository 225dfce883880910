"""Acceptance suite: one test per shipping criterion.

Each test prints exactly one ``ACCEPTANCE criterion-k: PASS/FAIL``
line outside pytest's capture, so the verdict survives into piped
logs, then asserts.  Run with ``-s`` (or read the printed lines) to
see the per-criterion summary.
"""

import gc
import math
import random
import time

import pytest

from bruteforce import flow_graph
from families import chain, diagonal, erdos_renyi, preferential, random_forbidden
from minput import (
    Problem,
    Solution,
    SparseDigraph,
    Unsolvable,
    UnsolvableReason,
    augment_on_paths,
    extract_paths,
    find_allowed_matching,
    layered_bfs,
    numeric_rank_spot_check,
    recover_input_set,
    scc_decompose,
    solve,
)
from minput.augment import minimize
from minput.matching import Matching, classify
from minput.oracle import (
    brute_force_min_cost_allowed_matching,
    brute_force_min_input_set,
)


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {verdict} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """2000 random instances solved with per-round validation on."""
    rng = random.Random(90)
    t0 = time.perf_counter()
    records = []
    for _ in range(2000):
        n = rng.randint(1, 6)
        g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
        f = random_forbidden(n, 0.3, rng)
        records.append((g, f, solve(Problem(g, frozenset(f)), check=True)))
    return {"records": records, "build_seconds": time.perf_counter() - t0}


def test_criterion_1_exact_against_subset_sweep(corpus, capsys):
    t0 = time.perf_counter()
    solved = unsolved = mismatches = 0
    for g, f, result in corpus["records"]:
        want = brute_force_min_input_set(g, f)
        if isinstance(result, Unsolvable):
            unsolved += 1
            if want is not None:
                mismatches += 1
        else:
            solved += 1
            if want is None or want[0] != result.cost:
                mismatches += 1
    elapsed = corpus["build_seconds"] + time.perf_counter() - t0
    ok = mismatches == 0 and solved + unsolved >= 2000 and elapsed < 60.0
    _report(
        capsys,
        "criterion-1",
        ok,
        f"{solved} solved + {unsolved} unsolvable agree with the oracle "
        f"({mismatches} mismatches) in {elapsed:.1f}s",
    )


def test_criterion_2_cost_parity_with_matching_oracle(capsys):
    rng = random.Random(91)
    compared = skipped = mismatches = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
        f = random_forbidden(n, 0.3, rng)
        result = solve(Problem(g, frozenset(f)))
        want = brute_force_min_cost_allowed_matching(g, f)
        if isinstance(result, Unsolvable):
            if result.reason is UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN and want is not None:
                # the matching oracle ignores the reachability side
                skipped += 1
                continue
            compared += 1
            if want is not None:
                mismatches += 1
        else:
            compared += 1
            if want != result.cost:
                mismatches += 1
    ok = mismatches == 0 and compared + skipped >= 2000
    _report(
        capsys,
        "criterion-2",
        ok,
        f"{compared} instances at matching-cost parity "
        f"({mismatches} mismatches, {skipped} reachability-gated skips)",
    )


GOLDEN_ONE_FREE = """\
a.dst -> comp0
a.src -> a.dst
b.dst -> a.src
b.src -> a.dst
b.src -> b.dst
c.dst -> b.src
comp0 -> b.dst
d.dst -> c.src
s -> d.src"""

GOLDEN_FREED = """\
a.dst -> comp0
a.src -> a.dst
a.src -> b.dst
b.dst -> b.src
b.src -> a.dst
b.src -> c.dst
c.dst -> t
comp0 -> b.dst
d.dst -> c.src
s -> a.src
s -> d.src"""

GOLDEN_SLACK = """\
a.dst -> b.src
a.src -> a.dst
a.src -> b.dst
b.dst -> c.src
c.dst -> comp0
c.src -> d.dst
comp0 -> t
d.dst -> comp0
d.src -> c.dst
d.src -> e.dst
e.dst -> comp0
e.src -> d.dst
s -> a.src
s -> d.src
s -> e.src"""


def test_criterion_3_worked_examples(capsys):
    g4 = SparseDigraph(4, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 3)])
    g5 = SparseDigraph(5, [(0, 0), (0, 1), (1, 0), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])
    m1 = Matching.from_edges(4, [(0, 0), (1, 1), (2, 3)])
    m1_free = Matching.from_edges(4, [(1, 1), (2, 3)])  # m1 with a freed
    m2 = Matching.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m3 = Matching.from_edges(5, [(2, 1), (1, 0)])
    scc4, scc5 = scc_decompose(g4), scc_decompose(g5)
    checks: list[bool] = []

    # starting matching and its cost, then the optimal one; m1 leaves
    # the source component {a, b} fully matched, and minimize frees a
    checks.append(find_allowed_matching(g4, []) == m2)
    checks.append(classify(scc4, m1_free).cost == 2 and classify(scc4, m2).cost == 1)

    # three flow-graph constructions
    fg_free = flow_graph(g4, m2)
    fg_freed = flow_graph(g4, m1_free)
    fg_slack = flow_graph(g5, m3)
    checks.append(fg_free.dump(["a", "b", "c", "d"]) == GOLDEN_ONE_FREE)
    checks.append(fg_freed.dump(["a", "b", "c", "d"]) == GOLDEN_FREED)
    checks.append(fg_slack.dump(["a", "b", "c", "d", "e"]) == GOLDEN_SLACK)

    # distances and extracted paths
    checks.append(layered_bfs(fg_free) is None)
    dag_freed = layered_bfs(fg_freed)
    checks.append(dag_freed is not None and dag_freed.dist_t == 5)
    checks.append(extract_paths(dag_freed) == [[8, 0, 5, 1, 6, 9]])
    dag_slack = layered_bfs(fg_slack)
    checks.append(dag_slack is not None and dag_slack.dist_t == 4)
    checks.append(
        extract_paths(dag_slack) == [[10, 3, 7, 12, 11], [10, 4, 8, 12, 11]]
    )

    # applying the paths lowers the cost by exactly one each
    after = augment_on_paths(m1_free.copy(), [[8, 0, 5, 1, 6, 9]])
    checks.append(after == m2)
    checks.append(classify(scc4, after).cost == 1)
    after5 = augment_on_paths(m3.copy(), [[10, 3, 7, 12, 11], [10, 4, 8, 12, 11]])
    checks.append(classify(scc5, after5).cost == 1)

    # a cycle is a cost-neutral rearrangement
    cyc = augment_on_paths(m2.copy(), [[4, 10, 5, 0, 4]])
    checks.append(cyc.edges() == [(0, 0), (1, 2), (2, 3)] and classify(scc4, cyc).cost == 1)

    # full drives land on the same optima
    best4, _, diag4 = minimize(g4, scc4, [], m1, check=True)
    checks.append(classify(scc4, best4).cost == 1 and diag4.distances() == [5])
    best5, _, diag5 = minimize(g5, scc5, [], m3, check=True)
    checks.append(classify(scc5, best5).cost == 1 and diag5.distances() == [4])

    # reading out input sets
    checks.append(recover_input_set(scc4, m1_free, []) == [0, 2])
    sol = solve(Problem(g4))
    checks.append(isinstance(sol, Solution) and sol.input_set == [0])
    chain_dag = layered_bfs(flow_graph(chain(2), Matching(2)))
    checks.append(extract_paths(chain_dag) == [[4, 0, 3, 5]])

    bad = [i for i, ok in enumerate(checks) if not ok]
    _report(
        capsys,
        "criterion-3",
        not bad,
        f"{len(checks)} worked-example checks reproduced"
        + (f", failing indices {bad}" if bad else ""),
    )


def test_criterion_4_decoupled_states(capsys):
    sizes = [1, 10, 100, 1000]
    ok = True
    for n in sizes:
        sol = solve(Problem(diagonal(n)))
        ok = ok and isinstance(sol, Solution) and sol.cost == n
        ok = ok and sol.input_set == list(range(n))
    _report(
        capsys,
        "criterion-4",
        ok,
        f"self-loop-only systems at n={sizes} each need every state driven",
    )


def _large_mix():
    out = []
    rng = random.Random(92)
    for n in (1000, 2000):
        out.append(erdos_renyi(n, 3.0 / n, rng))
    out.append(preferential(1500, 3, rng))
    out.append(chain(1024))
    return out


def test_criterion_5_iteration_bound(corpus, capsys):
    violations = 0
    count = 0
    worst = 0.0
    for g, _, result in corpus["records"]:
        if isinstance(result, Unsolvable) or g.n == 0:
            continue
        count += 1
        used = result.diagnostics.iterations
        frac = used / (6 * math.sqrt(g.n))
        worst = max(worst, frac)
        if used > 6 * math.sqrt(g.n):
            violations += 1
    for g in _large_mix():
        sol = solve(Problem(g))
        count += 1
        frac = sol.diagnostics.iterations / (6 * math.sqrt(g.n))
        worst = max(worst, frac)
        if frac > 1.0:
            violations += 1
    ok = violations == 0 and count > 1000
    _report(
        capsys,
        "criterion-5",
        ok,
        f"{count} solves within the 6*sqrt(n) round bound "
        f"(worst used {worst:.2f} of the budget)",
    )


def test_criterion_6_distances_strictly_increase(corpus, capsys):
    checked = violations = 0
    for _, _, result in corpus["records"]:
        if isinstance(result, Unsolvable):
            continue
        dists = result.diagnostics.distances()
        checked += 1
        if any(b <= a for a, b in zip(dists, dists[1:])):
            violations += 1
        if dists and dists[0] < 3:
            violations += 1
    ok = violations == 0 and checked > 1000
    _report(
        capsys,
        "criterion-6",
        ok,
        f"s->t distance strictly increases across rounds on {checked} solves",
    )


def test_criterion_7_self_checks_clean(corpus, capsys):
    # the corpus fixture solves everything with check=True; reaching
    # this point means no per-round invariant assertion fired
    total = len(corpus["records"])
    _report(
        capsys,
        "criterion-7",
        total >= 2000,
        f"per-round validation stayed silent on all {total} instances",
    )


def test_criterion_8_scaling(capsys):
    # Wall time per size is averaged over four independent instances
    # (single draws vary in round count), each timed as the best of five
    # runs with the garbage collector paused, timeit-style.
    sizes = [2 ** k for k in range(12, 18)]
    walls: dict[int, float] = {}
    work_ok = True
    iter_ok = True
    for n in sizes:
        per_instance = []
        for seed in (800 + n, 17000 + n, 33000 + n, 49000 + n):
            g = erdos_renyi(n, 3.0 / n, random.Random(seed))
            best_wall = None
            best_sol = None
            for _ in range(5):
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                sol = solve(Problem(g))
                wall = time.perf_counter() - t0
                gc.enable()
                if best_wall is None or wall < best_wall:
                    best_wall, best_sol = wall, sol
            per_instance.append(best_wall)
            assert isinstance(best_sol, Solution)
            per_round = max(
                (it.work for it in best_sol.diagnostics.per_iteration), default=0
            )
            work_ok = work_ok and per_round <= 20 * (n + g.m)
            iter_ok = iter_ok and best_sol.diagnostics.iterations <= 6 * math.sqrt(n)
        walls[n] = sum(per_instance) / len(per_instance)
    ratios = [walls[b] / walls[a] for a, b in zip(sizes, sizes[1:])]
    ratio_ok = all(r <= 3.2 for r in ratios)
    shown = ", ".join(f"{r:.2f}" for r in ratios)
    ok = ratio_ok and work_ok and iter_ok
    _report(
        capsys,
        "criterion-8",
        ok,
        f"doubling factors [{shown}] all <= 3.2, per-round work <= 20(n+m)",
    )


def test_criterion_9_numeric_rank(capsys):
    rng = random.Random(93)
    solved: list[tuple] = []
    attempts = 0
    while len(solved) < 200 and attempts < 2000:
        attempts += 1
        n = rng.randint(1, 8)
        g = erdos_renyi(n, rng.choice([0.2, 0.35, 0.5]), rng)
        f = random_forbidden(n, 0.3, rng)
        result = solve(Problem(g, frozenset(f)))
        if isinstance(result, Solution):
            solved.append((g, result))
    failures = sum(
        1
        for g, result in solved
        if not numeric_rank_spot_check(g, result.input_set, trials=5)
    )
    ok = failures == 0 and len(solved) >= 200
    _report(
        capsys,
        "criterion-9",
        ok,
        f"{len(solved)} solved instances reach full numeric rank "
        f"({failures} failures)",
    )
