"""Per-round bookkeeping: ``classify`` against a naive reference, and the
deterministic work counters of the augmentation loop and of whole solves
pinned to fixed values."""

import dataclasses
import random

from bruteforce import (
    component_nodes,
    greedy_allowed_matching,
    greedy_forbidden,
    random_matching,
    reference_classify,
    stars_and_cycles,
)
from families import erdos_renyi, preferential, random_forbidden
from minput import (
    Problem,
    Solution,
    classify,
    find_allowed_matching,
    scc_decompose,
    solve,
)
from minput.augment import minimize
from minput.flowgraph import FlowGraph
from minput.matching import MatchClass, free_source_members


class TestClassifyReference:
    def test_fields_in_order(self):
        names = [f.name for f in dataclasses.fields(MatchClass)]
        assert names == ["unmatched", "comp_unmatched"]

    def test_matches_reference(self):
        rng = random.Random(44)
        seen = {"single_one_free": 0, "multi_one_free": 0, "fully_matched": 0, "slack": 0}
        for _ in range(400):
            n = rng.randint(1, 12)
            g = erdos_renyi(n, rng.choice([0.1, 0.2, 0.35, 0.5]), rng)
            scc = scc_decompose(g)
            m = find_allowed_matching(g, random_forbidden(n, 0.2, rng))
            if m is None or rng.random() < 0.7:
                m = random_matching(g, rng, rng.choice([0.3, 0.6, 1.0]))
            cls = classify(scc, m)
            got = tuple(getattr(cls, f.name) for f in dataclasses.fields(MatchClass))
            assert got == reference_classify(scc, m)
            sizes = [len(scc.comps[c]) for c in scc.source_ids if cls.comp_unmatched[c] == 1]
            seen["single_one_free"] += sizes.count(1) > 0
            seen["multi_one_free"] += len(sizes) > sizes.count(1)
            seen["fully_matched"] += any(cls.comp_unmatched[c] == 0 for c in scc.source_ids)
            seen["slack"] += any(cls.comp_unmatched[c] >= 2 for c in scc.source_ids)
        assert min(seen.values()) >= 20, seen


def _er():
    rng = random.Random(101)
    return erdos_renyi(400, 3.0 / 400, rng), frozenset()


def _pa_greedy():
    rng = random.Random(102)
    g = preferential(600, 3, rng)
    return g, greedy_forbidden(g, 0.3, rng)


def _mixed():
    rng = random.Random(103)
    g = stars_and_cycles(rng)
    return g, greedy_forbidden(g, 0.2, rng)


def _rounds(diagnostics):
    return [(it.dist, it.paths, it.cost, it.work) for it in diagnostics.per_iteration]


class TestRoundCounters:
    """Every round's ``(dist, paths, cost, work)`` and the first round's
    ``build_work`` of ``minimize`` driven from the greedy start
    (``greedy_allowed_matching``) once ``minimize`` has freed a member of
    each source component it leaves fully matched, so the pins guard
    the loop whatever start ``solve`` uses.  The ``(dist, paths, cost)``
    triples guard results: no change to how the loop searches may move
    them.  Work counts are deterministic and the scaling gate reads
    them, so ``work`` moves only with a change to what a round scans,
    recorded with its reason and its old and new pins."""

    def _check(self, g, forbidden, rounds, build_work, freed):
        scc = scc_decompose(g)
        m0 = greedy_allowed_matching(g, forbidden)
        _, _, diagnostics = minimize(g, scc, forbidden, m0)
        assert _rounds(diagnostics) == rounds
        cls = classify(scc, m0)
        unmatched = len(cls.unmatched)
        assert free_source_members(scc, m0, cls, forbidden) == -1
        assert len(cls.unmatched) - unmatched == freed
        fg = FlowGraph(g, scc, m0, forbidden, cls)
        assert fg.build_work == build_work
        return fg

    def test_erdos_renyi(self):
        g, f = _er()
        self._check(g, f, [
            (5, 34, 56, 3415), (7, 8, 48, 2082), (9, 6, 42, 2119), (11, 5, 37, 2322),
            (13, 1, 36, 1627), (15, 1, 35, 1942), (19, 1, 34, 2499), (None, 0, 34, 844),
        ], 512, 0)

    def test_preferential_greedy_forbidden(self):
        g, f = _pa_greedy()
        assert len(f) == 71
        self._check(g, f, [
            (5, 9, 353, 4311), (7, 1, 352, 3915), (9, 1, 351, 4012), (None, 0, 351, 1757),
        ], 1297, 0)

    def test_mixed_with_gateways_and_slack(self):
        g, f = _mixed()
        assert (g.n, g.m, len(f)) == (255, 577, 38)
        fg = self._check(g, f, [
            (5, 10, 53, 1573), (7, 3, 50, 1427), (11, 1, 49, 1392), (None, 0, 49, 819),
        ], 332, 2)
        assert len(component_nodes(fg)) == 7


class TestSolveRounds:
    """``solve``'s rounds on the same instances, and the unmatched count
    of its start, Karp-Sipser then the forbidden repair, in N (90, 362
    and 63 from the greedy start): the start decides how many rounds
    remain, so a change to it shows here."""

    def _check(self, g, forbidden, unmatched, rounds):
        assert g.n - find_allowed_matching(g, forbidden).size == unmatched
        res = solve(Problem(g, forbidden))
        assert isinstance(res, Solution)
        assert _rounds(res.diagnostics) == rounds

    def test_erdos_renyi(self):
        g, f = _er()
        self._check(g, f, 34, [(None, 0, 34, 932)])

    def test_preferential_greedy_forbidden(self):
        g, f = _pa_greedy()
        self._check(g, f, 351, [(None, 0, 351, 1757)])

    def test_mixed_with_gateways_and_slack(self):
        g, f = _mixed()
        self._check(g, f, 49, [(None, 0, 49, 806)])

    def test_greedy_forbidden_at_n_16384(self):
        # the cold forbidden cover of the earlier start left 2353
        # unmatched here and the loop ran 28 rounds
        n = 2**14
        rng = random.Random(800 + n)
        g = erdos_renyi(n, 3.0 / n, rng)
        f = greedy_forbidden(g, 0.3, rng)
        assert n - find_allowed_matching(g, f).size == 1168
        res = solve(Problem(g, f))
        assert isinstance(res, Solution)
        assert res.cost == 1168
        assert [it.paths for it in res.diagnostics.per_iteration] == [0]

    def test_few_rounds_at_n_4096(self):
        # a near-maximum start leaves little for the loop: the greedy
        # start needed 17 to 25 rounds on these instances
        for seed in range(900, 905):
            g = erdos_renyi(4096, 3.0 / 4096, random.Random(seed))
            res = solve(Problem(g))
            assert isinstance(res, Solution)
            assert res.diagnostics.iterations <= 8, seed
