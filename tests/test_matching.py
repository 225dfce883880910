import random

import pytest

from bruteforce import assignment_min_inputs, greedy_forbidden, max_matching_size, random_matching
from families import chain, erdos_renyi, preferential, random_forbidden
from minput import (
    IndexOutOfRange,
    Problem,
    Solution,
    SparseDigraph,
    classify,
    find_allowed_matching,
    solve,
)
from minput.graph import source_components
from minput.matching import Matching, _allowed_start, free_source_members, hopcroft_karp


class TestMatching:
    def test_from_edges(self, m1):
        assert m1.size == 3
        assert m1.edges() == [(0, 0), (1, 1), (2, 3)]
        assert m1.unmatched() == [2]

    def test_add_conflicts(self):
        m = Matching.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            m.add(0, 2)
        with pytest.raises(ValueError):
            m.add(2, 1)
        m.add(2, 2)
        assert m.size == 2

    def test_remove(self):
        m = Matching.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            m.remove(0, 0)
        m.remove(0, 1)
        assert m.size == 0
        assert m.unmatched() == [0, 1, 2]

    def test_is_allowed(self, m2):
        assert m2.is_allowed([])
        assert m2.is_allowed([1, 2, 3])
        assert not m2.is_allowed([0])

    def test_copy_is_independent(self, m1):
        dup = m1.copy()
        dup.remove(2, 3)
        assert m1.mate_of_src[2] == 3
        assert dup.size == 2

    def test_validate(self, g4, m1):
        m1.validate(g4)
        bad = Matching.from_edges(4, [(3, 0)])
        with pytest.raises(ValueError):
            bad.validate(g4)  # (3, 0) is not an edge
        with pytest.raises(ValueError):
            m1.validate(SparseDigraph(5, []))

    def test_equality(self):
        a = Matching.from_edges(3, [(0, 1), (1, 2)])
        b = Matching.from_edges(3, [(1, 2), (0, 1)])
        assert a == b
        assert a != Matching.from_edges(3, [(0, 1)])


class TestHopcroftKarp:
    def test_complete_2x3(self):
        left, right = hopcroft_karp(2, 3, [[0, 1, 2], [0, 1, 2]])
        assert sum(1 for v in left if v >= 0) == 2
        assert left == [0, 1]

    def test_shared_destination(self):
        left, right = hopcroft_karp(2, 1, [[0], [0]])
        assert left == [0, -1]
        assert right == [0]

    def test_perfect_diagonal(self):
        n = 6
        left, right = hopcroft_karp(n, n, [[i] for i in range(n)])
        assert left == list(range(n))
        assert right == list(range(n))

    def test_augmenting_chain(self):
        # greedy would match 0-0 and block 1; the search must flip it
        left, right = hopcroft_karp(2, 2, [[0, 1], [0]])
        assert sum(1 for v in left if v >= 0) == 2
        assert left == [1, 0]

    def test_mate_arrays_consistent(self):
        rng = random.Random(30)
        for _ in range(150):
            nl = rng.randint(0, 7)
            nr = rng.randint(0, 7)
            adj = [
                sorted({rng.randrange(nr) for _ in range(rng.randint(0, nr))})
                for _ in range(nl)
            ]
            left, right = hopcroft_karp(nl, nr, adj)
            for u, v in enumerate(left):
                if v >= 0:
                    assert v in adj[u] and right[v] == u
            for v, u in enumerate(right):
                if u >= 0:
                    assert left[u] == v

    def test_size_matches_exhaustive(self):
        rng = random.Random(31)
        for _ in range(120):
            nl = rng.randint(0, 6)
            nr = rng.randint(0, 6)
            adj = [
                sorted({rng.randrange(nr) for _ in range(rng.randint(0, nr))})
                for _ in range(nl)
            ]
            left, _ = hopcroft_karp(nl, nr, adj)
            got = sum(1 for v in left if v >= 0)
            assert got == max_matching_size(nl, nr, adj)

    def test_warm_start(self):
        # from any matching along adj, a warm start reaches the cold size,
        # keeps every left vertex it started matched, and works in place
        rng = random.Random(34)
        for _ in range(300):
            nl = rng.randint(0, 8)
            nr = rng.randint(0, 8)
            adj = [
                sorted({rng.randrange(nr) for _ in range(rng.randint(0, nr))})
                for _ in range(nl)
            ]
            warm_left, warm_right = [-1] * nl, [-1] * nr
            for u in range(nl):
                for v in adj[u]:
                    if warm_right[v] < 0 and rng.random() < 0.5:
                        warm_left[u], warm_right[v] = v, u
                        break
            started = [u for u in range(nl) if warm_left[u] >= 0]
            cold, _ = hopcroft_karp(nl, nr, adj)
            left, right = hopcroft_karp(nl, nr, adj, warm_left, warm_right)
            assert left is warm_left and right is warm_right
            assert sum(v >= 0 for v in left) == sum(v >= 0 for v in cold)
            assert all(left[u] >= 0 for u in started)
            for u, v in enumerate(left):
                if v >= 0:
                    assert v in adj[u] and right[v] == u
            assert sum(u >= 0 for u in right) == sum(v >= 0 for v in left)


class TestFindAllowedMatching:
    def test_four_vertex_no_forbidden(self, g4, m2):
        # Free-neighbour counts: sources 2, 3, 1, 0 and destinations
        # 2, 2, 1, 1.  Source 2 comes off the stack first: (2, 3).  Then
        # destination 2 takes its only free source: (1, 2).  Taking source
        # 1 leaves destinations 0 and 1 one free source each (source 0);
        # both are pushed, 1 last, so (0, 1) comes next and destination 0
        # is left with none.
        assert find_allowed_matching(g4, []) == m2

    def test_chain_with_forbidden_tail(self):
        g = chain(3)
        m = find_allowed_matching(g, [1, 2])
        assert m is not None
        assert m.edges() == [(0, 1), (1, 2)]
        assert m.unmatched() == [0]

    def test_out_star_unsatisfiable(self):
        # one source cannot cover two forbidden destinations
        g = SparseDigraph(3, [(0, 1), (0, 2)])
        assert find_allowed_matching(g, [1, 2]) is None

    def test_five_vertex_no_forbidden(self, g5):
        # Degree-one vertices at the start: sources 1 and 4,
        # then destinations 2 and 4.  Source 1 takes (1, 0); that leaves
        # source 0 one free destination, so it is pushed and comes off
        # next: (0, 1).  That leaves source 2 one: (2, 3), and source 4
        # none.  Then destination 2 takes (3, 2), and destination 4 is
        # left with no free source.
        m = find_allowed_matching(g5, [])
        assert m is not None
        assert m.edges() == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_degree_one_first(self):
        # destination 1 has the single free source 0, so (0, 1) is taken
        # before source 0 can take its lowest destination 0
        m = _allowed_start(SparseDigraph(2, [(0, 0), (0, 1), (1, 0)]), [])
        assert m.edges() == [(0, 1), (1, 0)]

    def test_forbidden_out_of_range(self, g4):
        with pytest.raises(IndexOutOfRange):
            find_allowed_matching(g4, [4])

    def test_deterministic(self, g5):
        a = find_allowed_matching(g5, [0, 3])
        b = find_allowed_matching(g5, [0, 3])
        assert a is not None and a == b

    def test_properties_random(self):
        rng = random.Random(32)
        nones = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, rng.choice([0.2, 0.4]), rng)
            f = random_forbidden(n, 0.4, rng)
            m = find_allowed_matching(g, f)
            # solvability must match a direct cover check on the forbidden side
            srcs = sorted({u for v in f for u in g.in_adj[v]})
            idx = {u: i for i, u in enumerate(srcs)}
            adj = [[] for _ in srcs]
            for fi, v in enumerate(sorted(f)):
                for u in g.in_adj[v]:
                    adj[idx[u]].append(fi)
            coverable = max_matching_size(len(srcs), len(f), adj) == len(f)
            scc = source_components(g)
            freeable = all(not set(scc.comps[c]) <= f for c in scc.source_ids)
            assert (m is not None) == (coverable and freeable)
            if m is None:
                nones += 1
                continue
            m.validate(g)
            assert m.is_allowed(f)
            # the Karp-Sipser pass alone is maximal: no edge joins a free
            # source to a free destination
            ks = _allowed_start(g, [])
            for u, v in g.edges():
                assert ks.mate_of_src[u] >= 0 or ks.mate_of_dst[v] >= 0
        assert nones > 0

    def test_repair_properties(self):
        """The private start is a valid allowed matching never smaller
        than the start with nothing forbidden, or a Hall set that blocks
        F.  ``find_allowed_matching`` is None then or when a source SCC is
        entirely forbidden, and is otherwise that start with one member
        of each fully matched source SCC freed.  Solving reaches the
        reference cost."""
        rng = random.Random(33)
        seen = dict.fromkeys(["none", "repaired", "solved"], 0)
        for _ in range(400):
            n = rng.randint(2, 40)
            if rng.random() < 0.5:
                g = erdos_renyi(n, rng.choice([1.0, 2.0, 3.0]) / n, rng)
            else:
                g = preferential(n, rng.randint(1, 3), rng)
            share = rng.choice([0.1, 0.3, 0.6])
            if rng.random() < 0.5:
                f = greedy_forbidden(g, share, rng)
            else:
                f = random_forbidden(n, share, rng)
            m = find_allowed_matching(g, f)
            start = _allowed_start(g, sorted(f))
            if not isinstance(start, Matching):
                assert m is None
                seen["none"] += 1
                s = set(start)
                assert start == sorted(s) and s <= f
                assert len({u for v in s for u in g.in_adj[v]}) == len(s) - 1
            else:
                start.validate(g)
                assert start.is_allowed(f)
                empty = _allowed_start(g, [])
                assert start.size >= empty.size
                seen["repaired"] += not empty.is_allowed(f)
                scc = source_components(g)
                full = [c for c in scc.source_ids
                        if all(start.mate_of_dst[v] >= 0 for v in scc.comps[c])]
                if any(set(scc.comps[c]) <= f for c in full):
                    assert m is None
                else:
                    assert m.is_allowed(f) and set(m.edges()) <= set(start.edges())
                    assert m.size == start.size - len(full)
                    assert all(classify(scc, m).comp_unmatched[c] for c in scc.source_ids)
            res = solve(Problem(g, f), check=True)
            want = assignment_min_inputs(g, f)
            if isinstance(res, Solution):
                assert res.cost == want
                seen["solved"] += 1
            else:
                assert want is None
        assert min(seen.values()) >= 20, seen


class TestClassify:
    def test_fully_matched_source(self, g4, m1):
        scc = source_components(g4)
        cls = classify(scc, m1)
        assert [scc.comps[c] for c in scc.source_ids if cls.comp_unmatched[c] == 0] == [[0, 1]]
        assert cls.unmatched == [2]
        assert sum(cls.comp_unmatched) == 1

    def test_one_free_source(self, g4, m2):
        scc = source_components(g4)
        cls = classify(scc, m2)
        assert [(scc.comps[c], cls.comp_unmatched[c]) for c in scc.source_ids] == [([0, 1], 1)]
        assert cls.unmatched == [0]

    def test_slack_source(self, g5, m3):
        scc = source_components(g5)
        cls = classify(scc, m3)
        assert [(scc.comps[c], cls.comp_unmatched[c]) for c in scc.source_ids] == [([2, 3, 4], 3)]
        assert cls.unmatched == [2, 3, 4]

    def test_partition_property(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, 0.35, rng)
            m = find_allowed_matching(g, [])
            assert m is not None
            scc = source_components(g)
            cls = classify(scc, m)
            for c, members in enumerate(scc.comps):
                assert cls.comp_unmatched[c] == sum(m.mate_of_dst[v] < 0 for v in members)
            assert cls.unmatched == [v for v in range(n) if m.mate_of_dst[v] < 0]


class TestFreeSourceMembers:
    def test_frees_lowest_member(self, g4, m1, m1_free):
        scc = source_components(g4)
        cls = classify(scc, m1)
        free_source_members(scc, m1, cls, [])
        assert m1 == m1_free
        assert cls == classify(scc, m1_free) and cls.cost == 2

    def test_skips_forbidden(self, g4, m1):
        scc = source_components(g4)
        cls = classify(scc, m1)
        free_source_members(scc, m1, cls, [0])
        assert m1.unmatched() == cls.unmatched == [1, 2]
        assert m1.is_allowed([0])

    def test_keeps_cost_and_allowedness(self):
        # on random matchings, allowed for F drawn among the matched
        # vertices: the paper's cost stays, F stays covered and every
        # source component ends with an unmatched member
        rng = random.Random(35)
        freed = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            scc = source_components(g)
            m = random_matching(g, rng, rng.choice([0.6, 1.0]))
            matched = [v for v in range(n) if m.mate_of_dst[v] >= 0]
            f = frozenset(rng.sample(matched, len(matched) // 3))
            free = set(m.unmatched())
            full = [c for c in scc.source_ids if free.isdisjoint(scc.comps[c])]
            cls = classify(scc, m)
            if any(set(scc.comps[c]) <= f for c in full):
                continue  # no member to free: solve's gate rejects these
            free_source_members(scc, m, cls, f)
            freed += len(full)
            assert cls == classify(scc, m)
            assert cls.cost == len(free) + len(full)
            assert m.is_allowed(f)
            assert all(cls.comp_unmatched[c] >= 1 for c in scc.source_ids)
        assert freed >= 40, freed  # 61 at this seed


class TestCost:
    def test_frozen_values(self, g4, g5, m1_free, m2, m3):
        scc4 = source_components(g4)
        assert classify(scc4, m1_free).cost == 2
        assert classify(scc4, m2).cost == 1
        assert classify(source_components(g5), m3).cost == 3

    def test_matches_naive_recompute(self):
        rng = random.Random(34)
        for _ in range(200):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, 0.35, rng)
            m = find_allowed_matching(g, [])
            assert m is not None
            scc = source_components(g)
            free = set(m.unmatched())
            full_sources = sum(
                1
                for c in scc.source_ids
                if not any(v in free for v in scc.comps[c])
            )
            assert classify(scc, m).cost == len(free) + full_sources
