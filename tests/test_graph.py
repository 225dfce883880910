import dataclasses
import json
import random

import numpy as np
import pytest

from bruteforce import closure, reference_scc, scc_partition, stars_and_cycles
from families import erdos_renyi, preferential
from minput import (
    IndexOutOfRange,
    Problem,
    SparseDigraph,
    build_graph,
    induced_subgraph,
    isolated_vertices,
    scc_decompose,
    solve,
)
from minput.graph import empty_adjacency, reachable_from


def _multigraph_edges(n, rng):
    """Shuffled edges of a multigraph on ``n`` vertices whose sorted
    out-lists repeat an id at the start, in the middle or at the end,
    repeat a self loop, or are one id repeated throughout."""
    edges = []
    for u in range(n):
        ids = sorted(rng.sample(range(n), rng.randint(0, n)))
        if ids and rng.random() < 0.3:
            ids.append(ids[0])
        if ids and rng.random() < 0.3:
            ids.append(ids[len(ids) // 2])
        if ids and rng.random() < 0.3:
            ids.append(ids[-1])
        if rng.random() < 0.2:
            ids += [u] * rng.randint(2, 4)
        if rng.random() < 0.15:
            ids = [rng.randrange(n)] * rng.randint(1, 5)
        edges += [(u, v) for v in ids]
    rng.shuffle(edges)
    return edges


def _same_contract(scc, ref):
    """``scc`` and ``ref`` agree on what ``SccInfo`` fixes: the source count,
    the sources' members in order and the partition; and ``scc.comp_id``
    names the component that lists each vertex."""
    r = len(ref.source_ids)
    assert scc.source_ids == range(r)
    assert scc.comps[:r] == ref.comps[:r]
    assert sorted(scc.comps) == sorted(ref.comps)
    assert len(scc.comp_id) == sum(map(len, scc.comps))
    for c, members in enumerate(scc.comps):
        assert members == sorted(members)
        assert all(scc.comp_id[v] == c for v in members)


def _checked(g):
    """``scc_decompose(g)``, checked against ``reference_scc`` and against
    the source flags read from the edges."""
    scc = scc_decompose(g)
    _same_contract(scc, reference_scc(g))
    entered = {scc.comp_id[v] for u, v in g.edges() if scc.comp_id[u] != scc.comp_id[v]}
    assert [c for c in range(scc.n_comps) if c not in entered] == list(scc.source_ids)
    return scc


class TestSparseDigraph:
    def test_dedup_and_sorted_adjacency(self):
        g = SparseDigraph(3, [(2, 1), (0, 1), (2, 1), (0, 2), (0, 1)])
        assert g.m == 3
        assert g.out_adj == [[1, 2], [], [1]]
        assert g.in_adj == [[], [0, 2], [0]]
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 1)]

        rng = random.Random(15)
        for _ in range(600):
            n = rng.randint(1, 9)
            edges = _multigraph_edges(n, rng)
            distinct = sorted(set(edges))
            out_ref = [[v for u, v in distinct if u == w] for w in range(n)]
            in_ref = [[u for u, v in distinct if v == w] for w in range(n)]
            out_adj, in_adj = empty_adjacency(n)
            for u, v in edges:
                out_adj[u].append(v)
            for g in (SparseDigraph(n, edges), SparseDigraph(n, (e for e in edges)),
                      SparseDigraph._from_lists(out_adj, in_adj)):
                assert (g.out_adj, g.in_adj, g.m) == (out_ref, in_ref, len(distinct)), edges

    def test_self_loop_kept(self):
        g = SparseDigraph(2, [(0, 0), (0, 1)])
        assert g.has_edge(0, 0)
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(2, [(0, 2)])
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(2, [(-1, 0)])
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(-1, [])

    @pytest.mark.parametrize("bad", [1.0, "1", None, True, False])
    def test_rejects_non_integer_endpoints(self, bad):
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(2, [(0, bad)])
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(2, [(bad, 0)])

    def test_numpy_endpoints_stored_as_int(self):
        g = SparseDigraph(3, [(np.int64(0), np.int32(2)), (1, np.int64(0))])
        assert g.out_adj == [[2], [0], []] and g.in_adj == [[1], [], [0]]
        assert all(type(v) is int for adj in g.out_adj + g.in_adj for v in adj)
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(2, [(0, np.int64(2))])

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", None, True, False])
    def test_rejects_bad_vertex_count(self, bad):
        with pytest.raises(IndexOutOfRange):
            SparseDigraph(bad, [])

    def test_vertex_count_cap(self, monkeypatch):
        # patched low: at the real cap, a check placed after the adjacency
        # lists would allocate 2 * 2**24 of them before it failed
        monkeypatch.setattr("minput.graph.MAX_VERTICES", 5)
        with pytest.raises(IndexOutOfRange, match="exceeds the limit of 5"):
            SparseDigraph(6, [])
        assert SparseDigraph(5, [(4, 0)]).n == 5

    def test_numpy_vertex_count_stored_as_int(self):
        g = SparseDigraph(np.int64(3), [(0, 1)])
        assert type(g.n) is int and g.n == 3
        sol = solve(Problem(g))
        stats = sol.diagnostics.per_iteration[0]
        assert all(type(v) is int for v in (sol.cost, stats.cost, stats.work))
        json.dumps(dataclasses.asdict(sol))

    def test_empty(self):
        g = SparseDigraph(0, [])
        assert g.n == 0 and g.m == 0
        assert list(g.edges()) == []

    def test_equality(self):
        a = SparseDigraph(2, [(0, 1), (0, 1)])
        b = SparseDigraph(2, [(0, 1)])
        assert a == b
        assert a != SparseDigraph(2, [(1, 0)])


class TestBuildGraph:
    def test_entries_are_transposed(self):
        # A[0][0] and A[0][1] nonzero: edges 0 -> 0 and 1 -> 0
        g = build_graph(2, [(0, 0), (0, 1)])
        assert sorted(g.edges()) == [(0, 0), (1, 0)]

    def test_matches_direct_construction(self):
        entries = [(2, 0), (1, 2), (0, 0)]
        g = build_graph(3, entries)
        assert g == SparseDigraph(3, [(0, 2), (2, 1), (0, 0)])

    def test_bad_entry(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(2, [(2, 0)])


class TestIsolated:
    def test_mixed(self):
        g = SparseDigraph(5, [(0, 1), (3, 3)])
        assert isolated_vertices(g) == [2, 4]

    def test_self_loop_not_isolated(self):
        g = SparseDigraph(1, [(0, 0)])
        assert isolated_vertices(g) == []

    def test_all_isolated(self):
        assert isolated_vertices(SparseDigraph(3, [])) == [0, 1, 2]


class TestInducedSubgraph:
    def test_remap(self):
        g = SparseDigraph(4, [(0, 1), (1, 3), (3, 0), (2, 2)])
        sub, old = induced_subgraph(g, [0, 1, 3])
        assert old == [0, 1, 3]
        assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_drops_cross_edges(self):
        g = SparseDigraph(3, [(0, 1), (1, 2)])
        sub, _ = induced_subgraph(g, [0, 2])
        assert sub.m == 0


class TestScc:
    def test_four_vertex_example(self, g4):
        scc = scc_decompose(g4)
        assert sorted(map(sorted, scc.comps)) == [[0, 1], [2], [3]]
        by_member = {tuple(c): i < len(scc.source_ids) for i, c in enumerate(scc.comps)}
        assert by_member[(0, 1)] is True
        assert by_member[(2,)] is False
        assert by_member[(3,)] is False
        assert [scc.comps[c] for c in scc.source_ids] == [[0, 1]]

    def test_five_vertex_example(self, g5):
        scc = scc_decompose(g5)
        assert sorted(map(sorted, scc.comps)) == [[0, 1], [2, 3, 4]]
        assert [scc.comps[c] for c in scc.source_ids] == [[2, 3, 4]]

    def test_comp_members_consistent(self, g4):
        scc = scc_decompose(g4)
        for i, members in enumerate(scc.comps):
            assert members == sorted(members)
            for v in members:
                assert scc.comp_id[v] == i

    def test_matches_reachability_partition(self):
        rng = random.Random(20)
        for _ in range(120):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            scc = scc_decompose(g)
            assert {frozenset(c) for c in scc.comps} == scc_partition(g)

    def test_source_flags_against_edges(self):
        rng = random.Random(21)
        for _ in range(80):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, 0.3, rng)
            scc = scc_decompose(g)
            for c, members in enumerate(scc.comps):
                has_incoming = any(
                    scc.comp_id[u] != c and v in members for u, v in g.edges()
                )
                assert (c < len(scc.source_ids)) == (not has_incoming)

    def test_condensation_acyclic(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, 0.4, rng)
            scc = scc_decompose(g)
            cond = {
                (scc.comp_id[u], scc.comp_id[v])
                for u, v in g.edges()
                if scc.comp_id[u] != scc.comp_id[v]
            }
            # Kahn peeling must consume every component
            indeg = [0] * scc.n_comps
            for _, b in cond:
                indeg[b] += 1
            frontier = [c for c in range(scc.n_comps) if indeg[c] == 0]
            seen = 0
            while frontier:
                c = frontier.pop()
                seen += 1
                for a, b in cond:
                    if a == c:
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            frontier.append(b)
            assert seen == scc.n_comps

    def test_same_numbering_as_reference_tarjan(self):
        # What SccInfo fixes must match Tarjan's: r, the sources' members in
        # order, the partition, and comp_id/comps consistency.  The order
        # of the other components reaches no output and is left free.
        rng = random.Random(24)
        graphs = [
            SparseDigraph(0, []),
            SparseDigraph(5000, [(v, v + 1) for v in range(4999)]),
            SparseDigraph(3000, [(v, (v + 1) % 3000) for v in range(3000)]),
        ]
        for i in range(2000):
            kind = i % 4
            if kind == 0:
                n = rng.randint(1, 40)
                g = erdos_renyi(n, rng.choice([0.03, 0.08, 0.15, 0.3, 0.6]), rng)
            elif kind == 1:
                n = rng.randint(2, 300)
                g = erdos_renyi(n, rng.uniform(0.5, 3.0) / n, rng)
            elif kind == 2:
                g = preferential(rng.randint(1, 80), rng.randint(1, 3), rng)
            else:
                g = stars_and_cycles(rng)
            graphs.append(g)
        for g in graphs:
            _same_contract(scc_decompose(g), reference_scc(g))

    def test_deep_chain_no_recursion_limit(self):
        n = 5000
        g = SparseDigraph(n, [(v, v + 1) for v in range(n - 1)])
        scc = scc_decompose(g)
        assert scc.n_comps == n
        # with a self loop on every vertex nothing peels, so the search
        # from vertex 0 has to go n deep
        g = SparseDigraph(n, [(v, v + 1) for v in range(n - 1)] + [(v, v) for v in range(n)])
        assert [] not in g.in_adj
        scc = scc_decompose(g)
        assert scc.n_comps == n
        assert [scc.comps[c] for c in scc.source_ids] == [[0]]

    def test_big_cycle_single_component(self):
        n = 3000
        g = SparseDigraph(n, [(v, (v + 1) % n) for v in range(n)])
        scc = scc_decompose(g)
        assert scc.n_comps == 1
        assert scc.source_ids == range(1)


class TestSccPeel:
    """``scc_decompose`` peels the vertices no unpeeled vertex enters
    before its searches run; these graphs sit on either side of that."""

    def test_dag_peels_whole(self):
        g = SparseDigraph(6, [(5, 0), (5, 3), (0, 1), (3, 1), (1, 2), (4, 2)])
        scc = _checked(g)
        assert scc.n_comps == 6
        assert [scc.comps[c] for c in scc.source_ids] == [[4], [5]]

    def test_chain_feeds_cycle(self):
        # 0 -> 1 -> 2 peel; the cycle 3 -> 4 -> 5 -> 3 stays
        g = SparseDigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        scc = _checked(g)
        assert sorted(scc.comps) == [[0], [1], [2], [3, 4, 5]]
        assert [scc.comps[c] for c in scc.source_ids] == [[0]]

    def test_self_loop_only_in_edge_is_core_source(self):
        # 0 and 5 are entered only by their own loops, so they never peel;
        # 3 peels; the sources interleave by lowest member
        g = SparseDigraph(6, [(0, 0), (0, 1), (1, 2), (3, 4), (5, 5), (5, 2)])
        scc = _checked(g)
        assert [scc.comps[c] for c in scc.source_ids] == [[0], [3], [5]]

    def test_core_component_entered_only_from_peeled(self):
        # 4 peels and enters the cycle {1, 2}, which is then no source;
        # 3 is entered from the core only
        g = SparseDigraph(5, [(4, 1), (1, 2), (2, 1), (2, 3)])
        scc = _checked(g)
        assert sorted(scc.comps) == [[0], [1, 2], [3], [4]]
        assert [scc.comps[c] for c in scc.source_ids] == [[0], [4]]

    def test_isolated_and_empty(self):
        scc = _checked(SparseDigraph(3, []))
        assert scc.comps == [[0], [1], [2]] and scc.source_ids == range(3)
        scc = _checked(SparseDigraph(0, []))
        assert scc.comps == [] and scc.comp_id == [] and scc.source_ids == range(0)

    def test_sources_ascend_by_lowest_member(self):
        rng = random.Random(25)
        for i in range(600):
            kind = i % 3
            if kind == 0:
                n = rng.randint(1, 200)
                g = erdos_renyi(n, rng.uniform(0.3, 3.0) / n, rng)
            elif kind == 1:
                g = preferential(rng.randint(1, 200), rng.randint(1, 3), rng)
            else:
                g = stars_and_cycles(rng)
            scc = _checked(g)
            heads = [scc.comps[c][0] for c in scc.source_ids]
            assert heads == sorted(heads)


class TestReachableFrom:
    def test_chain(self):
        g = SparseDigraph(4, [(0, 1), (1, 2), (2, 3)])
        assert reachable_from(g, [0]) == {0, 1, 2, 3}
        assert reachable_from(g, [2]) == {2, 3}
        assert reachable_from(g, []) == set()

    def test_matches_closure(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, 0.3, rng)
            reach = closure(g)
            for v in range(n):
                assert reachable_from(g, [v]) == reach[v]

    def test_bad_seed(self):
        with pytest.raises(IndexOutOfRange):
            reachable_from(SparseDigraph(2, []), [2])
