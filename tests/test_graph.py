import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from bruteforce import closure, reference_scc, scc_partition, stars_and_cycles
from families import erdos_renyi, preferential
from minput import (
    IndexOutOfRange,
    Problem,
    SparseDigraph,
    build_graph,
    induced_subgraph,
    isolated_vertices,
    solve,
)
from minput.graph import empty_adjacency, reachable_from, source_components


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
    """``scc`` holds what ``SccInfo`` fixes of ``ref``, a full decomposition
    with its ``r`` sources first: ``r``, the sources' members in order, and
    per vertex its source's index, or ``r`` for a vertex in no source."""
    r = len(ref.source_ids)
    assert scc.source_ids == range(r) and scc.n_comps == r
    assert scc.comps == ref.comps[:r]
    assert scc.comp_id == [min(c, r) for c in ref.comp_id]


def _checked(g):
    """``source_components(g)``, checked against ``reference_scc`` and
    against the edges: no edge enters a source from outside it."""
    scc = source_components(g)
    _same_contract(scc, reference_scc(g))
    entered = {scc.comp_id[v] for u, v in g.edges() if scc.comp_id[u] != scc.comp_id[v]}
    assert entered.isdisjoint(scc.source_ids)
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
        scc = source_components(g4)
        assert scc.comps == [[0, 1]]
        assert scc.comp_id == [0, 0, 1, 1]

    def test_five_vertex_example(self, g5):
        scc = source_components(g5)
        assert scc.comps == [[2, 3, 4]]
        assert scc.comp_id == [1, 1, 0, 0, 0]

    def test_comp_members_consistent(self, g4):
        scc = source_components(g4)
        r = scc.n_comps
        for i, members in enumerate(scc.comps):
            assert members == sorted(members)
            for v in members:
                assert scc.comp_id[v] == i
        listed = {v for members in scc.comps for v in members}
        assert all(scc.comp_id[v] == r for v in range(g4.n) if v not in listed)

    def test_matches_reachability_partition(self):
        # the sources are the mutual-reachability classes no edge enters
        rng = random.Random(20)
        for _ in range(120):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            scc = source_components(g)
            sources = {
                c for c in scc_partition(g)
                if not any(u not in c and v in c for u, v in g.edges())
            }
            assert {frozenset(c) for c in scc.comps} == sources

    def test_source_flags_against_edges(self):
        # v is in a source exactly when every vertex reaching it is
        # reached from it
        rng = random.Random(21)
        for _ in range(80):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, 0.3, rng)
            scc = source_components(g)
            reach = closure(g)
            for v in range(n):
                upstream_only = all(u in reach[v] for u in range(n) if v in reach[u])
                assert (scc.comp_id[v] < scc.n_comps) == upstream_only

    def test_condensation_acyclic(self):
        # the quotient by comp_id, the sources and the one bucket r of
        # every other vertex, has edges only from sources into the bucket
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, 0.4, rng)
            scc = source_components(g)
            r = scc.n_comps
            cond = {
                (scc.comp_id[u], scc.comp_id[v])
                for u, v in g.edges()
                if scc.comp_id[u] != scc.comp_id[v]
            }
            assert all(a < r and b == r for a, b in cond)

    def test_same_numbering_as_reference_tarjan(self):
        # What SccInfo fixes must match Tarjan's: r, the sources' members in
        # order, and comp_id, r off the sources.
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
            _same_contract(source_components(g), reference_scc(g))

    def test_deep_chain_no_recursion_limit(self):
        n = 5000
        g = SparseDigraph(n, [(v, v + 1) for v in range(n - 1)])
        scc = source_components(g)
        assert scc.comps == [[0]] and scc.comp_id == [0] + [1] * (n - 1)
        # with a self loop on every vertex no vertex has in-degree 0, so
        # the search from vertex 0 has to go n deep
        g = SparseDigraph(n, [(v, v + 1) for v in range(n - 1)] + [(v, v) for v in range(n)])
        assert [] not in g.in_adj
        scc = source_components(g)
        assert scc.comps == [[0]] and scc.comp_id == [0] + [1] * (n - 1)

    def test_big_cycle_single_component(self):
        n = 3000
        g = SparseDigraph(n, [(v, (v + 1) % n) for v in range(n)])
        scc = source_components(g)
        assert scc.comps == [list(range(n))]
        assert scc.source_ids == range(1) and scc.comp_id == [0] * n


class TestSccPeel:
    """``source_components`` first reaches forward from the in-degree-0
    vertices and runs its searches only on what that leaves; these
    graphs sit on either side of that split."""

    def test_dag_peels_whole(self):
        g = SparseDigraph(6, [(5, 0), (5, 3), (0, 1), (3, 1), (1, 2), (4, 2)])
        scc = _checked(g)
        assert scc.comps == [[4], [5]]
        assert scc.comp_id == [2, 2, 2, 2, 0, 1]

    def test_chain_feeds_cycle(self):
        # the reach from 0 takes the chain and the cycle 3 -> 4 -> 5 -> 3
        g = SparseDigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        scc = _checked(g)
        assert scc.comps == [[0]]
        assert scc.comp_id == [0, 1, 1, 1, 1, 1]

    def test_self_loop_only_in_edge_is_core_source(self):
        # 0 and 5 are entered only by their own loops, so the reach from
        # 3 leaves them; the sources interleave by lowest member
        g = SparseDigraph(6, [(0, 0), (0, 1), (1, 2), (3, 4), (5, 5), (5, 2)])
        scc = _checked(g)
        assert scc.comps == [[0], [3], [5]]
        assert scc.comp_id == [0, 3, 3, 1, 3, 2]

    def test_core_component_entered_only_from_peeled(self):
        # the reach from 4 enters the cycle {1, 2}, which is then no
        # source, and goes on to 3
        g = SparseDigraph(5, [(4, 1), (1, 2), (2, 1), (2, 3)])
        scc = _checked(g)
        assert scc.comps == [[0], [4]]
        assert scc.comp_id == [0, 2, 2, 2, 1]

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


@st.composite
def _digraphs(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return SparseDigraph(0, [])
    vertex = st.integers(0, n - 1)
    return SparseDigraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)))


def _scipy_sources(g):
    """The source components of ``g`` by scipy's strong components, each
    sorted, by ascending lowest member."""
    src = np.repeat(np.arange(g.n), [len(nbrs) for nbrs in g.out_adj])
    dst = np.fromiter((v for nbrs in g.out_adj for v in nbrs), dtype=np.int64, count=g.m)
    adj = csr_matrix((np.ones(g.m, dtype=np.int8), (src, dst)), shape=(g.n, g.n))
    k, labels = connected_components(adj, directed=True, connection="strong")
    entered = np.zeros(k, dtype=bool)
    cross = labels[src] != labels[dst]
    entered[labels[dst[cross]]] = True
    comps = {}
    for v in np.flatnonzero(~entered[labels]).tolist():
        comps.setdefault(int(labels[v]), []).append(v)
    return sorted(comps.values())


class TestSourceComponents:
    """Graphs where the forward reach takes nothing, part of the graph or
    all of it, at scale and against independent references."""

    def test_no_in_degree_0_vertex(self):
        # a chain of 2-cycles: only the first pair is a source
        n = 400
        edges = [(v, v ^ 1) for v in range(n)] + [(v, v + 1) for v in range(1, n - 1, 2)]
        g = SparseDigraph(n, edges)
        assert [] not in g.in_adj
        scc = _checked(g)
        assert scc.comps == [[0, 1]]
        # a grid of right and down edges with a self loop on every vertex:
        # every vertex is its own component, only the corner a source
        side = 30
        edges = [(v, v) for v in range(side * side)]
        edges += [(v, v + 1) for v in range(side * side) if v % side < side - 1]
        edges += [(v, v + side) for v in range(side * (side - 1))]
        g = SparseDigraph(side * side, edges)
        assert [] not in g.in_adj
        scc = _checked(g)
        assert scc.comps == [[0]]

    def test_source_in_core_beside_reached_vertices(self):
        # 0 reaches 1 and 2, which also hear from the core source {3, 4};
        # 5 is a core source by its self loop and enters the cycle {6, 7}
        g = SparseDigraph(8, [(0, 1), (1, 2), (3, 4), (4, 3), (4, 2), (5, 5), (5, 6),
                              (6, 7), (7, 6)])
        scc = _checked(g)
        assert scc.comps == [[0], [3, 4], [5]]
        assert scc.comp_id == [0, 3, 3, 1, 1, 2, 3, 3]

    def test_deep_chain_and_cycle_at_2_17(self):
        # neither the reach nor Kosaraju's searches recurse
        n = 2**17
        scc = source_components(SparseDigraph(n, [(v, v + 1) for v in range(n - 1)]))
        assert scc.comps == [[0]] and scc.comp_id.count(1) == n - 1
        scc = source_components(SparseDigraph(n, [(v, (v + 1) % n) for v in range(n)]))
        assert scc.comps == [list(range(n))] and scc.comp_id == [0] * n

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_digraphs())
    def test_property_against_reference(self, g):
        _checked(g)

    @pytest.mark.parametrize("loops", [False, True], ids=["er", "er-self-loops"])
    def test_against_scipy_at_2_16(self, loops):
        # with a self loop on every vertex the reach takes nothing and
        # Kosaraju runs on the whole graph
        n = 2**16
        g = erdos_renyi(n, 3.0 / n, random.Random(2**16 + loops))
        if loops:
            g = SparseDigraph(n, [*g.edges(), *((v, v) for v in range(n))])
        scc = source_components(g)
        assert scc.comps == _scipy_sources(g)
        r = scc.n_comps
        assert scc.comp_id.count(r) == n - sum(map(len, scc.comps))


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
