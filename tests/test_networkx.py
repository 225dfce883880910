"""SCC and bipartite matching cross-checked against networkx at scale."""

import random

import networkx as nx
import pytest

from families import erdos_renyi, preferential
from minput import scc_decompose
from minput.matching import hopcroft_karp


def _graphs():
    for n in (1000, 10000):
        for deg in (1.0, 3.0):
            yield f"er-{n}-{deg}", erdos_renyi(n, deg / n, random.Random(n + int(deg)))
        yield f"pa-{n}", preferential(n, 3, random.Random(n + 7))


GRAPHS = list(_graphs())


def _nx_digraph(g):
    dg = nx.DiGraph()
    dg.add_nodes_from(range(g.n))
    dg.add_edges_from(g.edges())
    return dg


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_scc_partition_and_sources(name, g):
    scc = scc_decompose(g)
    dg = _nx_digraph(g)
    want = {frozenset(c) for c in nx.strongly_connected_components(dg)}
    assert {frozenset(c) for c in scc.comps} == want
    for c, members in enumerate(scc.comps):
        assert members == sorted(members)
        assert all(scc.comp_id[v] == c for v in members)
    cond = nx.condensation(dg)
    sources = {
        frozenset(cond.nodes[x]["members"]) for x in cond if cond.in_degree(x) == 0
    }
    assert {frozenset(scc.comps[c]) for c in scc.source_ids} == sources
    assert scc.source_ids == range(len(sources))


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_hopcroft_karp_size(name, g):
    mate_left, mate_right = hopcroft_karp(g.n, g.n, g.out_adj)
    size = 0
    for u, v in enumerate(mate_left):
        if v >= 0:
            assert v in g.out_adj[u] and mate_right[v] == u
            size += 1
    assert sum(1 for u in mate_right if u >= 0) == size
    bg = nx.Graph()
    left = [("src", u) for u in range(g.n)]
    bg.add_nodes_from(left)
    bg.add_nodes_from(("dst", v) for v in range(g.n))
    bg.add_edges_from((("src", u), ("dst", v)) for u, v in g.edges())
    want = nx.bipartite.hopcroft_karp_matching(bg, top_nodes=left)
    assert size == len(want) // 2
