"""SCC and bipartite matching cross-checked against networkx at scale."""

import random

import networkx as nx
import pytest

from families import erdos_renyi, preferential
from minput.graph import source_components
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
    # the condensation's in-degree-0 nodes, by lowest member; every
    # other vertex is in the bucket r
    scc = source_components(g)
    cond = nx.condensation(_nx_digraph(g))
    sources = sorted(sorted(cond.nodes[x]["members"]) for x in cond if cond.in_degree(x) == 0)
    assert scc.comps == sources
    assert scc.source_ids == range(len(sources))
    want = [len(sources)] * g.n
    for c, members in enumerate(sources):
        for v in members:
            want[v] = c
    assert scc.comp_id == want


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
