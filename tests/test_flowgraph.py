import random
from collections import deque

from bruteforce import (
    ExplicitFlow,
    component_nodes,
    flow_graph,
    greedy_allowed_matching,
    into_network,
    random_matching,
    reference_flow_edges,
    reference_residual_edges,
)
from families import erdos_renyi, random_forbidden
from minput import find_allowed_matching, layered_bfs, scc_decompose

AB = ["a", "b", "c", "d"]
ABE = ["a", "b", "c", "d", "e"]

DUMP_ONE_FREE = """\
a.dst -> comp0
a.src -> a.dst
b.dst -> a.src
b.src -> a.dst
b.src -> b.dst
c.dst -> b.src
comp0 -> b.dst
d.dst -> c.src
s -> d.src"""

DUMP_FREED = """\
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

DUMP_SLACK = """\
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


def _out(fg, x):
    return [b for a, b in fg.explicit_edges() if a == x]


def _in(fg, y):
    return [a for a, b in fg.explicit_edges() if b == y]


class TestGoldenDumps:
    def test_one_free_source_component(self, g4, m2):
        fg = flow_graph(g4, m2)
        assert fg.dump(AB) == DUMP_ONE_FREE
        assert component_nodes(fg) == []  # no family
        assert fg.t_in == []

    def test_gateway_component(self, g4, m1, m1_free):
        # m1 leaves the source component {a, b} fully matched.  Its view
        # is N's residual graph too, so nothing enters that component's
        # node; the loop starts from m1 with a freed instead.
        fg = flow_graph(g4, m1)
        assert _in(fg, 10) == [] and _out(fg, 10) == [4, 5]
        fg = flow_graph(g4, m1_free)
        assert fg.dump(AB) == DUMP_FREED
        assert component_nodes(fg) == []
        assert fg.s_out == [0, 3]
        assert fg.t_in == [4 + 2]

    def test_slack_family(self, g5, m3):
        fg = flow_graph(g5, m3)
        assert fg.dump(ABE) == DUMP_SLACK
        [family] = component_nodes(fg)
        assert fg.in_view(family) == [7, 8, 9]
        assert (family, fg.node_name(family)) == (12, "comp0")


class TestNodeIds:
    def test_layout(self, g4, m1):
        fg = flow_graph(g4, m1)
        assert (fg.s_id, fg.t_id, fg.view_size) == (8, 9, 11)  # one source SCC
        assert fg.node_count() == 11
        assert [fg.node_name(x, AB) for x in range(fg.node_count())] == [
            "a.src", "b.src", "c.src", "d.src",
            "a.dst", "b.dst", "c.dst", "d.dst",
            "s", "t", "comp0",
        ]

    def test_default_names(self, g4, m2):
        fg = flow_graph(g4, m2)
        assert fg.node_name(0) == "0.src"
        assert fg.node_name(7) == "3.dst"

    def test_slack_names(self, g5, m3):
        fg = flow_graph(g5, m3)
        assert fg.node_name(12) == "comp0"
        assert fg.node_count() == fg.view_size == 13


class TestNeighbors:
    def test_out_examples(self, g5, m3):
        fg = flow_graph(g5, m3)
        assert _out(fg, fg.s_id) == [0, 3, 4]
        assert _out(fg, 0) == [5, 6]  # a.src -> a.dst, b.dst
        assert _out(fg, 5) == [1]  # a.dst -> b.src (reversed match)
        assert _out(fg, 7) == [12]  # c.dst -> family node
        assert _out(fg, 12) == [fg.t_id]
        assert _out(fg, fg.t_id) == []

    def test_in_examples(self, g5, m3):
        fg = flow_graph(g5, m3)
        assert _in(fg, fg.s_id) == []
        assert _in(fg, fg.t_id) == [12]
        assert _in(fg, 12) == [7, 8, 9]
        assert _in(fg, 0) == [fg.s_id]  # a.src is unmatched
        assert _in(fg, 1) == [5]  # b.src matched through a.dst
        assert _in(fg, 8) == [2, 4]  # d.dst from c.src, e.src


class TestForbiddenExclusion:
    def test_free_swap_skips_forbidden(self, g4, m2):
        # the component node's out-list skips forbidden members, so the
        # free vertex may only swap with non-forbidden ones
        comp = flow_graph(g4, m2).s_id + 2
        fg = flow_graph(g4, m2, forbidden=[1])
        assert _out(fg, 4) == [comp]
        assert _out(fg, comp) == []
        assert _in(fg, 5) == [1]


class TestStructuralProperties:
    def test_random_consistency(self):
        rng = random.Random(40)
        for _ in range(120):
            n = rng.randint(1, 8)
            g = erdos_renyi(n, rng.choice([0.2, 0.4]), rng)
            f = random_forbidden(n, 0.3, rng)
            m = find_allowed_matching(g, f)
            if m is None:
                continue
            fg = flow_graph(g, m, f)
            assert fg.node_count() <= 3 * n + 2
            assert fg.view_size <= 3 * n + 2
            assert fg.build_work <= 20 * (n + g.m + 1)

    def test_source_copies_have_one_in_edge(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, 0.35, rng)
            m = find_allowed_matching(g, [])
            assert m is not None
            fg = flow_graph(g, m)
            for u in range(n):
                mate = m.mate_of_src[u]
                expect = [fg.s_id] if mate < 0 else [n + mate]
                assert fg.in_view(u) == expect

    def test_t_has_no_out_edges(self, g5, m3):
        fg = flow_graph(g5, m3)
        for x, y in fg.explicit_edges():
            assert x != fg.t_id
            assert y != fg.s_id


def _implicit_view_cases():
    """300 random (graph, forbidden, matching, flow graph) cases, half of
    them on a random matching that need not be maximal or allowed and the
    rest on the greedy start, which leaves more s -> t paths to follow
    than the package's start does; each moved into N as ``minimize``
    would."""
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
        f = random_forbidden(n, 0.3, rng)
        m = greedy_allowed_matching(g, f)
        if m is None or rng.random() < 0.5:
            m = random_matching(g, rng, 0.6)
        into_network(g, m)
        yield g, f, m, flow_graph(g, m, f)


def _plain_bfs(fg):
    """Distances from s over ``out_view``, -1 where unreached."""
    dist = [-1] * fg.view_size
    dist[fg.s_id] = 0
    queue = deque([fg.s_id])
    while queue:
        x = queue.popleft()
        for y in fg.out_view(x):
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class TestImplicitView:
    def test_matches_reference_construction(self):
        # The view is the residual graph of the fixed network.  A swap
        # takes one hop more than in the paper's graph, so t is reachable
        # in both or neither and the view is never the shorter.
        seen = {"swap": 0, "slack": 0}
        for g, f, m, fg in _implicit_view_cases():
            n = g.n
            scc = scc_decompose(g)
            size, residual = reference_residual_edges(g, scc.comp_id, m, f)
            assert fg.node_count() == fg.view_size == size == 2 * n + 2 + len(scc.source_ids)
            edges = fg.explicit_edges()
            assert len(edges) == len(set(edges))
            assert set(edges) == residual
            seen["slack"] += len(component_nodes(fg)) > 0
            seen["swap"] += any(
                a > fg.t_id and fg.cls.comp_unmatched[a - fg.t_id - 1] == 1 for a, _ in edges
            )
            size, paper = reference_flow_edges(g, scc.comp_id, m, f)
            paper_t = _plain_bfs(ExplicitFlow(size, list(paper), fg.s_id, fg.t_id))[fg.t_id]
            dag = layered_bfs(fg)
            assert (dag is not None) == (paper_t >= 0)
            assert dag is None or dag.dist_t >= paper_t
        assert min(seen.values()) >= 20, seen

    def test_views_mirror_each_other(self):
        for _, _, _, fg in _implicit_view_cases():
            nodes = range(fg.view_size)
            assert {(x, y) for x in nodes for y in fg.out_view(x)} == {
                (x, y) for y in nodes for x in fg.in_view(y)
            }

    def test_layered_bfs_follows_out_view(self):
        # The BFS forward scan is written inline; it must label every
        # node up to t's level exactly as a plain BFS over the view does.
        reached = 0
        for _, _, _, fg in _implicit_view_cases():
            want = _plain_bfs(fg)
            dag = layered_bfs(fg)
            if want[fg.t_id] < 0:
                assert dag is None
                continue
            reached += 1
            assert dag.dist_t == want[fg.t_id]
            assert dag.dist == [d if d <= dag.dist_t else -1 for d in want]
        assert reached >= 100, reached
