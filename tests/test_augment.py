import math
import random
from collections import Counter

import pytest

from bruteforce import (
    ExplicitFlow,
    all_shortest_paths,
    assignment_min_inputs,
    component_nodes,
    flow_graph,
    forward_layered_bfs,
    greedy_allowed_matching,
    greedy_forbidden,
    network_start,
    random_matching,
    reference_residual_edges,
)
from families import chain, diagonal, erdos_renyi, preferential, random_forbidden
from minput import (
    IterationStats,
    Problem,
    SparseDigraph,
    augment_on_paths,
    extract_paths,
    find_allowed_matching,
    layered_bfs,
    scc_decompose,
    solve,
)
from minput import augment
from minput.augment import LayeredDag, minimize
from minput.flowgraph import FlowGraph
from minput.matching import Matching, classify
from minput.oracle import brute_force_min_cost_allowed_matching


class TestLayeredBfs:
    def test_optimal_matching_has_no_path(self, g4, m2):
        assert layered_bfs(flow_graph(g4, m2)) is None

    def test_gateway_route(self, g4, m1_free):
        fg = flow_graph(g4, m1_free)
        dag = layered_bfs(fg)
        assert dag is not None
        assert dag.dist_t == 5
        # s -> a.src -> b.dst -> b.src -> c.dst -> t: the freed member's
        # source copy starts the one path
        assert dag.dist[0] == 1
        assert dag.dist[5] == 2
        assert dag.dist[1] == 3
        assert dag.dist[6] == 4
        assert dag.useful[6] and dag.useful[0]
        assert dag.indeg[9] == 1

    def test_slack_route(self, g5, m3):
        fg = flow_graph(g5, m3)
        dag = layered_bfs(fg)
        assert dag is not None
        assert dag.dist_t == 4
        [family] = component_nodes(fg)
        assert dag.dist[family] == 3
        assert dag.indeg[family] == 3  # all three unmatched members feed it

    def test_chain_from_empty(self):
        g = chain(2)
        dag = layered_bfs(flow_graph(g, Matching(2)))
        assert dag is not None
        assert dag.dist_t == 3


class TestExtractPaths:
    def test_unique_gateway_path(self, g4, m1_free):
        dag = layered_bfs(flow_graph(g4, m1_free))
        assert extract_paths(dag) == [[8, 0, 5, 1, 6, 9]]

    def test_two_slack_paths(self, g5, m3):
        dag = layered_bfs(flow_graph(g5, m3))
        assert extract_paths(dag) == [[10, 3, 7, 12, 11], [10, 4, 8, 12, 11]]

    def test_chain_path(self):
        dag = layered_bfs(flow_graph(chain(2), Matching(2)))
        assert extract_paths(dag) == [[4, 0, 3, 5]]

    def test_single_corridor(self):
        fg = ExplicitFlow(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
        dag = layered_bfs(fg)
        assert dag.dist_t == 3
        assert extract_paths(dag) == [[0, 1, 2, 3]]

    def test_parallel_corridors(self):
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
        dag = layered_bfs(ExplicitFlow(6, edges, 0, 5))
        assert extract_paths(dag) == [[0, 1, 3, 5], [0, 2, 4, 5]]

    def test_shared_middle_blocks_second_path(self):
        edges = [
            (0, 1), (0, 2),
            (1, 3), (2, 3),
            (3, 4), (3, 5),
            (4, 6), (5, 6),
        ]
        dag = layered_bfs(ExplicitFlow(7, edges, 0, 6))
        assert extract_paths(dag) == [[0, 1, 3, 4, 6]]

    def test_lowest_id_traceback(self):
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
        dag = layered_bfs(ExplicitFlow(5, edges, 0, 4))
        assert extract_paths(dag) == [[0, 1, 3, 4]]

    def test_deterministic(self, g5, m3):
        fg = flow_graph(g5, m3)
        first = extract_paths(layered_bfs(fg))
        second = extract_paths(layered_bfs(fg))
        assert first == second

    def test_broken_dag_raises(self):
        # node 2 is useful, but its one in-neighbour a level down is dead
        fg = ExplicitFlow(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
        dag = LayeredDag(fg, [0, 1, 2, 3], 3, bytearray([1, 0, 1, 1]), [0, 0, 1, 1], 0)
        with pytest.raises(AssertionError, match="one level below node 2"):
            extract_paths(dag)


def _reach_sizes(size: int, edges, s: int, t: int) -> tuple[int, int]:
    """Nodes reachable from ``s`` and nodes that reach ``t`` over ``edges``."""
    out = [[] for _ in range(size)]
    into = [[] for _ in range(size)]
    for a, b in edges:
        out[a].append(b)
        into[b].append(a)
    sizes = []
    for start, adj in ((s, out), (t, into)):
        seen = {start}
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        sizes.append(len(seen))
    return sizes[0], sizes[1]


class TestTwoSidedSearch:
    def test_matches_forward_only_reference(self):
        # Every round of the loop, from a random allowed start (fully
        # matched sources, slack and swaps), solve's start or the greedy
        # one, on ER and PA graphs with and without forbidden vertices:
        # the search gives the forward-only reference's DAG and paths,
        # and None exactly when it does.  Its backward side costs at
        # most the forward side's work.
        rng = random.Random(61)
        closed = {"backward smaller": 0, "backward larger": 0}
        for i in range(3000):
            n = rng.randint(2, 30)
            if rng.random() < 0.5:
                g = erdos_renyi(n, rng.choice([1.0, 2.0, 3.0]) / n, rng)
            else:
                g = preferential(n, rng.randint(1, 3), rng)
            share = rng.choice([0.0, 0.3])
            if i % 3 == 0:
                m = random_matching(g, rng, rng.choice([0.5, 0.8, 1.0]))
                matched = [v for v in range(n) if m.mate_of_dst[v] >= 0]
                f = frozenset(rng.sample(matched, round(share * len(matched))))
            else:
                f = greedy_forbidden(g, share, rng)
                m = find_allowed_matching(g, f) if i % 3 == 1 else greedy_allowed_matching(g, f)
                if m is None:  # a source component is entirely forbidden
                    continue
            scc = scc_decompose(g)
            while True:
                fg = FlowGraph(g, scc, m, f, classify(scc, m))
                want, want_work = forward_layered_bfs(fg)
                got, work = augment._run_bfs(fg)
                assert work <= 2 * want_work
                if want is None:
                    assert got is None
                    if fg.t_in:
                        size, edges = reference_residual_edges(g, scc.comp_id, m, f)
                        fwd, back = _reach_sizes(size, edges, fg.s_id, fg.t_id)
                        if back != fwd:
                            closed["backward smaller" if back < fwd else "backward larger"] += 1
                    break
                assert got is not None
                assert (got.dist_t, got.dist, got.useful, got.indeg) == (
                    want.dist_t, want.dist, want.useful, want.indeg)
                paths = extract_paths(got)
                assert paths == extract_paths(want)
                augment_on_paths(m, paths)
        assert min(closed.values()) >= 20, closed


class TestEquivalenceSweep:
    def test_against_explicit_enumeration(self):
        # driven from the greedy start, which leaves more matchings with
        # an s -> t path to check than the package's start does, or half
        # the time from a random matching, whose families more often
        # carry two paths; shortest paths are enumerated on the residual
        # graph of the fixed network
        rng = random.Random(50)
        agreed_no_path = 0
        checked = 0
        for _ in range(400):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, rng.choice([0.2, 0.4]), rng)
            f = random_forbidden(n, 0.3, rng)
            m = greedy_allowed_matching(g, f)
            if m is None or rng.random() < 0.5:
                m = random_matching(g, rng, 0.6)
            fg = flow_graph(g, m, f)
            comp_of = scc_decompose(g).comp_id
            edges = reference_residual_edges(g, comp_of, m, f)[1]
            adj = [[] for _ in range(fg.view_size)]
            for a, b in sorted(edges):
                adj[a].append(b)
            # a family node, the component node feeding t, admits one
            # path fewer than its in-edges; every other node admits one
            indeg = Counter(b for _, b in edges)
            cap = {a: indeg[a] - 1 for a, b in edges if b == fg.t_id and a > fg.t_id}
            want_dist, every = all_shortest_paths(adj, fg.s_id, fg.t_id)
            dag = layered_bfs(fg)
            if dag is None:
                assert want_dist is None
                agreed_no_path += 1
                continue
            assert dag.dist_t == want_dist
            paths = extract_paths(dag)
            assert paths
            used: Counter[int] = Counter()
            for p in paths:
                assert p[0] == fg.s_id and p[-1] == fg.t_id
                assert len(p) == want_dist + 1
                for a, b in zip(p, p[1:]):
                    assert (a, b) in edges
                used.update(p[1:-1])
            assert all(k <= cap.get(x, 1) for x, k in used.items())
            # maximal: every shortest path must pass a saturated node
            for p in every:
                assert any(used[x] >= cap.get(x, 1) for x in p[1:-1])
            checked += 1
        assert checked > 20
        assert agreed_no_path > 100


class TestAugmentOnPaths:
    def test_gateway_golden(self, g4, m1_free, m2):
        got = augment_on_paths(m1_free.copy(), [[8, 0, 5, 1, 6, 9]])
        assert got == m2
        assert got.unmatched() == [0]

    def test_slack_golden(self, g5, m3):
        got = augment_on_paths(m3.copy(), [[10, 3, 7, 12, 11], [10, 4, 8, 12, 11]])
        assert got.edges() == [(1, 0), (2, 1), (3, 2), (4, 3)]
        assert classify(scc_decompose(g5), got).cost == 1

    def test_cycle_is_cost_neutral(self, g4, m2):
        scc = scc_decompose(g4)
        # a.dst -> comp0 -> b.dst -> a.src -> a.dst moves the free vertex
        got = augment_on_paths(m2.copy(), [[4, 10, 5, 0, 4]])
        assert got.edges() == [(0, 0), (1, 2), (2, 3)]
        assert classify(scc, got).cost == classify(scc, m2).cost == 1

    def test_empty_path_set(self, m1):
        before = m1.copy()
        assert augment_on_paths(m1, []) is m1
        assert m1 == before


class TestMinimize:
    def test_fixpoint(self, g4, m2):
        best, _, diag = minimize(g4, *network_start(scc_decompose(g4), [], m2))
        assert best == m2
        assert diag.iterations == 1
        assert diag.per_iteration[0].dist is None
        assert diag.per_iteration[0].paths == 0

    def test_gateway_golden(self, g4, m1, m2):
        # m1 leaves {a, b} fully matched: the start frees a, then one path
        scc = scc_decompose(g4)
        best, cls, diag = minimize(g4, *network_start(scc, [], m1), check=True)
        assert best == m2
        assert cls == classify(scc, best) and cls.cost == 1
        assert diag.iterations == 2
        assert diag.distances() == [5]
        assert [it.paths for it in diag.per_iteration] == [1, 0]
        assert m1.edges() == [(0, 0), (1, 1), (2, 3)]  # input untouched

    def test_slack_golden(self, g5, m3):
        scc = scc_decompose(g5)
        best, cls, diag = minimize(g5, *network_start(scc, [], m3), check=True)
        assert cls == classify(scc, best) and cls.cost == 1
        assert diag.distances() == [4]
        assert diag.per_iteration[0].paths == 2

    def test_diagonal_stops_immediately(self):
        g = diagonal(9)
        scc = scc_decompose(g)
        m = find_allowed_matching(g, [])
        best, cls, diag = minimize(g, *network_start(scc, [], m), check=True)
        assert cls == classify(scc, best) and cls.cost == 9
        assert diag.iterations == 1

    def test_self_loops_certify_without_search(self):
        # a self-loop on every vertex lets the start be a perfect matching,
        # so the one round stops at the lower bound and adds no BFS work
        er = erdos_renyi(300, 1.5 / 300, random.Random(52))
        g = SparseDigraph(300, sorted(set(er.edges()) | {(v, v) for v in range(300)}))
        scc = scc_decompose(g)
        m0 = find_allowed_matching(g, [])
        assert m0.size == 300 - len(scc.source_ids)
        fg = flow_graph(g, m0)
        res = solve(Problem(g))
        want = len(scc.source_ids)
        assert want > 1 and max(len(c) for c in scc.comps) > 1
        assert res.diagnostics.per_iteration == [IterationStats(None, 0, want, fg.build_work)]
        assert res.cost == want == assignment_min_inputs(g, [])

    def test_fully_forbidden_component_rejected(self, g4, m1):
        # m1 is allowed but leaves {a, b}, entirely forbidden, fully
        # matched: not a flow of N, so check mode rejects the start
        scc = scc_decompose(g4)
        with pytest.raises(AssertionError, match="source component 0 "):
            minimize(g4, scc, m1, frozenset([0, 1]), classify(scc, m1), check=True)

    def test_empty_graph(self):
        g = diagonal(0)
        best, cls, diag = minimize(g, *network_start(scc_decompose(g), [], Matching(0)))
        assert best.n == 0 and cls.cost == 0
        assert diag.iterations == 0 and diag.per_iteration == []

    def test_random_sweep_matches_oracle(self, monkeypatch):
        # Neither the package's start nor the greedy one ever leaves a
        # shortest path through a swap, so random allowed starts drive
        # the loop too.  ``swaps`` counts the paths that pass the node of
        # a component with one unmatched member.
        swaps = 0

        def counting_extract(dag):
            nonlocal swaps
            fg = dag.fg
            paths = extract_paths(dag)
            one_free = {fg.t_id + 1 + c for c in fg.scc.source_ids
                        if fg.cls.comp_unmatched[c] == 1}
            swaps += sum(not one_free.isdisjoint(p) for p in paths)
            return paths

        monkeypatch.setattr(augment, "extract_paths", counting_extract)

        def run(g, f, m0, want):
            scc = scc_decompose(g)
            best, cls, diag = minimize(g, *network_start(scc, f, m0), check=True)
            # the terminal round's classification is the optimum's
            assert cls == classify(scc, best) and cls.cost == want
            assert best.is_allowed(f)
            best.validate(g)
            dists = diag.distances()
            assert all(a < b for a, b in zip(dists, dists[1:]))
            assert all(d >= 3 for d in dists)
            assert diag.iterations <= int(6 * math.sqrt(g.n))

        rng = random.Random(51)
        solved = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            f = random_forbidden(n, 0.3, rng)
            m0 = find_allowed_matching(g, f)
            want = brute_force_min_cost_allowed_matching(g, f)
            if m0 is None:
                # no allowed matching, or a source component with no
                # allowed member to free
                scc = scc_decompose(g)
                assert want is None or any(set(scc.comps[c]) <= f for c in scc.source_ids)
                continue
            run(g, f, m0, want)
            solved += 1
        assert solved > 150

        rng = random.Random(53)
        solved = 0
        for _ in range(3000):
            n = rng.randint(8, 16)
            g = erdos_renyi(n, rng.choice([0.1, 0.15, 0.2]), rng)
            m0 = random_matching(g, rng, 0.8)
            matched = [v for v in range(n) if m0.mate_of_dst[v] >= 0]
            f = frozenset(rng.sample(matched, round(0.3 * len(matched))))
            want = assignment_min_inputs(g, f)
            if want is not None:
                run(g, f, m0, want)
                solved += 1
        assert solved > 2500
        assert swaps >= 5, swaps  # 11 at this seed

    def test_costs_drop_by_path_count(self, g5, m3):
        scc = scc_decompose(g5)
        _, _, diag = minimize(g5, *network_start(scc, [], m3))
        running = classify(scc, m3).cost
        for it in diag.per_iteration:
            running -= it.paths
            assert it.cost == running
