import math
import random

from bruteforce import ExplicitFlow, all_shortest_paths, assignment_min_inputs, flow_graph
from families import chain, diagonal, erdos_renyi, random_forbidden
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
from minput.augment import minimize
from minput.matching import Matching, classify
from minput.oracle import brute_force_min_cost_allowed_matching


class TestLayeredBfs:
    def test_optimal_matching_has_no_path(self, g4, m2):
        assert layered_bfs(flow_graph(g4, m2)) is None

    def test_gateway_route(self, g4, m1):
        dag = layered_bfs(flow_graph(g4, m1))
        assert dag is not None
        assert dag.dist_t == 5
        # s -> gate1 -> b.dst -> b.src -> c.dst -> t
        assert dag.dist[10] == 1
        assert dag.dist[5] == 2
        assert dag.dist[1] == 3
        assert dag.dist[6] == 4
        assert dag.useful[6] and dag.useful[10]
        assert dag.indeg[9] == 1

    def test_slack_route(self, g5, m3):
        fg = flow_graph(g5, m3)
        dag = layered_bfs(fg)
        assert dag is not None
        assert dag.dist_t == 4
        token = fg.aux_base
        assert dag.dist[token] == 3
        assert dag.indeg[token] == 3  # all three unmatched members feed it

    def test_chain_from_empty(self):
        g = chain(2)
        dag = layered_bfs(flow_graph(g, Matching(2)))
        assert dag is not None
        assert dag.dist_t == 3


class TestExtractPaths:
    def test_unique_gateway_path(self, g4, m1):
        dag = layered_bfs(flow_graph(g4, m1))
        assert extract_paths(dag) == [[8, 10, 5, 1, 6, 9]]

    def test_two_slack_paths(self, g5, m3):
        dag = layered_bfs(flow_graph(g5, m3))
        assert extract_paths(dag) == [[10, 3, 7, 12, 11], [10, 4, 8, 13, 11]]

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


class TestEquivalenceSweep:
    def test_against_explicit_enumeration(self):
        rng = random.Random(50)
        agreed_no_path = 0
        checked = 0
        for _ in range(400):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, rng.choice([0.2, 0.4]), rng)
            f = random_forbidden(n, 0.3, rng)
            m = find_allowed_matching(g, f)
            if m is None:
                continue
            fg = flow_graph(g, m, f)
            size = fg.node_count()
            edges = fg.explicit_edges()
            adj = [[] for _ in range(size)]
            for a, b in edges:
                adj[a].append(b)
            want_dist, every = all_shortest_paths(adj, fg.s_id, fg.t_id)
            dag = layered_bfs(fg)
            if dag is None:
                assert want_dist is None
                agreed_no_path += 1
                continue
            assert dag.dist_t == want_dist
            paths = extract_paths(dag)
            assert paths
            edge_set = set(edges)
            interiors: set[int] = set()
            for p in paths:
                assert p[0] == fg.s_id and p[-1] == fg.t_id
                assert len(p) == want_dist + 1
                for a, b in zip(p, p[1:]):
                    assert (a, b) in edge_set
                inner = set(p[1:-1])
                assert interiors.isdisjoint(inner)
                interiors |= inner
            # maximal: every shortest path must collide with a used vertex
            for p in every:
                assert not interiors.isdisjoint(p[1:-1])
            checked += 1
        assert checked > 20
        assert agreed_no_path > 100


class TestAugmentOnPaths:
    def test_gateway_golden(self, g4, m1):
        got = augment_on_paths(m1.copy(), [[8, 10, 5, 1, 6, 9]])
        assert got.edges() == [(0, 0), (1, 2), (2, 3)]
        assert got.unmatched() == [1]

    def test_slack_golden(self, g5, m3):
        got = augment_on_paths(m3.copy(), [[10, 3, 7, 12, 11], [10, 4, 8, 13, 11]])
        assert got.edges() == [(1, 0), (2, 1), (3, 2), (4, 3)]
        assert classify(scc_decompose(g5), got).cost == 1

    def test_cycle_is_cost_neutral(self, g4, m2):
        scc = scc_decompose(g4)
        got = augment_on_paths(m2.copy(), [[4, 5, 0, 4]])
        assert got.edges() == [(0, 0), (1, 2), (2, 3)]
        assert classify(scc, got).cost == classify(scc, m2).cost == 1

    def test_empty_path_set(self, m1):
        before = m1.copy()
        assert augment_on_paths(m1, []) is m1
        assert m1 == before


class TestMinimize:
    def test_fixpoint(self, g4, m2):
        best, _, diag = minimize(g4, scc_decompose(g4), [], m2)
        assert best == m2
        assert diag.iterations == 1
        assert diag.per_iteration[0].dist is None
        assert diag.per_iteration[0].paths == 0

    def test_gateway_golden(self, g4, m1):
        scc = scc_decompose(g4)
        best, cls, diag = minimize(g4, scc, [], m1, check=True)
        assert best.edges() == [(0, 0), (1, 2), (2, 3)]
        assert cls == classify(scc, best) and cls.cost == 1
        assert diag.iterations == 2
        assert diag.distances() == [5]
        assert [it.paths for it in diag.per_iteration] == [1, 0]
        assert m1.edges() == [(0, 0), (1, 1), (2, 3)]  # input untouched

    def test_slack_golden(self, g5, m3):
        scc = scc_decompose(g5)
        best, cls, diag = minimize(g5, scc, [], m3, check=True)
        assert cls == classify(scc, best) and cls.cost == 1
        assert diag.distances() == [4]
        assert diag.per_iteration[0].paths == 2

    def test_diagonal_stops_immediately(self):
        g = diagonal(9)
        scc = scc_decompose(g)
        m = find_allowed_matching(g, [])
        best, cls, diag = minimize(g, scc, [], m, check=True)
        assert cls == classify(scc, best) and cls.cost == 9
        assert diag.iterations == 1

    def test_self_loops_certify_without_search(self):
        # a self-loop on every vertex lets the start be a perfect matching,
        # so the one round stops at the lower bound and adds no BFS work
        er = erdos_renyi(300, 1.5 / 300, random.Random(52))
        g = SparseDigraph(300, sorted(set(er.edges()) | {(v, v) for v in range(300)}))
        scc = scc_decompose(g)
        m0 = find_allowed_matching(g, [])
        assert m0.size == 300
        fg = flow_graph(g, m0)
        res = solve(Problem(g))
        want = len(scc.source_ids)
        assert want > 1 and max(len(c) for c in scc.comps) > 1
        assert res.diagnostics.per_iteration == [IterationStats(None, 0, want, fg.build_work)]
        assert res.cost == want == assignment_min_inputs(g, [])

    def test_empty_graph(self):
        g = diagonal(0)
        best, cls, diag = minimize(g, scc_decompose(g), [], Matching(0))
        assert best.n == 0 and cls.cost == 0
        assert diag.iterations == 0 and diag.per_iteration == []

    def test_random_sweep_matches_oracle(self):
        rng = random.Random(51)
        solved = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            g = erdos_renyi(n, rng.choice([0.15, 0.3, 0.5]), rng)
            f = random_forbidden(n, 0.3, rng)
            m0 = find_allowed_matching(g, f)
            want = brute_force_min_cost_allowed_matching(g, f)
            if m0 is None:
                assert want is None
                continue
            scc = scc_decompose(g)
            best, cls, diag = minimize(g, scc, f, m0, check=True)
            # the terminal round's classification is the optimum's
            assert cls == classify(scc, best) and cls.cost == want
            assert best.is_allowed(f)
            best.validate(g)
            dists = diag.distances()
            assert all(a < b for a, b in zip(dists, dists[1:]))
            assert all(d >= 3 for d in dists)
            assert diag.iterations <= int(6 * math.sqrt(n))
            solved += 1
        assert solved > 150

    def test_costs_drop_by_path_count(self, g5, m3):
        scc = scc_decompose(g5)
        _, _, diag = minimize(g5, scc, [], m3)
        running = classify(scc, m3).cost
        for it in diag.per_iteration:
            running -= it.paths
            assert it.cost == running
