import random

import pytest

from families import chain, diagonal, erdos_renyi, random_forbidden
from minput import (
    BoundExceeded,
    IndexOutOfRange,
    SparseDigraph,
    brute_force_min_cost_allowed_matching,
    brute_force_min_input_set,
    check_structural_controllability,
    numeric_rank_spot_check,
)


class TestControllabilityCheck:
    def test_chain(self):
        g = chain(3)
        assert check_structural_controllability(g, [0])
        assert not check_structural_controllability(g, [1])
        assert not check_structural_controllability(g, [2])

    def test_four_vertex(self, g4):
        assert check_structural_controllability(g4, [1])
        assert not check_structural_controllability(g4, [3])
        assert not check_structural_controllability(g4, [])

    def test_needs_matching_not_just_reachability(self):
        # both leaves hang off one source: reachable, but rank deficient
        g = SparseDigraph(3, [(0, 1), (0, 2)])
        assert not check_structural_controllability(g, [0])
        assert check_structural_controllability(g, [0, 2])

    def test_diagonal(self):
        g = diagonal(2)
        assert check_structural_controllability(g, [0, 1])
        assert not check_structural_controllability(g, [0])

    def test_empty_instance(self):
        assert check_structural_controllability(SparseDigraph(0, []), [])

    def test_input_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            check_structural_controllability(chain(2), [2])

    def test_monotone_in_input_set(self):
        rng = random.Random(70)
        grown = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            g = erdos_renyi(n, 0.3, rng)
            base = [v for v in range(n) if rng.random() < 0.5]
            if not check_structural_controllability(g, base):
                continue
            extra = rng.randrange(n)
            assert check_structural_controllability(g, base + [extra])
            grown += 1
        assert grown > 30


class TestMinCostMatching:
    def test_four_vertex(self, g4):
        assert brute_force_min_cost_allowed_matching(g4, []) == 1
        assert brute_force_min_cost_allowed_matching(g4, [0]) == 1

    def test_star_unsatisfiable(self):
        g = SparseDigraph(3, [(0, 1), (0, 2)])
        assert brute_force_min_cost_allowed_matching(g, [1, 2]) is None

    def test_self_loop(self):
        g = SparseDigraph(1, [(0, 0)])
        assert brute_force_min_cost_allowed_matching(g, []) == 1
        assert brute_force_min_cost_allowed_matching(g, [0]) == 1

    def test_single_vertex_no_edges(self):
        g = SparseDigraph(1, [])
        assert brute_force_min_cost_allowed_matching(g, []) == 1
        assert brute_force_min_cost_allowed_matching(g, [0]) is None

    def test_size_cap(self):
        g = diagonal(11)
        with pytest.raises(BoundExceeded):
            brute_force_min_cost_allowed_matching(g, [])
        assert brute_force_min_cost_allowed_matching(g, [], max_n=11) == 11


class TestMinInputSet:
    def test_four_vertex(self, g4):
        assert brute_force_min_input_set(g4, []) == (1, [0])
        assert brute_force_min_input_set(g4, [0]) == (1, [1])

    def test_chain(self):
        assert brute_force_min_input_set(chain(3), []) == (1, [0])

    def test_diagonal(self):
        assert brute_force_min_input_set(diagonal(2), []) == (2, [0, 1])

    def test_unsolvable(self):
        assert brute_force_min_input_set(chain(2), [0]) is None

    def test_empty_instance(self):
        assert brute_force_min_input_set(SparseDigraph(0, []), []) == (0, [])

    def test_size_cap(self):
        with pytest.raises(BoundExceeded):
            brute_force_min_input_set(diagonal(7), [])
        assert brute_force_min_input_set(diagonal(7), [], max_n=7) is not None

    def test_witness_is_admissible_and_minimal(self):
        rng = random.Random(71)
        for _ in range(80):
            n = rng.randint(1, 5)
            g = erdos_renyi(n, 0.3, rng)
            f = random_forbidden(n, 0.3, rng)
            got = brute_force_min_input_set(g, f)
            if got is None:
                continue
            k, witness = got
            assert len(witness) == k
            assert not set(witness) & set(f)
            assert check_structural_controllability(g, witness)


class TestOracleAgreement:
    def test_matching_cost_equals_input_size_when_solvable(self):
        rng = random.Random(72)
        matched = 0
        for _ in range(250):
            n = rng.randint(1, 5)
            g = erdos_renyi(n, rng.choice([0.2, 0.4]), rng)
            f = random_forbidden(n, 0.3, rng)
            cost = brute_force_min_cost_allowed_matching(g, f)
            inputs = brute_force_min_input_set(g, f)
            if inputs is not None:
                assert cost == inputs[0]
                matched += 1
            if cost is None:
                assert inputs is None
        assert matched > 100


class TestNumericRank:
    def test_chain(self):
        g = chain(3)
        assert numeric_rank_spot_check(g, [0])
        assert not numeric_rank_spot_check(g, [1])

    def test_diagonal(self):
        g = diagonal(2)
        assert numeric_rank_spot_check(g, [0, 1])
        assert not numeric_rank_spot_check(g, [0])

    def test_empty_input_set(self):
        assert not numeric_rank_spot_check(chain(2), [])
        assert numeric_rank_spot_check(SparseDigraph(0, []), [])

    def test_deterministic_for_fixed_seed(self, g4):
        runs = {numeric_rank_spot_check(g4, [1], seed=3) for _ in range(3)}
        assert runs == {True}

    def test_agrees_with_combinatorial_check(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(1, 5)
            g = erdos_renyi(n, 0.35, rng)
            iset = sorted({rng.randrange(n) for _ in range(rng.randint(1, n))})
            want = check_structural_controllability(g, iset)
            assert numeric_rank_spot_check(g, iset, trials=5, seed=7) == want
