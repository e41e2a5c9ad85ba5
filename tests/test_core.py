import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, sparse_instance
from tradepost import Allocation, Instance, Rho, ces_welfare, utilities, utility

COMMON = dict(deadline=None, derandomize=True)


class TestInstance:
    def test_basic_construction(self):
        inst = Instance([1.0, 2.0], [{0, 1}, {1}])
        assert inst.n == 2
        assert inst.m == 2
        assert inst.desired[0] == {0, 1}
        assert np.array_equal(inst.weights, [[1.0, 1.0], [0.0, 1.0]])

    def test_weights_match_per_agent_rows(self):
        rng = np.random.default_rng(41)
        shapes = [(10, 10)] * 40 + [(1000, 200)]
        for n, m in shapes:
            inst = random_instance(rng, n, m) if n <= 10 else sparse_instance(rng, n, m)
            expected = np.zeros((inst.n, inst.m))
            for i, goods in enumerate(inst.desired):
                expected[i, sorted(goods)] = 1.0
            assert np.array_equal(inst.weights, expected)
            assert inst.weights.dtype == np.float64 and not inst.weights.flags.writeable

    def test_rejects_empty_desired_set(self):
        with pytest.raises(ValueError, match="at least one good"):
            Instance([1.0], [set(), {0}])

    def test_rejects_uncovered_good(self):
        with pytest.raises(ValueError, match="desired by no agent"):
            Instance([1.0, 1.0], [{0}, {0}])

    def test_rejects_nonpositive_supply(self):
        with pytest.raises(ValueError, match="positive"):
            Instance([0.0], [{0}])

    def test_rejects_out_of_range_good(self):
        with pytest.raises(ValueError, match="out of range"):
            Instance([1.0], [{0, 3}])

    @pytest.mark.parametrize(
        "desired, where",
        [
            ([[0.7, 1], [1.9]], "agent 0 desires good 0.7"),
            ([[0, 1], [1.0]], "agent 1 desires good 1.0"),
            ([[0, 1], [True]], "agent 1 desires good True"),
            ([[0, 1], ["1"]], "agent 1 desires good '1'"),
            ([[0, 1], [np.float64(1.0)]], "agent 1 desires good np.float64(1.0)"),
        ],
    )
    def test_rejects_non_integer_good(self, desired, where):
        with pytest.raises(TypeError, match=re.escape(where)):
            Instance([1.0, 2.0], desired)

    @pytest.mark.parametrize("supply", [True, "3", None, b"1", 1 + 0j])
    def test_rejects_non_real_supply(self, supply):
        with pytest.raises(TypeError, match="supply of good 1 must be a real number"):
            Instance([1.0, supply], [[0, 1]])

    def test_accepts_numpy_numbers(self):
        inst = Instance(np.array([1, 2.5]), [np.array([0, 1]), [np.int32(1)]])
        assert inst.supplies == (1.0, 2.5)
        assert inst.desired == (frozenset({0, 1}), frozenset({1}))
        assert all(type(j) is int for r in inst.desired for j in r)


class TestRho:
    def test_tags(self):
        assert Rho.maxmin().is_maxmin
        assert Rho.one().is_one
        assert Rho.finite(-2.0).is_finite
        assert Rho.nash().value == 0.0

    def test_finite_rejects_one_and_above(self):
        with pytest.raises(ValueError):
            Rho.finite(1.0)
        with pytest.raises(ValueError):
            Rho.finite(1.5)
        with pytest.raises(ValueError):
            Rho(2.0)

    def test_parse(self):
        assert Rho.parse("-inf").is_maxmin
        assert Rho.parse("1").is_one
        assert Rho.parse("-0.5").value == -0.5


class TestUtility:
    def test_min_over_desired(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {1}])
        assert utility(inst, 0, (0.3, 0.7)) == pytest.approx(0.3)

    def test_zero_desired_good(self):
        inst = Instance([5.0, 5.0, 1.0], [{2}, {0, 1}])
        assert utility(inst, 0, (5.0, 5.0, 0.0)) == 0.0

    def test_undesired_goods_ignored(self):
        inst = Instance([1.0, 100.0], [{0}, {1}])
        assert utility(inst, 0, (1.0, 99.0)) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        inst = Instance([1.0], [{0}])
        with pytest.raises(IndexError):
            utility(inst, 1, (0.5,))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_rejects_negative_and_nonfinite(self, bad):
        inst = Instance([1.0, 1.0], [{0, 1}])
        with pytest.raises(ValueError, match="bundle entries must be finite and nonnegative"):
            utility(inst, 0, (bad, 1.0))

    def test_utilities_matrix(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {1}])
        x = np.array([[0.2, 0.5], [0.0, 0.5]])
        assert np.allclose(utilities(inst, x), [0.2, 0.5])


class TestCesWelfare:
    def test_sum(self):
        assert ces_welfare(Rho.one(), [1.0, 1.0]) == pytest.approx(2.0)

    def test_symmetric_negative(self):
        assert ces_welfare(Rho.finite(-1.0), [1.0, 1.0]) == pytest.approx(0.5)

    def test_geometric_mean(self):
        assert ces_welfare(Rho.nash(), [1.0, 4.0]) == pytest.approx(2.0)

    def test_maxmin(self):
        assert ces_welfare(Rho.maxmin(), [0.2, 0.9]) == pytest.approx(0.2)

    def test_zero_with_negative_rho_is_zero(self):
        assert ces_welfare(Rho.finite(-2.0), [0.0, 1.0]) == 0.0
        assert ces_welfare(Rho.nash(), [0.0, 1.0]) == 0.0

    @settings(max_examples=200, **COMMON)
    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
        st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5]),
        st.randoms(use_true_random=False),
    )
    def test_symmetry(self, u, rv, rnd):
        rho = Rho.finite(rv)
        shuffled = list(u)
        rnd.shuffle(shuffled)
        assert ces_welfare(rho, shuffled) == pytest.approx(ces_welfare(rho, u), rel=1e-9)

    @settings(max_examples=200, **COMMON)
    @given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
        st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0]),
        st.integers(0, 5),
        st.floats(0.01, 2.0),
    )
    def test_monotone_in_each_coordinate(self, u, rv, idx, bump):
        rho = Rho.one() if rv == 1.0 else Rho.finite(rv)
        i = idx % len(u)
        bumped = list(u)
        bumped[i] += bump
        assert ces_welfare(rho, bumped) >= ces_welfare(rho, u) - 1e-12

    @settings(max_examples=200, **COMMON)
    @given(st.floats(0.01, 10.0), st.integers(1, 8), st.sampled_from([-2.0, -1.0, 0.5]))
    def test_equal_entries_closed_form(self, c, n, rv):
        u = [c] * n
        rho = Rho.finite(rv)
        assert ces_welfare(rho, u) == pytest.approx(n ** (1.0 / rv) * c, rel=1e-9)
        assert ces_welfare(Rho.nash(), u) == pytest.approx(c, rel=1e-9)
        assert ces_welfare(Rho.maxmin(), u) == pytest.approx(c, rel=1e-9)


class TestAllocation:
    def test_checked_accepts_feasible(self):
        inst = Instance([1.0, 2.0], [{0}, {1}])
        Allocation.checked(inst, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_checked_allows_tolerance(self):
        inst = Instance([1.0], [{0}])
        Allocation.checked(inst, np.array([[1.0 + 5e-10]]))

    def test_checked_rejects_oversubscription(self):
        inst = Instance([1.0], [{0}, {0}])
        with pytest.raises(ValueError, match="oversubscribed"):
            Allocation.checked(inst, np.array([[0.7], [0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Allocation(np.array([[-0.1]]))
