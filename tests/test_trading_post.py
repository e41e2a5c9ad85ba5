import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, sparse_instance
from tradepost import (
    TOL_BID,
    TOL_FEAS,
    BidMatrix,
    CurveFamily,
    InfeasibleBid,
    Instance,
    PowerCurve,
    atp_allocate,
    best_response,
    utilities,
)
from tradepost import trading_post
from tradepost.equilibrium import _random_row
from tradepost.trading_post import (
    _MIN_POSITIVE,
    _column_totals,
    _guard_band,
    _incumbent_utility,
    _local_utility,
    _max_target,
    _row_costs,
    _run_allocation_rule,
)

COMMON = dict(deadline=None, derandomize=True)


def _row(*cells):
    """A row written as in a bid file, as its ``(amounts, beta)`` arrays."""
    b = BidMatrix.from_lists([list(cells)])
    return b.amounts[0], b.beta[0]


def _ways_in(amounts, beta):
    """The two ways a row enters a matrix: the constructor, and ``replace_row`` on a matrix as wide."""
    m = len(amounts)
    base = BidMatrix(np.full((2, m), 0.25), np.zeros((2, m), dtype=bool))
    return [lambda: BidMatrix([amounts, amounts], [beta, beta]), lambda: base.replace_row(1, amounts, beta)]


class TestBid:
    """One cell is a positive amount, 0, or beta; the constructor and ``replace_row`` check cells alike."""

    def test_tags(self):
        b = BidMatrix.from_lists([[0.0, "beta", 0.5]])
        assert b.amounts.tolist() == [[0.0, 0.0, 0.5]]
        assert b.beta.tolist() == [[False, True, False]]
        for way_in in _ways_in([0.0, 0.0, 0.5], [False, True, False]):
            b = way_in()
            assert (b.amounts[1].tolist(), b.beta[1].tolist()) == ([0.0, 0.0, 0.5], [False, True, False])

    def test_tiny_positive_coerces_to_zero(self):
        amounts = [TOL_BID / 2, TOL_BID, TOL_BID * 10, -0.0]
        for way_in in _ways_in(amounts, [False] * 4):
            stored = way_in().amounts[1]
            assert stored.tolist() == [0.0, 0.0, TOL_BID * 10, 0.0]
            assert not np.signbit(stored).any()

    def test_negative_rejected(self):
        for bad in (-0.1, -TOL_BID / 2, math.nan, math.inf, -math.inf):
            for way_in in _ways_in([0.5, bad], [False, False]):
                with pytest.raises(ValueError, match="bid amounts must be finite and nonnegative"):
                    way_in()

    def test_beta_and_positive_rejected(self):
        for way_in in _ways_in([0.5, 0.25], [False, True]):
            with pytest.raises(ValueError, match="a bid cannot be both beta and positive"):
                way_in()

    def test_mismatched_shapes_rejected(self):
        for amounts, beta in [
            (np.zeros((2, 2)), np.zeros((2, 3), dtype=bool)),
            (np.zeros(2), np.zeros(2, dtype=bool)),
            (np.zeros((1, 2, 2)), np.zeros((1, 2, 2), dtype=bool)),
        ]:
            with pytest.raises(ValueError, match="matching 2-D arrays"):
                BidMatrix(amounts, beta)
        b = BidMatrix.from_lists([[0.5, 0.0, "beta"], [0.0, 2.0, 0.0]])
        for amounts, beta in [([0.0] * 2, [False] * 2), ([0.0] * 4, [False] * 4), ([0.0] * 3, [False] * 2)]:
            with pytest.raises(ValueError, match="row must have 3 entries"):
                b.replace_row(0, amounts, beta)


class TestBidMatrix:
    def test_round_trip_lists(self):
        rows = [[0.5, "beta"], [0.0, 1.0]]
        b = BidMatrix.from_lists(rows)
        data = b.to_lists()
        assert data == [[0.5, "beta"], [0.0, 1.0]]
        assert BidMatrix.from_lists(data) == b

    def test_bad_token(self):
        with pytest.raises(ValueError, match="unknown token"):
            BidMatrix.from_lists([["gamma"]])
        malformed = [
            ([[0.5, float("nan")]], "bids[0][1]"),
            ([[0.5], [float("inf")]], "bids[1][0]"),
            ([[0.5], [10**400]], "bids[1][0]"),
            ([[True, 0.5]], "bids[0][0]"),
            ([[0.5, None]], "bids[0][1]"),
            ([[0.5], [[0.5]]], "bids[1][0]"),
            ([[0.5, 0.5], [0.5]], "bids[1]"),
        ]
        for data, where in malformed:
            with pytest.raises(ValueError, match=re.escape(where + ":")):
                BidMatrix.from_lists(data)

    @pytest.mark.parametrize("data", [[], [1.0, 2.0], [None]])
    def test_not_a_matrix(self, data):
        with pytest.raises(ValueError, match="bids must be a nonempty 2-D array"):
            BidMatrix.from_lists(data)

    def test_replace_row(self):
        b = BidMatrix.from_lists([[0.5], [0.5]])
        b2 = b.replace_row(0, [0.0], [True])
        assert b2 == BidMatrix.from_lists([["beta"], [0.5]])
        assert b == BidMatrix.from_lists([[0.5], [0.5]])

    def test_replace_row_rejects_an_index_out_of_range(self):
        """A negative index would enter the copy's cached columns as a row of its own, above row 0."""
        inst, f = Instance([1.0, 1.0], [{0}, {0, 1}]), CurveFamily.linear(2)
        b = BidMatrix.from_lists([[0.5, 0.0], [0.5, 0.5]])
        columns = [b._column(j) for j in range(2)]
        for i in (-1, 2):
            with pytest.raises(IndexError, match="out of range"):
                b.replace_row(i, [0.25, 0.5], [False, False])
        assert [b._column(j) for j in range(2)] == columns
        b2 = b.replace_row(1, [0.25, 0.5], [False, False])
        assert [b2._column(j) for j in range(2)] == [BidMatrix(b2.amounts, b2.beta)._column(j) for j in range(2)]
        assert b2._column(0).total == 0.75
        assert best_response(inst, f, b2, 0)[1] == pytest.approx(0.8)
        assert _incumbent_utility(inst, b2, 0) == utilities(inst, atp_allocate(inst, f, b2))[0] == 0.5 / 0.75

    def test_replace_row_is_a_frozen_copy(self):
        rows = [[0.5, 0.0, "beta"], [0.0, 2.0, 0.0]]
        b = BidMatrix.from_lists(rows)
        new_row = ["beta", TOL_BID / 2, 0.25]
        b2 = b.replace_row(1, *_row(*new_row))
        assert b2 == BidMatrix.from_lists([rows[0], new_row])
        assert b == BidMatrix.from_lists(rows)
        for new, old in ((b2.amounts, b.amounts), (b2.beta, b.beta)):
            assert not np.shares_memory(new, old)
            assert not new.flags.writeable
        with pytest.raises(ValueError):
            b2.amounts[0, 0] = 1.0

    def test_in_place_play_matches_copies(self):
        """``_overwrite_row`` patches the caches it keeps; play on one matrix equals play on copies."""
        rng = np.random.default_rng(515)
        inst = sparse_instance(rng, 30, 8)
        f = CurveFamily.atp(-2.0, inst.m)
        copied = _profile_with_free_goods(rng, inst, f)
        owned = BidMatrix(copied.amounts, copied.beta)
        for _ in range(3):
            for i in range(inst.n):
                row, after = best_response(inst, f, owned, i)
                (amounts, beta), expected = best_response(inst, f, copied, i)
                assert np.array_equal(row[0], amounts) and np.array_equal(row[1], beta) and after == expected
                owned._overwrite_row(i, *row)
                copied = copied.replace_row(i, *row)
                assert owned == copied
        assert not owned.amounts.flags.writeable and not owned.beta.flags.writeable
        fresh = BidMatrix(owned.amounts, owned.beta)
        assert [owned._column(j) for j in range(inst.m)] == [fresh._column(j) for j in range(inst.m)]
        assert [owned._row(i) for i in range(inst.n)] == [fresh._row(i) for i in range(inst.n)]

    def test_replace_row_leaves_the_source_caches(self):
        rows = [[0.5, "beta"], [2.0, 0.0], [0.0, "beta"]]
        b = BidMatrix.from_lists(rows)
        before = [b._column(j) for j in range(2)] + [b._row(i) for i in range(3)]
        b2 = b.replace_row(1, *_row("beta", 0.25))
        assert b2._column(0) == BidMatrix(b2.amounts, b2.beta)._column(0)
        b2._overwrite_row(0, *_row(0.0, 1.0))
        assert [b._column(j) for j in range(2)] + [b._row(i) for i in range(3)] == before
        assert b == BidMatrix.from_lists(rows)
        new_rows = [[0.0, 1.0], ["beta", 0.25], rows[2]]
        assert b2 == BidMatrix.from_lists(new_rows)


class TestColumnTotals:
    """A column total is its cells added in row order; best responses rely on it to read single columns."""

    @pytest.mark.parametrize("n, m", [(40, 12), (200, 50), (1000, 200), (3000, 500)])
    def test_numpy_sums_columns_in_row_order(self, n, m):
        rng = np.random.default_rng([808, n, m])
        amounts = rng.random((n, m)) * (rng.random((n, m)) < 0.05)
        totals = _column_totals(amounts)
        assert np.array_equal(totals, amounts.sum(axis=0))
        bids = BidMatrix(amounts, np.zeros((n, m), dtype=bool))
        assert totals.tolist() == [bids._column(j).total for j in range(m)]

    def test_fortran_order_and_single_column_in_row_order(self):
        rng = np.random.default_rng(809)
        for shape in ((1000, 1), (200, 1), (9, 1), (200, 50)):
            amounts = rng.random(shape) * (rng.random(shape) < 0.5)
            expected = []
            for column in amounts.T.tolist():
                total = 0.0
                for v in column:
                    total += v
                expected.append(total)
            assert _column_totals(amounts).tolist() == expected
            assert _column_totals(np.asfortranarray(amounts)).tolist() == expected


class TestCurves:
    def test_power_curve_eval(self):
        c = PowerCurve(2.0, 2.0)
        assert c(0.0) == 0.0
        assert c(3.0) == pytest.approx(18.0)

    def test_zero_curve_rejected_as_constraint(self):
        f = CurveFamily([PowerCurve(0.0, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            f.require_constraint_curves()

    def test_atp_family(self):
        f = CurveFamily.atp(-1.0, 3)
        assert all(c.degree == 2.0 and c.coeff == 1.0 for c in f)
        with pytest.raises(ValueError):
            CurveFamily.atp(1.0, 2)

    def test_family_is_two_read_only_arrays(self):
        f = CurveFamily([PowerCurve(2.0, 3.0), PowerCurve(0.0, 1.0)])
        assert f.coeffs.tolist() == [2.0, 0.0] and f.degrees.tolist() == [3.0, 1.0]
        assert not f.coeffs.flags.writeable and not f.degrees.flags.writeable
        assert f[1] == PowerCurve(0.0, 1.0)
        assert list(f) == [PowerCurve(2.0, 3.0), PowerCurve(0.0, 1.0)]

    @pytest.mark.parametrize(
        "coeff, degree, message",
        [
            (-1.0, 1.0, "coefficient must be finite and nonnegative, got -1.0"),
            (math.inf, 1.0, "coefficient must be finite and nonnegative, got inf"),
            (1.0, 0.0, "degree must be positive, got 0.0"),
            (1.0, math.nan, "degree must be positive, got nan"),
        ],
    )
    def test_one_validity_rule(self, coeff, degree, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PowerCurve(coeff, degree)
        with pytest.raises(ValueError, match=re.escape(message)):
            CurveFamily._from_arrays(np.array([1.0, coeff]), np.array([1.0, degree]))

    def test_derived_family_checked(self):
        with pytest.raises(ValueError, match="degree must be positive, got inf"):
            CurveFamily.atp(-math.inf, 2)


class TestBidCost:
    def test_linear(self):
        f = CurveFamily.linear(2)
        assert f.cost([0.4, 0.6]) == pytest.approx(1.0)

    def test_beta_costs_nothing(self):
        f = CurveFamily([PowerCurve(1.0, 2.0)] * 3)
        amounts, _ = _row(0.5, "beta", 0.5)
        assert f.cost(amounts) == pytest.approx(0.5)

    def test_power_curve_cost(self):
        f = CurveFamily.atp(-1.0, 2)  # t^2
        assert f.cost([1.0, 0.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
    def test_rejects_negative_and_nonfinite(self, bad):
        # A NaN cell would cost nothing: only positive cells get a power term.
        with pytest.raises(ValueError, match="quantities must be finite and nonnegative"):
            CurveFamily.atp(0.0, 2).cost([bad, 0.0])

    def test_cost_rows_matches_elementwise_terms(self):
        """Each positive cell costs coeff * amount**degree, summed row-wise over the full row."""
        rng = np.random.default_rng(808)
        for _ in range(300):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            coeffs = rng.uniform(0.0, 3.0, m) * (rng.random(m) < 0.9)
            degrees = rng.choice([0.001, 0.5, 1.0, 2.0, 3.0, 51.0, float(rng.uniform(0.01, 5.0))], m)
            f = CurveFamily._from_arrays(coeffs, degrees)
            amounts = rng.uniform(0.0, 2.0, (n, m)) * (rng.random((n, m)) < 0.4)
            pos = amounts > 0
            expected = np.where(pos, coeffs * np.where(pos, amounts, 1.0) ** degrees, 0.0).sum(axis=1)
            assert np.array_equal(f.cost_rows(amounts), expected)


class TestAllocate:
    def test_proportional_rule(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_lists([[0.5], [0.5]])
        x = atp_allocate(inst, CurveFamily.linear(1), b)
        assert np.allclose(x.x, [[0.5], [0.5]])

    def test_beta_duplicates_first_positive_level(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {0}])
        b = BidMatrix.from_lists([[0.6, "beta"], [0.4, 0.0]])
        x = atp_allocate(inst, CurveFamily.linear(2), b)
        assert np.allclose(x.x, [[0.6, 0.6], [0.4, 0.0]])

    def test_penalty_zeroes_overclaiming_rows(self):
        inst = Instance([1.0, 0.5], [{0, 1}, {0, 1}])
        b = BidMatrix.from_lists([[0.5, "beta"], [0.5, "beta"]])
        x = atp_allocate(inst, CurveFamily.linear(2), b)
        assert np.allclose(x.x, 0.0)

    def test_zero_bidder_not_penalized(self):
        # Agent 1's beta claim (her step-1 level, 0.9) breaks good 1's
        # supply and zeroes her row; agent 0's plain zero carries no risk.
        inst = Instance([1.0, 0.5], [{0}, {0, 1}])
        b = BidMatrix.from_lists([[0.1, 0.0], [0.9, "beta"]])
        x = atp_allocate(inst, CurveFamily.linear(2), b)
        assert np.allclose(x.x[1], 0.0)
        assert x.x[0, 0] == pytest.approx(0.1)

    def test_beta_without_positive_anchor_gets_nothing(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_lists([["beta"], [1.0]])
        x = atp_allocate(inst, CurveFamily.linear(1), b)
        assert x.x[0, 0] == 0.0
        assert x.x[1, 0] == pytest.approx(1.0)

    def test_budget_violation_raises(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_lists([[1.5], [0.5]])
        with pytest.raises(InfeasibleBid) as err:
            atp_allocate(inst, CurveFamily.linear(1), b)
        assert err.value.agent == 0
        # The first over-budget agent is named, with its own cost, whatever follows it.
        inst = Instance([1.0], [{0}] * 4)
        b = BidMatrix.from_lists([[0.5], [1.25], [1.0], [2.0]])
        with pytest.raises(InfeasibleBid) as err:
            atp_allocate(inst, CurveFamily.linear(1), b)
        assert (err.value.agent, err.value.cost) == (1, 1.25)

    @settings(max_examples=200, **COMMON)
    @given(st.data())
    def test_paid_goods_clear_exactly(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        m = data.draw(st.integers(1, 3), label="m")
        supplies = [data.draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(m)]
        desired = [set(range(m)) for _ in range(n)]
        inst = Instance(supplies, desired)
        f = CurveFamily.linear(m)
        rows = []
        for _ in range(n):
            amounts = [data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])) for _ in range(m)]
            total = sum(amounts)
            if total > 1:
                amounts = [a / total for a in amounts]
            rows.append(amounts)
        bids = BidMatrix.from_lists(rows)
        x = atp_allocate(inst, f, bids)
        paid = bids.amounts.sum(axis=0) > 0
        totals = x.x.sum(axis=0)
        for j in range(m):
            if paid[j]:
                assert totals[j] == pytest.approx(supplies[j], rel=1e-12)

    @settings(max_examples=200, **COMMON)
    @given(
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
        st.floats(0.1, 8.0),
    )
    def test_scaling_one_column_preserves_shares(self, b1, b2, c):
        inst = Instance([1.0], [{0}, {0}])
        f = CurveFamily.linear(1)
        base = BidMatrix.from_lists([[b1], [b2]])
        scaled = BidMatrix.from_lists([[b1 * c], [b2 * c]])
        x1 = atp_allocate(inst, f, base)
        x2 = atp_allocate(inst, f, scaled, check_budgets=False)
        assert np.allclose(x1.x, x2.x, atol=1e-12)


class TestBestResponse:
    def test_shared_good_bisection(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_lists([[0.0], [1.0]])
        (amounts, beta), value = best_response(inst, CurveFamily.linear(1), b, 0)
        assert value == pytest.approx(0.5, abs=1e-6)
        assert amounts[0] == pytest.approx(1.0, abs=1e-5)
        assert not beta[0]

    def test_sole_bidder_takes_whole_supply(self):
        inst = Instance([2.0], [{0}])
        b = BidMatrix.from_lists([[0.0]])
        (amounts, _), value = best_response(inst, CurveFamily.linear(1), b, 0)
        assert value == pytest.approx(2.0, abs=1e-6)
        assert amounts[0] > 0

    def test_undesired_goods_get_zero(self):
        inst = Instance([1.0, 1.0], [{0}, {0, 1}])
        b = BidMatrix.from_lists([[0.5, 0.0], [0.5, 0.5]])
        (amounts, beta), _ = best_response(inst, CurveFamily.linear(2), b, 0)
        assert (amounts[1], beta[1]) == (0.0, False)

    def test_respects_budget(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {0, 1}])
        f = CurveFamily.atp(-1.0, 2)
        b = BidMatrix.from_lists([[0.7, 0.7], [0.7, 0.7]])
        (amounts, _), _ = best_response(inst, f, b, 0)
        assert f.cost(amounts) <= 1.0 + 1e-9

    def test_beta_claim_on_free_good(self):
        # Good 1 is unpriced and ample; the best response claims it with beta.
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        b = BidMatrix.from_lists([[0.5, 0.0], [0.5, 0.0]])
        (_, beta), value = best_response(inst, CurveFamily.linear(2), b, 0)
        assert beta[1]
        assert value == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_unsafe_beta_replaced_by_positive(self):
        # Both agents need scarce good 1 that nobody pays for; claiming it
        # with beta alongside the opponent's beta breaks the supply, so the
        # best response pays a token amount and takes it outright.
        inst = Instance([2.0, 1.0], [{0, 1}, {0, 1}])
        b = BidMatrix.from_lists([[1.0, 0.0], [1.0, "beta"]])
        (amounts, _), value = best_response(inst, CurveFamily.linear(2), b, 0)
        assert amounts[1] > 0
        assert value > 0.5

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        inst = Instance([1.0, 1.0], [{0, 1}, {0, 1}])
        b = BidMatrix.from_lists([[0.25, 0.25], [0.5, 0.5]])
        with pytest.raises(ValueError, match="tol_br"):
            best_response(inst, CurveFamily.linear(2), b, 0, tol_br=tol)

    @pytest.mark.parametrize("delta", [-1e-11, -2e-16, 0.0, 2e-16, 1e-11])
    def test_incumbent_budget_at_the_limit(self, delta):
        """An incumbent that beats every candidate stands exactly when ``cost_rows`` keeps it within budget."""
        inst = Instance([1.0, 1.0], [{0, 1}, {0, 1}])
        f = CurveFamily.linear(2)
        limit = 1.0 + TOL_FEAS
        rows = [[0.5, limit - 0.5 + delta], [0.5, 0.5]]
        b = BidMatrix.from_lists(rows)
        (amounts, beta), _ = best_response(inst, f, b, 0)
        stands = np.array_equal(amounts, b.amounts[0]) and np.array_equal(beta, b.beta[0])
        assert stands == (f.cost_rows(b.amounts[:1])[0] <= limit)

    def test_rejects_mismatched_matrix(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {0, 1}])
        b = BidMatrix.from_lists([[0.5], [0.5]])
        with pytest.raises(ValueError, match="shape"):
            best_response(inst, CurveFamily.linear(2), b, 0)

    def test_tolerance_below_float_spacing_ends(self):
        """No bracket gets within 1e-300; the bisection stops at the finest one it can split."""
        inst = Instance([1.0, 1.0], [{0, 1}, {0, 1}])
        b = BidMatrix.from_lists([[0.25, 0.25], [0.5, 0.5]])
        # Bidding t*0.5/(1-t) on both goods costs t/(1-t), so t = 1/2 uses the whole budget.
        _, value = best_response(inst, CurveFamily.linear(2), b, 0, tol_br=1e-300)
        assert value == pytest.approx(0.5, rel=1e-14)

    def test_overflowing_cost_is_unaffordable(self):
        # Degree 51 near the whole supply: the cost leaves float range and the target is out of budget.
        inst = Instance([1.0], [{0}, {0}])
        f = CurveFamily.atp(-50.0, 1)
        b = BidMatrix.from_lists([[0.0], [0.5]])
        row, value = best_response(inst, f, b, 0)
        assert value == utilities(inst, atp_allocate(inst, f, b.replace_row(0, *row)))[0]
        assert value == pytest.approx(2.0 / 3.0, rel=1e-7)

    @staticmethod
    def _rule_value(inst, f, b, i):
        """Agent ``i``'s best response value, checked against the rule's utility of its row and its budget."""
        row, value = best_response(inst, f, b, i)
        assert value == utilities(inst, atp_allocate(inst, f, b.replace_row(i, *row)))[i]
        assert f.cost(row[0]) <= 1.0 + TOL_FEAS
        return value

    def test_unaffordable_forced_bid_ends_the_search(self):
        # Both beta claims on good 1 (supply 0.5) break the step-3 band, so a positive bid is forced
        # there; its least amount, _MIN_POSITIVE, costs 20 * 1e-100**0.01 = 2, over the budget.
        inst = Instance([1.0, 0.5], [{0, 1}, {0, 1}])
        f = CurveFamily([PowerCurve(1.0, 1.0), PowerCurve(20.0, 0.01)])
        b = BidMatrix.from_lists([[0.0, 0.0], [0.5, "beta"]])
        assert self._rule_value(inst, f, b, 0) == 0.0

    def test_trimmed_beta_claim_is_forced_positive(self):
        # Both claims on good 1 add up to 1, within the step-3 band above its supply 1 - 1e-7: the
        # claim is trimmed, not penalized, and falls short of the target 2/3 by more than tol_br.
        inst = Instance([1.0, 1.0 - 1e-7], [{0, 1}, {0, 1}])
        f = CurveFamily.linear(2)
        b = BidMatrix.from_lists([[0.0, 0.0], [0.5, "beta"]])
        assert self._rule_value(inst, f, b, 0) == pytest.approx(2.0 / 3.0, rel=1e-7)

    def test_dropped_dust_bid_ends_the_search(self):
        # Opponents bid 2 on good 1, so the target t is about 1/3; the matching bid on good 0,
        # t * 1.5e-120 / (1 - t), is about 7.5e-121, below TOL_BID, and is dropped: no free good is
        # left to force, so the search ends and the incumbent row stands, with value 0.  A bid of
        # 1e-119 on good 0 would reach about 1/3; only the value's agreement with the rule is pinned.
        inst = Instance([1.0, 1.0], [{0, 1}] * 3)
        b = BidMatrix.from_lists([[0.0, 0.0], [1.5e-120, 1.0], [0.0, 1.0]])
        self._rule_value(inst, CurveFamily.linear(2), b, 0)


def _plain_bisection(paid_terms, fixed, hi, tol_t):
    """The bisection as it was before it could end on a bracket too narrow to split: the oracle.

    A cost beyond float range is beyond the budget, as in ``_affordable``.
    """
    lo, t_hi, t = 0.0, hi, hi
    while True:
        total = 0.0
        try:
            for B_j, s_j, coeff, degree in paid_terms:
                total += coeff * (t * B_j / (s_j - t)) ** degree
        except OverflowError:
            total = math.inf
        if total + fixed <= 1.0:
            lo = t
        else:
            t_hi = t
        if lo == hi or t_hi - lo <= tol_t:
            return lo
        t = 0.5 * (lo + t_hi)


class TestMaxTarget:
    """Wherever the loop without the split check ends, ``_max_target`` finds the same target."""

    @pytest.mark.parametrize("degree", [3.0, 1.0, 0.5, 0.1, 1e-3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_plain_bisection(self, k, degree):
        rng = np.random.default_rng([909, k, int(1 / degree)])
        seen = Counter()
        for case in range(160):
            s = rng.integers(1, 6, k).astype(float)
            coeffs = rng.uniform(0.2, 2.0, k)
            degrees = np.full(k, degree) if case % 2 else degree * rng.uniform(0.5, 2.0, k)
            fixed = 0.0 if case % 3 == 0 else float(rng.uniform(0.0, 0.9))
            cap = float(s.min()) if case % 5 else float(s.min()) * 0.5
            hi = cap * (1.0 - 1e-12)
            tol_t = (1e-8, 1e-6, 1e-12)[case % 3] * max(1.0, cap)
            B = rng.uniform(0.01, 3.0, k) * 10 ** rng.uniform(-2, 1, k)
            if case % 7 == 0:  # opponents bid almost nothing: hi is affordable
                B *= 1e-13
            elif case % 7 == 1 and case % 2:  # the budget runs out a hair below hi
                t = hi - 0.1 * tol_t * rng.random()
                x = t * B / (s - t)
                B *= ((1.0 - fixed) / float(np.sum(coeffs * x**degree))) ** (1.0 / degree)
            terms = list(zip(B.tolist(), s.tolist(), coeffs.tolist(), degrees.tolist()))
            expected = _plain_bisection(terms, fixed, hi, tol_t)
            assert _max_target(terms, fixed, hi, tol_t) == expected
            seen["hi affordable" if expected == hi else "bisected"] += 1
        assert seen["bisected"] >= 40 and seen["hi affordable"] >= 5, seen

    @pytest.mark.parametrize("ulps", [1.0, 2.0, 3.5])
    def test_tolerance_of_a_few_ulps(self, ulps):
        """At a tolerance of a few ulps of ``hi``, where the plain loop still ends, the target is the same."""
        rng = np.random.default_rng([911, int(2 * ulps)])
        for case in range(200):
            k = int(rng.integers(1, 5))
            s = rng.integers(1, 6, k).astype(float)
            degrees = rng.uniform(0.5, 2.0, k)
            fixed = 0.0 if case % 2 else float(rng.uniform(0.0, 0.9))
            hi = float(s.min()) * (1.0 - 1e-12)
            B = rng.uniform(0.01, 3.0, k) * 10 ** rng.uniform(-2, 1, k)
            terms = list(zip(B.tolist(), s.tolist(), rng.uniform(0.2, 2.0, k).tolist(), degrees.tolist()))
            tol_t = ulps * math.ulp(hi)
            assert _max_target(terms, fixed, hi, tol_t) == _plain_bisection(terms, fixed, hi, tol_t)

    #: Degrees 1 - rho of unit curves across rho in (-inf, 1), and None for free degrees in [0.01, 5].
    RHOS = [-50.0, -10.0, -2.0, 0.0, 0.5, 0.99, 0.999, None]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", range(len(RHOS)))
    def test_whole_domain(self, k, r):
        """Supplies 1e-4..1e4, opponent totals 1e-12..1e6, coefficients 1e-6..1e6, fixed costs up to 0.999."""
        rho = self.RHOS[r]
        rng = np.random.default_rng([917, k, r])
        seen = Counter()
        for case in range(150):
            s = 10 ** rng.uniform(-4, 4, k)
            B = 10 ** rng.uniform(-12, 6, k)
            coeffs = 10 ** rng.uniform(-6, 6, k) if case % 2 else np.ones(k)
            degrees = np.full(k, 1.0 - rho) if rho is not None else 10 ** rng.uniform(-2, math.log10(5), k)
            fixed = (0.0, 1e-100, float(rng.uniform(0.0, 0.999)))[case % 3]
            cap = float(s.min()) * (1.0 if case % 4 else float(rng.uniform(0.01, 1.0)))  # hi below the cap
            hi = cap * (1.0 - 1e-12)
            tol_t = 1e-8 * max(1.0, cap)
            terms = list(zip(B.tolist(), s.tolist(), coeffs.tolist(), degrees.tolist()))
            expected = _plain_bisection(terms, fixed, hi, tol_t)
            assert _max_target(terms, fixed, hi, tol_t) == expected
            if expected == hi:
                seen["hi affordable"] += 1
            else:
                seen["banded" if _guard_band(terms, fixed, hi) != (0.0, hi) else "no band"] += 1
        # Near rho = 1 the root often lies below the float range, where no band can be had.
        assert seen["banded"] + seen["no band"] >= 100 and seen["banded"] >= (3 if rho == 0.999 else 50), seen

    @pytest.mark.parametrize(
        "case, fixed, terms",
        [
            # A cost reaching 1 exactly leaves no budget: the estimate raises.
            ("no budget", 1.0, [(1.0, 2.0, 1.0, 3.0), (0.5, 4.0, 1.0, 3.0)]),
            # Degree 1e-3: good 0's budget bid underflows to 0 and the log cost with it.
            ("underflow", 0.5, [(1.0, 2.0, 1.0, 1e-3), (0.5, 4.0, 1.0, 1e-3)]),
        ],
    )
    def test_failed_estimate_runs_the_plain_loop(self, case, fixed, terms):
        hi = 2.0 * (1.0 - 1e-12)
        assert _guard_band(terms, fixed, hi) == (0.0, hi)
        assert _max_target(terms, fixed, hi, 1e-8 * hi) == _plain_bisection(terms, fixed, hi, 1e-8 * hi)

    @pytest.mark.parametrize(
        "wrong", ["raises OverflowError", "nan", "inf", "zero", "hi", "x(1+1e-6)", "x(1-1e-6)", "x3", "x1e-3"]
    )
    def test_any_estimate_gives_the_plain_target(self, monkeypatch, wrong):
        """However wrong the root estimate, the two guard evaluations keep the replay exact."""
        estimate = trading_post._root_estimate

        def off(paid_terms, fixed, hi):
            t = estimate(paid_terms, fixed, hi)
            if wrong == "raises OverflowError":
                raise OverflowError
            named = {"nan": math.nan, "inf": math.inf, "zero": 0.0, "hi": hi}
            if wrong in named:
                return named[wrong]
            return t * {"x(1+1e-6)": 1 + 1e-6, "x(1-1e-6)": 1 - 1e-6, "x3": 3.0, "x1e-3": 1e-3}[wrong]

        monkeypatch.setattr(trading_post, "_root_estimate", off)
        rng = np.random.default_rng([919, len(wrong)])
        for case in range(100):
            k = int(rng.integers(1, 5))
            s = 10 ** rng.uniform(-2, 2, k)
            B = 10 ** rng.uniform(-3, 3, k)
            degrees = 10 ** rng.uniform(-2, math.log10(5), k)
            fixed = float(rng.uniform(0.0, 0.9))
            hi = float(s.min()) * (1.0 - 1e-12)
            tol_t = 1e-8 * max(1.0, hi)
            terms = list(zip(B.tolist(), s.tolist(), np.ones(k).tolist(), degrees.tolist()))
            assert _max_target(terms, fixed, hi, tol_t) == _plain_bisection(terms, fixed, hi, tol_t)


class TestRowCosts:
    """The matrix's cached row costs equal one-row ``cost_rows`` calls bit for bit, and follow row changes."""

    def test_equal_one_row_costs(self):
        rng = np.random.default_rng(921)
        for _ in range(60):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            coeffs = rng.uniform(0.01, 3.0, m)
            degrees = rng.choice([0.001, 0.5, 1.0, 3.0, 51.0, float(rng.uniform(0.01, 5.0))], m)
            f = CurveFamily._from_arrays(coeffs, degrees)
            amounts = rng.uniform(0.0, 2.0, (n, m)) * (rng.random((n, m)) < 0.3)
            bids = BidMatrix(amounts, np.zeros((n, m), dtype=bool))
            costs = _row_costs(f, bids)
            assert np.array_equal(costs, [f.cost_rows(bids.amounts[i : i + 1])[0] for i in range(n)])
            assert _row_costs(f, bids) is costs
            assert not costs.flags.writeable
            g = CurveFamily.atp(0.0, m)
            assert np.array_equal(_row_costs(g, bids), g.cost_rows(bids.amounts))

    def test_follow_overwritten_and_replaced_rows(self):
        rng = np.random.default_rng(923)
        inst = sparse_instance(rng, 20, 6)
        f = CurveFamily.atp(-2.0, inst.m)
        bids = _profile_with_free_goods(rng, inst, f)
        _row_costs(f, bids)
        row = (bids.amounts[4] * 0.5, bids.beta[4].copy())
        replaced = bids.replace_row(4, *row)
        bids._overwrite_row(4, *row)
        for b in (bids, replaced):
            assert np.array_equal(_row_costs(f, b), f.cost_rows(b.amounts))


def test_allocation_is_deterministic():
    inst = Instance([1.0, 2.0, 0.5], [{0, 1}, {1, 2}, {0, 2}])
    f = CurveFamily.atp(0.0, 3)
    b = BidMatrix.from_lists([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]])
    x1 = atp_allocate(inst, f, b)
    x2 = atp_allocate(inst, f, b)
    assert np.array_equal(x1.x, x2.x)


def _random_profile(rng: np.random.Generator, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Amounts on some desired and undesired goods, zero columns, beta anywhere."""
    amounts = np.zeros((inst.n, inst.m))
    beta = np.zeros((inst.n, inst.m), dtype=bool)
    unpaid = rng.random(inst.m) < 0.4
    draw = rng.random((inst.n, inst.m))
    for i in range(inst.n):
        for j in range(inst.m):
            if draw[i, j] < 0.3:
                beta[i, j] = True
            elif not unpaid[j] and draw[i, j] < (0.8 if j in inst.desired[i] else 0.4):
                amounts[i, j] = rng.uniform(0.01, 1.0)
    return amounts, beta


def _step2_claims(inst: Instance, amounts: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per unpaid good, the summed step-1 level of its beta claimants."""
    col = amounts.sum(axis=0)
    shares = np.where(col > 0, amounts / np.where(col > 0, col, 1.0), 0.0) * inst.supply_array
    has_pos = amounts > 0
    level = np.where(has_pos.any(axis=1), shares[np.arange(inst.n), np.argmax(has_pos, axis=1)], 0.0)
    return np.where(col == 0, (beta * level[:, None]).sum(axis=0), 0.0)


def _row_utility(inst: Instance, bids: BidMatrix, i: int, amounts: np.ndarray, beta: np.ndarray):
    """``_local_utility`` of agent ``i`` with its row of ``bids`` set to these (amounts, beta) arrays."""
    goods = amounts.nonzero()[0].tolist()
    cells = dict(zip(goods, amounts[goods].tolist()))
    totals = {j: bids._column(j).total_with(i, cells.get(j, 0.0)) for j in inst.desired[i]}
    return _local_utility(inst, bids, i, cells, beta.nonzero()[0].tolist(), totals)


def _with_row(bids: BidMatrix, i: int, amounts: np.ndarray, beta: np.ndarray) -> BidMatrix:
    a, b = bids.amounts.copy(), bids.beta.copy()
    a[i], b[i] = amounts, beta
    return BidMatrix(a, b)


class TestRowUtility:
    """The single-row evaluator equals the full rule's utility bit for bit.

    Each agent is scored with its own row and with another row in its place,
    against ``atp_allocate`` on the profile that row makes; the over-claimed
    goods it reports are the rule's step-3 mask on the row's beta claims.
    """

    @staticmethod
    def _check(v: Instance, bids: BidMatrix, i: int, amounts: np.ndarray, beta: np.ndarray, seen: Counter) -> None:
        after = _with_row(bids, i, amounts, beta)
        expected = utilities(v, atp_allocate(v, CurveFamily.linear(v.m), after, check_budgets=False))[i]
        _, rule_over = _run_allocation_rule(v, after.amounts, after.beta, TOL_FEAS)
        got, over = _row_utility(v, bids, i, after.amounts[i], after.beta[i])
        assert got == expected
        assert over == set(np.flatnonzero(rule_over & after.beta[i]).tolist())
        claimed = (after.beta[i] & (_column_totals(after.amounts) == 0)).any()
        seen["penalty" if over else "slow" if claimed else "fast"] += 1

    def test_matches_full_rule(self):
        rng = np.random.default_rng(606)
        seen = Counter()
        for _ in range(400):
            inst = random_instance(rng, n_max=7, m_max=6)
            amounts, beta = _random_profile(rng, inst)
            others = _random_profile(rng, inst)
            claims = _step2_claims(inst, amounts, beta)
            # The same profile where every claimed free good is a hair short of
            # its claims (so step 3 trims it) or well short (so it penalizes).
            variants = [inst]
            for factor in (1.0 - 1e-9, 0.5):
                supplies = np.where(claims > 0, claims * factor, inst.supply_array)
                variants.append(Instance(supplies, inst.desired))
            for v in variants:
                bids = BidMatrix(amounts, beta)
                _, rule_over = _run_allocation_rule(v, bids.amounts, bids.beta, TOL_FEAS)
                seen["trim"] += int(((claims > v.supply_array) & ~rule_over).any())
                for i in range(v.n):
                    self._check(v, bids, i, amounts[i], beta[i], seen)
                    self._check(v, bids, i, others[0][i], others[1][i], seen)
        assert min(seen[k] for k in ("fast", "slow", "penalty", "trim")) >= 100, seen

    @pytest.mark.parametrize("n, m", [(40, 12), (200, 50)])
    def test_matches_full_rule_at_benchmark_shapes(self, n, m):
        """numpy's reduction order depends on the array shape, so check the benchmark's shapes too.

        Each agent is scored with its own row, also through
        ``_incumbent_utility``, and with a random row as ``deviation_sweep``
        draws them; the caches on the matrix are reused across agents, and the
        same matrix meets three instances.
        """
        rng = np.random.default_rng([606, n, m])
        seen = Counter()
        for _ in range(3):
            inst = sparse_instance(rng, n, m)
            f = CurveFamily.atp(-2.0, m)
            bids = _profile_with_free_goods(rng, inst, f)
            claims = _step2_claims(inst, bids.amounts, bids.beta)
            variants = [inst] + [
                Instance(np.where(claims > 0, claims * factor, inst.supply_array), inst.desired)
                for factor in (1.0 - 1e-9, 0.5)
            ]
            for v in variants:
                expected = utilities(v, atp_allocate(v, CurveFamily.linear(m), bids, check_budgets=False))
                for i in range(n):
                    self._check(v, bids, i, bids.amounts[i], bids.beta[i], seen)
                    assert _incumbent_utility(v, bids, i) == expected[i]
                    amounts, beta = _random_row(v, f, i, rng)
                    amounts[amounts <= TOL_BID] = 0.0
                    self._check(v, bids, i, amounts, beta, seen)
        assert min(seen[k] for k in ("fast", "slow", "penalty")) >= 10, seen


def _profile_with_free_goods(rng: np.random.Generator, inst: Instance, f: CurveFamily) -> BidMatrix:
    """Budget-feasible rows as ``tradepost dynamics`` starts them, with a third of the goods unpaid."""
    rows = [_random_row(inst, f, i, rng) for i in range(inst.n)]
    amounts = np.array([a for a, _ in rows])
    amounts[:, rng.random(inst.m) < 1 / 3] = 0.0
    return BidMatrix(amounts, np.array([b for _, b in rows]))


class TestBestResponseValue:
    """``best_response``'s value is the allocation rule's utility of the returned row, bit for bit."""

    @pytest.mark.parametrize("n, m, count", [(6, 4, 60), (40, 12, 4), (200, 50, 1)])
    def test_value_is_rule_utility(self, n, m, count):
        rng = np.random.default_rng([707, n, m])
        seen = Counter()
        for k in range(count):
            inst = sparse_instance(rng, n, m)
            f = CurveFamily.atp((-2.0, 0.0, 0.5)[k % 3], m)
            bids = _profile_with_free_goods(rng, inst, f)
            for i in range(n):
                row, value = best_response(inst, f, bids, i)
                after = bids.replace_row(i, *row)
                assert value == utilities(inst, atp_allocate(inst, f, after))[i]
                assert value == _incumbent_utility(inst, after, i)
                amounts, beta = row
                seen["beta"] += bool(beta.any())
                seen["forced"] += bool((amounts == _MIN_POSITIVE).any())
                seen["paid"] += bool((amounts > _MIN_POSITIVE).any())
        assert min(seen[k] for k in ("beta", "forced", "paid")) >= 20, seen

    def test_value_is_rule_utility_single_good(self):
        """With one good numpy sums a column pairwise; the rule and ``best_response`` both add rows in order."""
        rng = np.random.default_rng([707, 1])
        for k in range(24):
            n = int(rng.integers(9, 80))
            inst = Instance([float(rng.integers(1, 6))], [{0}] * n)
            f = CurveFamily.atp((-2.0, 0.0, 0.5)[k % 3], 1)
            amounts = rng.uniform(0.01, 1.0, (n, 1)) * (rng.random((n, 1)) < 0.8)
            bids = BidMatrix(amounts, np.zeros((n, 1), dtype=bool))
            for i in range(n):
                row, value = best_response(inst, f, bids, i)
                after = bids.replace_row(i, *row)
                assert value == utilities(inst, atp_allocate(inst, f, after))[i]
                assert value == _incumbent_utility(inst, after, i)


def _rough_profile(rng: np.random.Generator, inst: Instance, f: CurveFamily) -> BidMatrix:
    """Rows the profile generators never draw: some over budget, some with beta on undesired free goods."""
    bids = _profile_with_free_goods(rng, inst, f)
    amounts, beta = bids.amounts.copy(), bids.beta.copy()
    free = np.flatnonzero(amounts.sum(axis=0) == 0)
    for i in range(inst.n):
        if rng.random() < 0.25:
            amounts[i] *= rng.uniform(1.5, 4.0)
        for j in free:
            if j not in inst.desired[i] and rng.random() < 0.3:
                beta[i, j] = True
    return BidMatrix(amounts, beta)


class TestRoughProfiles:
    """Values on over-budget rows and on beta claims on undesired goods, some of them over-claimed."""

    @pytest.mark.parametrize("n, m, count", [(8, 5, 40), (40, 12, 4), (200, 50, 1)])
    def test_values_are_rule_utilities(self, n, m, count):
        rng = np.random.default_rng([717, n, m])
        seen = Counter()
        for k in range(count):
            inst = sparse_instance(rng, n, m)
            f = CurveFamily.atp((-2.0, 0.0, 0.5)[k % 3], m)
            bids = _rough_profile(rng, inst, f)
            claims = _step2_claims(inst, bids.amounts, bids.beta)
            variants = [inst] + [
                Instance(np.where(claims > 0, claims * factor, inst.supply_array), inst.desired)
                for factor in (1.0 - 1e-9, 0.5)
            ]
            over_budget = f.cost_rows(bids.amounts) > 1.0 + TOL_FEAS
            for v in variants:
                expected = utilities(v, atp_allocate(v, f, bids, check_budgets=False))
                _, over = _run_allocation_rule(v, bids.amounts, bids.beta, TOL_FEAS)
                for i in range(n):
                    assert _incumbent_utility(v, bids, i) == expected[i]
                    row, value = best_response(v, f, bids, i)
                    after = bids.replace_row(i, *row)
                    assert value == utilities(v, atp_allocate(v, f, after, check_budgets=False))[i]
                    undesired = [j for j in np.flatnonzero(bids.beta[i] & (claims > 0)) if j not in v.desired[i]]
                    seen["over budget"] += bool(over_budget[i])
                    seen["undesired claim"] += bool(undesired)
                    seen["penalized by an undesired claim"] += any(over[j] for j in undesired)
        assert min(seen.values()) >= 5 and len(seen) == 3, seen
