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
    Bid,
    BidMatrix,
    CurveFamily,
    InfeasibleBid,
    Instance,
    PowerCurve,
    atp_allocate,
    best_response,
    bid_cost,
    utilities,
)
from tradepost.equilibrium import _random_row
from tradepost.trading_post import _MIN_POSITIVE, _incumbent_utility, _row_utility, _run_allocation_rule

COMMON = dict(deadline=None, derandomize=True)


class TestBid:
    def test_tags(self):
        assert Bid.zero().is_zero
        assert Bid.beta().is_beta
        assert Bid.positive(0.5).is_positive

    def test_tiny_positive_coerces_to_zero(self):
        assert Bid.positive(TOL_BID / 2).is_zero
        assert Bid.positive(TOL_BID * 10).is_positive

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Bid.positive(-0.1)


class TestBidMatrix:
    def test_round_trip_lists(self):
        rows = [[Bid.positive(0.5), Bid.beta()], [Bid.zero(), Bid.positive(1.0)]]
        b = BidMatrix.from_rows(rows)
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

    def test_replace_row(self):
        b = BidMatrix.from_rows([[Bid.positive(0.5)], [Bid.positive(0.5)]])
        b2 = b.replace_row(0, [Bid.beta()])
        assert b2.bid(0, 0).is_beta
        assert b.bid(0, 0).is_positive

    def test_replace_row_is_a_frozen_copy(self):
        rows = [[Bid.positive(0.5), Bid.zero(), Bid.beta()], [Bid.zero(), Bid.positive(2.0), Bid.zero()]]
        b = BidMatrix.from_rows(rows)
        new_row = (Bid.beta(), Bid.positive(TOL_BID / 2), Bid.positive(0.25))
        b2 = b.replace_row(1, new_row)
        assert b2 == BidMatrix.from_rows([rows[0], new_row])
        assert b == BidMatrix.from_rows(rows)
        for new, old in ((b2.amounts, b.amounts), (b2.beta, b.beta)):
            assert not np.shares_memory(new, old)
            assert not new.flags.writeable
        with pytest.raises(ValueError):
            b2.amounts[0, 0] = 1.0
        for bad in ([Bid.zero()] * 2, [Bid.zero()] * 4):
            with pytest.raises(ValueError, match="row must have 3 entries"):
                b.replace_row(0, bad)


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
        assert bid_cost(f, [Bid.positive(0.4), Bid.positive(0.6)]) == pytest.approx(1.0)

    def test_beta_costs_nothing(self):
        f = CurveFamily([PowerCurve(1.0, 2.0)] * 3)
        cost = bid_cost(f, [Bid.positive(0.5), Bid.beta(), Bid.positive(0.5)])
        assert cost == pytest.approx(0.5)

    def test_power_curve_cost(self):
        f = CurveFamily.atp(-1.0, 2)  # t^2
        assert bid_cost(f, [Bid.positive(1.0), Bid.zero()]) == pytest.approx(1.0)

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
        b = BidMatrix.from_rows([[Bid.positive(0.5)], [Bid.positive(0.5)]])
        x = atp_allocate(inst, CurveFamily.linear(1), b)
        assert np.allclose(x.x, [[0.5], [0.5]])

    def test_beta_duplicates_first_positive_level(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {0}])
        b = BidMatrix.from_rows(
            [[Bid.positive(0.6), Bid.beta()], [Bid.positive(0.4), Bid.zero()]]
        )
        x = atp_allocate(inst, CurveFamily.linear(2), b)
        assert np.allclose(x.x, [[0.6, 0.6], [0.4, 0.0]])

    def test_penalty_zeroes_overclaiming_rows(self):
        inst = Instance([1.0, 0.5], [{0, 1}, {0, 1}])
        b = BidMatrix.from_rows(
            [[Bid.positive(0.5), Bid.beta()], [Bid.positive(0.5), Bid.beta()]]
        )
        x = atp_allocate(inst, CurveFamily.linear(2), b)
        assert np.allclose(x.x, 0.0)

    def test_zero_bidder_not_penalized(self):
        # Agent 1's beta claim (her step-1 level, 0.9) breaks good 1's
        # supply and zeroes her row; agent 0's plain zero carries no risk.
        inst = Instance([1.0, 0.5], [{0}, {0, 1}])
        b = BidMatrix.from_rows(
            [[Bid.positive(0.1), Bid.zero()], [Bid.positive(0.9), Bid.beta()]]
        )
        x = atp_allocate(inst, CurveFamily.linear(2), b)
        assert np.allclose(x.x[1], 0.0)
        assert x.x[0, 0] == pytest.approx(0.1)

    def test_beta_without_positive_anchor_gets_nothing(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_rows([[Bid.beta()], [Bid.positive(1.0)]])
        x = atp_allocate(inst, CurveFamily.linear(1), b)
        assert x.x[0, 0] == 0.0
        assert x.x[1, 0] == pytest.approx(1.0)

    def test_budget_violation_raises(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_rows([[Bid.positive(1.5)], [Bid.positive(0.5)]])
        with pytest.raises(InfeasibleBid) as err:
            atp_allocate(inst, CurveFamily.linear(1), b)
        assert err.value.agent == 0

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
            rows.append([Bid.positive(a) if a > 0 else Bid.zero() for a in amounts])
        bids = BidMatrix.from_rows(rows)
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
        base = BidMatrix.from_rows([[Bid.positive(b1)], [Bid.positive(b2)]])
        scaled = BidMatrix.from_rows([[Bid.positive(b1 * c)], [Bid.positive(b2 * c)]])
        x1 = atp_allocate(inst, f, base)
        x2 = atp_allocate(inst, f, scaled, check_budgets=False)
        assert np.allclose(x1.x, x2.x, atol=1e-12)


class TestBestResponse:
    def test_shared_good_bisection(self):
        inst = Instance([1.0], [{0}, {0}])
        b = BidMatrix.from_rows([[Bid.zero()], [Bid.positive(1.0)]])
        row, value = best_response(inst, CurveFamily.linear(1), b, 0)
        assert value == pytest.approx(0.5, abs=1e-6)
        assert row[0].is_positive
        assert row[0].amount == pytest.approx(1.0, abs=1e-5)

    def test_sole_bidder_takes_whole_supply(self):
        inst = Instance([2.0], [{0}])
        b = BidMatrix.from_rows([[Bid.zero()]])
        row, value = best_response(inst, CurveFamily.linear(1), b, 0)
        assert value == pytest.approx(2.0, abs=1e-6)
        assert row[0].is_positive

    def test_undesired_goods_get_zero(self):
        inst = Instance([1.0, 1.0], [{0}, {0, 1}])
        b = BidMatrix.from_rows(
            [[Bid.positive(0.5), Bid.zero()], [Bid.positive(0.5), Bid.positive(0.5)]]
        )
        row, _ = best_response(inst, CurveFamily.linear(2), b, 0)
        assert row[1].is_zero

    def test_respects_budget(self):
        inst = Instance([1.0, 1.0], [{0, 1}, {0, 1}])
        f = CurveFamily.atp(-1.0, 2)
        b = BidMatrix.from_rows(
            [
                [Bid.positive(0.7), Bid.positive(0.7)],
                [Bid.positive(0.7), Bid.positive(0.7)],
            ]
        )
        row, _ = best_response(inst, f, b, 0)
        assert bid_cost(f, row) <= 1.0 + 1e-9

    def test_beta_claim_on_free_good(self):
        # Good 1 is unpriced and ample; the best response claims it with beta.
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        b = BidMatrix.from_rows(
            [[Bid.positive(0.5), Bid.zero()], [Bid.positive(0.5), Bid.zero()]]
        )
        row, value = best_response(inst, CurveFamily.linear(2), b, 0)
        assert row[1].is_beta
        assert value == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_unsafe_beta_replaced_by_positive(self):
        # Both agents need scarce good 1 that nobody pays for; claiming it
        # with beta alongside the opponent's beta breaks the supply, so the
        # best response pays a token amount and takes it outright.
        inst = Instance([2.0, 1.0], [{0, 1}, {0, 1}])
        b = BidMatrix.from_rows(
            [[Bid.positive(1.0), Bid.zero()], [Bid.positive(1.0), Bid.beta()]]
        )
        row, value = best_response(inst, CurveFamily.linear(2), b, 0)
        assert row[1].is_positive
        assert value > 0.5


def test_allocation_is_deterministic():
    inst = Instance([1.0, 2.0, 0.5], [{0, 1}, {1, 2}, {0, 2}])
    f = CurveFamily.atp(0.0, 3)
    b = BidMatrix.from_rows(
        [
            [Bid.positive(0.5), Bid.positive(0.5), Bid.zero()],
            [Bid.zero(), Bid.positive(0.3), Bid.positive(0.7)],
            [Bid.positive(0.2), Bid.zero(), Bid.positive(0.8)],
        ]
    )
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


class TestRowUtility:
    """The single-row evaluator equals the full rule's utility bit for bit."""

    def test_matches_full_rule(self):
        rng = np.random.default_rng(606)
        seen = Counter()
        for _ in range(400):
            inst = random_instance(rng, n_max=7, m_max=6)
            amounts, beta = _random_profile(rng, inst)
            claims = _step2_claims(inst, amounts, beta)
            # The same profile where every claimed free good is a hair short of
            # its claims (so step 3 trims it) or well short (so it penalizes).
            variants = [inst]
            for factor in (1.0 - 1e-9, 0.5):
                supplies = np.where(claims > 0, claims * factor, inst.supply_array)
                variants.append(Instance(supplies, inst.desired))
            for v in variants:
                bids = BidMatrix(amounts, beta)
                x = atp_allocate(v, CurveFamily.linear(v.m), bids, check_budgets=False)
                _, rule_over = _run_allocation_rule(v, bids.amounts, bids.beta, TOL_FEAS)
                expected = utilities(v, x)
                trimmed = (claims > v.supply_array) & ~rule_over
                seen["trim"] += int(trimmed.any())
                for i in range(v.n):
                    got, over = _row_utility(v, bids.amounts, bids.beta, i)
                    assert got == expected[i]
                    if over is None:
                        seen["fast"] += 1
                    else:
                        assert np.array_equal(over, rule_over)
                        seen["penalty" if (over & bids.beta[i]).any() else "slow"] += 1
        assert min(seen[k] for k in ("fast", "slow", "penalty", "trim")) >= 100, seen

    @pytest.mark.parametrize("n, m", [(40, 12), (200, 50)])
    def test_matches_full_rule_at_benchmark_shapes(self, n, m):
        """numpy's reduction order depends on the array shape, so check the benchmark's shapes too.

        Each profile is checked through ``_row_utility`` and through
        ``_incumbent_utility``, which reuses the column totals and full-rule
        utilities cached on the matrix; the same matrix meets three instances.
        """
        rng = np.random.default_rng([606, n, m])
        seen = Counter()
        for _ in range(3):
            inst = sparse_instance(rng, n, m)
            bids = _profile_with_free_goods(rng, inst, CurveFamily.atp(-2.0, m))
            claims = _step2_claims(inst, bids.amounts, bids.beta)
            variants = [inst] + [
                Instance(np.where(claims > 0, claims * factor, inst.supply_array), inst.desired)
                for factor in (1.0 - 1e-9, 0.5)
            ]
            for v in variants:
                expected = utilities(v, atp_allocate(v, CurveFamily.linear(m), bids, check_budgets=False))
                for i in range(n):
                    got, over = _row_utility(v, bids.amounts, bids.beta, i)
                    assert got == expected[i]
                    assert _incumbent_utility(v, bids, i) == expected[i]
                    seen["fast" if over is None else "penalty" if (over & bids.beta[i]).any() else "slow"] += 1
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
                after = bids.replace_row(i, row)
                assert value == utilities(inst, atp_allocate(inst, f, after))[i]
                assert value == _incumbent_utility(inst, after, i)
                seen["beta"] += any(b.is_beta for b in row)
                seen["forced"] += any(b.amount == _MIN_POSITIVE for b in row)
                seen["paid"] += any(b.amount > _MIN_POSITIVE for b in row)
        assert min(seen[k] for k in ("beta", "forced", "paid")) >= 20, seen
