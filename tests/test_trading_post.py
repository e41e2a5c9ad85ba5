import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradepost import (
    TOL_BID,
    Bid,
    BidMatrix,
    CurveFamily,
    InfeasibleBid,
    Instance,
    PowerCurve,
    atp_allocate,
    best_response,
    bid_cost,
)

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
