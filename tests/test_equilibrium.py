import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from tradepost import (
    Allocation,
    Bid,
    BidMatrix,
    CurveFamily,
    Instance,
    NotAnEquilibrium,
    PowerCurve,
    Rho,
    atp_allocate,
    best_response,
    bid_cost,
    ces_welfare,
    construct_atp_rho_equilibrium,
    deviation_sweep,
    pce_to_tp,
    scale_curves,
    solve_ces,
    tp_to_pce,
    transform_bids,
    utilities,
    verify_pce,
    verify_tp_ne,
)

COMMON = dict(deadline=None, derandomize=True)


def shared_good():
    inst = Instance([1.0], [{0}, {0}])
    f = CurveFamily.linear(1)
    return inst, f


class TestVerifyTpNe:
    def test_equilibrium_profile(self):
        inst, f = shared_good()
        b = BidMatrix.from_rows([[Bid.positive(1.0)], [Bid.positive(1.0)]])
        rep = verify_tp_ne(inst, f, b)
        assert rep.is_ne
        assert rep.violated_condition is None
        assert rep.deviation_witness is None

    def test_underspent_budget_fails(self):
        inst, f = shared_good()
        b = BidMatrix.from_rows([[Bid.positive(0.5)], [Bid.positive(0.5)]])
        rep = verify_tp_ne(inst, f, b)
        assert not rep.is_ne
        assert "condition 2" in rep.violated_condition
        assert "np.float64" not in rep.violated_condition

    def test_bid_on_undesired_good_fails(self):
        inst = Instance([1.0, 1.0], [{0}, {0, 1}])
        f = CurveFamily.linear(2)
        b = BidMatrix.from_rows(
            [[Bid.positive(0.5), Bid.positive(0.5)], [Bid.positive(0.5), Bid.positive(0.5)]]
        )
        rep = verify_tp_ne(inst, f, b)
        assert not rep.is_ne
        assert "condition 1" in rep.violated_condition

    def test_deviation_check_agrees_on_equilibrium(self):
        inst, f = shared_good()
        b = BidMatrix.from_rows([[Bid.positive(1.0)], [Bid.positive(1.0)]])
        rep = verify_tp_ne(inst, f, b, deviation_check=True, rng=np.random.default_rng(0))
        assert rep.is_ne

    def test_deviation_check_finds_witness(self):
        inst, f = shared_good()
        b = BidMatrix.from_rows([[Bid.positive(0.5)], [Bid.positive(1.0)]])
        rep = verify_tp_ne(inst, f, b, deviation_check=True, rng=np.random.default_rng(0))
        assert not rep.is_ne
        assert rep.deviation_witness is not None
        assert rep.deviation_witness.gain > 1e-3

    def test_known_gap_monopolist_with_slack_budget(self):
        # An agent already holding the whole supply of her only good is
        # stable despite not exhausting her budget; the budget condition
        # flags the profile while no improving deviation exists.
        inst = Instance([1.0], [{0}])
        f = CurveFamily.linear(1)
        b = BidMatrix.from_rows([[Bid.positive(0.5)]])
        rep = verify_tp_ne(inst, f, b)
        assert not rep.is_ne
        gain, _ = deviation_sweep(inst, f, b, rng=np.random.default_rng(0), n_random=50)
        assert gain <= 1e-9
        # The cross-check flags the disagreement as an internal error.
        with pytest.raises(RuntimeError, match="disagree"):
            verify_tp_ne(inst, f, b, deviation_check=True)


class TestVerifyPce:
    def test_solver_output_is_equilibrium(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = random_instance(rng, n_max=5, m_max=5)
            rho = Rho.finite(-1.0)
            res = solve_ces(inst, rho)
            g = CurveFamily(
                PowerCurve(qj if qj > 1e-8 else 0.0, 2.0) for qj in res.q
            )
            rep = verify_pce(inst, g, res.x_star)
            assert rep.is_pce, rep.violated_condition

    def test_scaled_bundle_fails_budget(self):
        inst = Instance([1.0], [{0}, {0}])
        g = CurveFamily([PowerCurve(2.0, 1.0)])
        x = Allocation(np.array([[0.45], [0.5]]))  # agent 0 spends 0.9
        rep = verify_pce(inst, g, x)
        assert not rep.is_pce
        assert "condition 2" in rep.violated_condition
        assert "np.float64" not in rep.violated_condition

    def test_zero_priced_good_may_be_left_over(self):
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        g = CurveFamily([PowerCurve(2.0, 1.0), PowerCurve(0.0, 1.0)])
        x = Allocation(np.array([[0.5, 0.5], [0.5, 0.0]]))
        rep = verify_pce(inst, g, x)
        assert rep.is_pce, rep.violated_condition

    def test_priced_good_must_clear(self):
        inst = Instance([2.0], [{0}, {0}])
        g = CurveFamily([PowerCurve(2.0, 1.0)])
        x = Allocation(np.array([[0.5], [0.5]]))
        rep = verify_pce(inst, g, x)
        assert not rep.is_pce
        assert "condition 3" in rep.violated_condition


class TestTpToPce:
    def test_linear_example(self):
        inst, f = shared_good()
        b = BidMatrix.from_rows([[Bid.positive(1.0)], [Bid.positive(1.0)]])
        x, g = tp_to_pce(inst, f, b)
        assert g[0].coeff == pytest.approx(2.0)
        assert g[0].degree == 1.0
        assert np.allclose(x.x, [[0.5], [0.5]])
        assert g.cost(x.x[0]) == pytest.approx(1.0)

    def test_quadratic_homogeneity(self):
        inst = Instance([1.0], [{0}, {0}])
        f = CurveFamily([PowerCurve(1.0, 2.0)])
        b = BidMatrix.from_rows([[Bid.positive(1.0)], [Bid.positive(1.0)]])
        x, g = tp_to_pce(inst, f, b)
        assert g[0].coeff == pytest.approx(4.0)
        assert g.cost(x.x[0]) == pytest.approx(1.0)

    def test_all_beta_column_becomes_zero_curve(self):
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        f = CurveFamily.linear(2)
        b = BidMatrix.from_rows(
            [[Bid.positive(1.0), Bid.beta()], [Bid.positive(1.0), Bid.zero()]]
        )
        x, g = tp_to_pce(inst, f, b)
        assert g[1].is_zero
        assert verify_pce(inst, g, x).is_pce

    def test_rejects_non_equilibrium(self):
        inst, f = shared_good()
        b = BidMatrix.from_rows([[Bid.positive(0.5)], [Bid.positive(0.5)]])
        with pytest.raises(NotAnEquilibrium):
            tp_to_pce(inst, f, b)


class TestPceToTp:
    def test_all_priced_goods_copy_quantities(self):
        inst = Instance([1.0, 1.0], [{0}, {1}])
        rho = Rho.finite(-1.0)
        res = solve_ces(inst, rho)
        g = CurveFamily(PowerCurve(qj, 2.0) for qj in res.q)
        f, b = pce_to_tp(inst, g, res.x_star, PowerCurve(1.0, 2.0))
        assert all(not c.is_zero for c in f)
        assert b.bid(0, 0).amount == pytest.approx(res.x_star.x[0, 0])
        assert b.bid(0, 1).is_zero
        assert verify_tp_ne(inst, f, b).is_ne

    def test_zero_priced_column_becomes_beta(self):
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        g = CurveFamily([PowerCurve(2.0, 1.0), PowerCurve(0.0, 1.0)])
        x = Allocation(np.array([[0.5, 0.5], [0.5, 0.0]]))
        f, b = pce_to_tp(inst, g, x, PowerCurve(1.0, 1.0))
        assert b.bid(0, 1).is_beta
        assert b.bid(1, 1).is_zero
        assert f[1].coeff == 1.0
        assert verify_tp_ne(inst, f, b).is_ne

    def test_rejects_non_equilibrium(self):
        inst = Instance([2.0], [{0}, {0}])
        g = CurveFamily([PowerCurve(2.0, 1.0)])
        x = Allocation(np.array([[0.5], [0.5]]))
        with pytest.raises(NotAnEquilibrium):
            pce_to_tp(inst, g, x)

    def test_round_trip_preserves_utilities(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            inst = random_instance(rng, n_max=5, m_max=5)
            rho = Rho.finite(rng.choice([-2.0, -1.0, 0.0, 0.5]))
            b, x = construct_atp_rho_equilibrium(inst, rho)
            unit = CurveFamily.atp(rho.value, inst.m)
            x1, g = tp_to_pce(inst, unit, b)
            f2, b2 = pce_to_tp(inst, g, x1, PowerCurve(1.0, 1.0 - rho.value))
            x2 = atp_allocate(inst, f2, b2)
            assert np.allclose(utilities(inst, x2), utilities(inst, x), atol=1e-9)


class TestScaling:
    def test_identity(self):
        f = CurveFamily.linear(2)
        b = BidMatrix.from_rows([[Bid.positive(0.3), Bid.beta()]])
        f2 = scale_curves(f, [1.0, 1.0])
        b2 = transform_bids(b, [1.0, 1.0], f.degrees)
        assert all(c.coeff == 1.0 for c in f2)
        assert b2 == b

    def test_cost_preserved(self):
        f = CurveFamily.linear(1)
        b = BidMatrix.from_rows([[Bid.positive(0.8)]])
        f2 = scale_curves(f, [4.0])
        b2 = transform_bids(b, [4.0], f.degrees)
        assert b2.bid(0, 0).amount == pytest.approx(0.2)
        assert bid_cost(f2, b2.row(0)) == pytest.approx(bid_cost(f, b.row(0)))

    @settings(max_examples=200, **COMMON)
    @given(st.integers(0, 100_000))
    def test_allocation_invariance_random(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_max=4, m_max=4)
        f = CurveFamily.atp(-1.0, inst.m)
        rows = []
        for i in range(inst.n):
            row = []
            for j in range(inst.m):
                if j in inst.desired[i]:
                    row.append(Bid.positive(rng.uniform(0.05, 0.9)))
                else:
                    row.append(Bid.zero())
            rows.append(row)
        b = BidMatrix.from_rows(rows)
        a = rng.uniform(0.2, 5.0, size=inst.m)
        x1 = atp_allocate(inst, f, b, check_budgets=False)
        x2 = atp_allocate(inst, scale_curves(f, a), transform_bids(b, a, f.degrees), check_budgets=False)
        assert np.allclose(x1.x, x2.x, atol=1e-12)


class TestConstruct:
    def test_disjoint_singletons(self):
        inst = Instance([1.0, 1.0], [{0}, {1}])
        for rv in (-2.0, -1.0, 0.0, 0.5):
            b, x = construct_atp_rho_equilibrium(inst, Rho.finite(rv))
            assert b.bid(0, 0).amount == pytest.approx(1.0, abs=1e-7)
            assert b.bid(1, 1).amount == pytest.approx(1.0, abs=1e-7)
            assert np.allclose(utilities(inst, x), 1.0)

    def test_shared_single_good(self):
        inst = Instance([1.0], [{0}, {0}])
        for rv in (-2.0, -1.0, 0.0, 0.5):
            b, x = construct_atp_rho_equilibrium(inst, Rho.finite(rv))
            # Budget identity forces unit bids: q = 2^(1-rho), b = q^(1/(1-rho))/2.
            assert b.bid(0, 0).amount == pytest.approx(1.0, abs=1e-7)
            assert np.allclose(utilities(inst, x), 0.5)

    def test_lie_instance_equal_utilities(self):
        from tradepost import five_by_seven_instance

        inst = five_by_seven_instance(lie=True)
        b, x = construct_atp_rho_equilibrium(inst, Rho.finite(-1.0))
        assert np.allclose(utilities(inst, x), 0.5, atol=1e-6)
        rep = verify_tp_ne(inst, CurveFamily.atp(-1.0, inst.m), b)
        assert rep.is_ne

    def test_matches_solver_welfare(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            inst = random_instance(rng, n_max=6, m_max=6)
            rho = Rho.finite(rng.choice([-2.0, 0.0, 0.5]))
            res = solve_ces(inst, rho)
            b, x = construct_atp_rho_equilibrium(inst, rho, solve=res)
            w = ces_welfare(rho, utilities(inst, x))
            assert w == pytest.approx(res.objective, rel=1e-5)

    def test_rejects_non_finite_rho(self):
        inst = Instance([1.0], [{0}])
        with pytest.raises(ValueError):
            construct_atp_rho_equilibrium(inst, Rho.one())
        with pytest.raises(ValueError):
            construct_atp_rho_equilibrium(inst, Rho.maxmin())

    @settings(max_examples=200, **COMMON)
    @given(st.integers(0, 100_000), st.sampled_from([-2.0, -1.0, 0.0, 0.5]))
    def test_every_agent_positive_utility_at_equilibrium(self, seed, rv):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_max=5, m_max=5)
        b, x = construct_atp_rho_equilibrium(inst, Rho.finite(rv))
        assert np.all(utilities(inst, x) > 0)


class TestDynamicsSpotCheck:
    def test_converged_dynamics_hit_optimum(self):
        # Round-robin best responses; whenever the limit verifies as an
        # equilibrium its welfare must match the solver optimum.
        rng = np.random.default_rng(37)
        confirmed = 0
        for _ in range(6):
            inst = random_instance(rng, n_max=3, m_max=3)
            rho = Rho.finite(-1.0)
            f = CurveFamily.atp(rho.value, inst.m)
            rows = []
            for i in range(inst.n):
                row = [
                    Bid.positive(rng.uniform(0.2, 0.9)) if j in inst.desired[i] else Bid.zero()
                    for j in range(inst.m)
                ]
                rows.append(row)
            bids = BidMatrix.from_rows(rows)
            for _ in range(80):
                moved = 0.0
                for i in range(inst.n):
                    before = float(utilities(inst, atp_allocate(inst, f, bids, check_budgets=False))[i])
                    row, after = best_response(inst, f, bids, i)
                    bids = bids.replace_row(i, row)
                    moved = max(moved, after - before)
                if moved <= 1e-10:
                    break
            rep = verify_tp_ne(inst, f, bids)
            if rep.is_ne:
                res = solve_ces(inst, rho)
                w = ces_welfare(rho, utilities(inst, atp_allocate(inst, f, bids)))
                assert w == pytest.approx(res.objective, rel=1e-4)
                confirmed += 1
        assert confirmed >= 1
