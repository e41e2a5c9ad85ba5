import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, sparse_instance
from tradepost import (
    Allocation,
    BidMatrix,
    CurveFamily,
    Instance,
    NotAnEquilibrium,
    PowerCurve,
    Rho,
    atp_allocate,
    best_response,
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
from tradepost import trading_post
from tradepost.equilibrium import TOL_EQ
from tradepost.solver import TOL_DUAL

COMMON = dict(deadline=None, derandomize=True)


def shared_good():
    inst = Instance([1.0], [{0}, {0}])
    f = CurveFamily.linear(1)
    return inst, f


class TestVerifyTpNe:
    def test_equilibrium_profile(self):
        inst, f = shared_good()
        b = BidMatrix.from_lists([[1.0], [1.0]])
        rep = verify_tp_ne(inst, f, b)
        assert rep.is_ne
        assert rep.violated_condition is None
        assert rep.deviation_witness is None

    def test_underspent_budget_fails(self):
        inst, f = shared_good()
        b = BidMatrix.from_lists([[0.5], [0.5]])
        rep = verify_tp_ne(inst, f, b)
        assert not rep.is_ne
        assert "condition 2" in rep.violated_condition
        assert "np.float64" not in rep.violated_condition

    def test_bid_on_undesired_good_fails(self):
        inst = Instance([1.0, 1.0], [{0}, {0, 1}])
        f = CurveFamily.linear(2)
        b = BidMatrix.from_lists([[0.5, 0.5], [0.5, 0.5]])
        rep = verify_tp_ne(inst, f, b)
        assert not rep.is_ne
        assert "condition 1" in rep.violated_condition

    def test_deviation_check_agrees_on_equilibrium(self):
        inst, f = shared_good()
        b = BidMatrix.from_lists([[1.0], [1.0]])
        rep = verify_tp_ne(inst, f, b, deviation_check=True, rng=np.random.default_rng(0))
        assert rep.is_ne

    def test_deviation_check_finds_witness(self):
        inst, f = shared_good()
        b = BidMatrix.from_lists([[0.5], [1.0]])
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
        b = BidMatrix.from_lists([[0.5]])
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
        b = BidMatrix.from_lists([[1.0], [1.0]])
        x, g = tp_to_pce(inst, f, b)
        assert g[0].coeff == pytest.approx(2.0)
        assert g[0].degree == 1.0
        assert np.allclose(x.x, [[0.5], [0.5]])
        assert g.cost(x.x[0]) == pytest.approx(1.0)

    def test_quadratic_homogeneity(self):
        inst = Instance([1.0], [{0}, {0}])
        f = CurveFamily([PowerCurve(1.0, 2.0)])
        b = BidMatrix.from_lists([[1.0], [1.0]])
        x, g = tp_to_pce(inst, f, b)
        assert g[0].coeff == pytest.approx(4.0)
        assert g.cost(x.x[0]) == pytest.approx(1.0)

    def test_all_beta_column_becomes_zero_curve(self):
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        f = CurveFamily.linear(2)
        b = BidMatrix.from_lists([[1.0, "beta"], [1.0, 0.0]])
        x, g = tp_to_pce(inst, f, b)
        assert g[1].is_zero
        assert verify_pce(inst, g, x).is_pce

    def test_rejects_non_equilibrium(self):
        inst, f = shared_good()
        b = BidMatrix.from_lists([[0.5], [0.5]])
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
        assert b.amounts[0, 0] == pytest.approx(res.x_star.x[0, 0])
        assert (b.amounts[0, 1], b.beta[0, 1]) == (0.0, False)
        assert verify_tp_ne(inst, f, b).is_ne

    def test_zero_priced_column_becomes_beta(self):
        inst = Instance([1.0, 5.0], [{0, 1}, {0}])
        g = CurveFamily([PowerCurve(2.0, 1.0), PowerCurve(0.0, 1.0)])
        x = Allocation(np.array([[0.5, 0.5], [0.5, 0.0]]))
        f, b = pce_to_tp(inst, g, x, PowerCurve(1.0, 1.0))
        assert b.beta[0, 1]
        assert (b.amounts[1, 1], b.beta[1, 1]) == (0.0, False)
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


class TestFamilySize:
    @pytest.mark.parametrize("curves", [1, 3])
    def test_wrong_curve_count_rejected(self, curves):
        inst = Instance([1.0, 2.0], [{0, 1}, {1}])
        f = CurveFamily.linear(curves)
        bids = BidMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]), np.zeros((2, 2), dtype=bool))
        message = f"curve family has {curves} curves, instance has 2 goods"
        calls = [
            lambda: atp_allocate(inst, f, bids),
            lambda: best_response(inst, f, bids, 0),
            lambda: verify_tp_ne(inst, f, bids),
            lambda: deviation_sweep(inst, f, bids),
            lambda: tp_to_pce(inst, f, bids),
            lambda: verify_pce(inst, f, Allocation([[0.5, 0.5], [0.5, 1.5]])),
            lambda: pce_to_tp(inst, f, Allocation([[0.5, 0.5], [0.5, 1.5]])),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


class TestToleranceValidation:
    """A tolerance that is not finite and > 0 is rejected, naming it.

    With tol = nan or inf this profile used to verify, though it fails at the
    default tolerance: agent 0 spends 0.1 of her budget.
    """

    INST = Instance([1.0, 1.0], [{0}, {0, 1}])
    BIDS = BidMatrix(np.array([[0.1, 0.0], [0.2, 0.3]]), np.zeros((2, 2), dtype=bool))
    ALLOC = Allocation([[0.5, 0.0], [0.5, 0.5]])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_rejected_everywhere(self, tol):
        inst, f = self.INST, CurveFamily.linear(2)
        assert not verify_tp_ne(inst, f, self.BIDS).is_ne
        assert not verify_pce(inst, f, self.ALLOC).is_pce
        calls = [
            lambda: verify_tp_ne(inst, f, self.BIDS, tol=tol),
            lambda: verify_pce(inst, f, self.ALLOC, tol=tol),
            lambda: tp_to_pce(inst, f, self.BIDS, tol=tol),
            lambda: pce_to_tp(inst, f, self.ALLOC, tol=tol),
            lambda: construct_atp_rho_equilibrium(inst, Rho.finite(-1.0), tol=tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tol must be finite and > 0"):
                call()


class TestScaling:
    def test_identity(self):
        f = CurveFamily.linear(2)
        b = BidMatrix.from_lists([[0.3, "beta"]])
        f2 = scale_curves(f, [1.0, 1.0])
        b2 = transform_bids(b, [1.0, 1.0], f.degrees)
        assert all(c.coeff == 1.0 for c in f2)
        assert b2 == b

    def test_cost_preserved(self):
        f = CurveFamily.linear(1)
        b = BidMatrix.from_lists([[0.8]])
        f2 = scale_curves(f, [4.0])
        b2 = transform_bids(b, [4.0], f.degrees)
        assert b2.amounts[0, 0] == pytest.approx(0.2)
        assert f2.cost(b2.amounts[0]) == pytest.approx(f.cost(b.amounts[0]))

    @pytest.mark.parametrize(
        "a, degree", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)]
    )
    def test_transform_rejects_nonfinite(self, a, degree):
        b = BidMatrix.from_lists([[0.8]])
        with pytest.raises(ValueError, match="positive and finite"):
            transform_bids(b, [a], [degree])

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
                    row.append(rng.uniform(0.05, 0.9))
                else:
                    row.append(0.0)
            rows.append(row)
        b = BidMatrix.from_lists(rows)
        a = rng.uniform(0.2, 5.0, size=inst.m)
        x1 = atp_allocate(inst, f, b, check_budgets=False)
        x2 = atp_allocate(inst, scale_curves(f, a), transform_bids(b, a, f.degrees), check_budgets=False)
        assert np.allclose(x1.x, x2.x, atol=1e-12)


class TestConstruct:
    def test_disjoint_singletons(self):
        inst = Instance([1.0, 1.0], [{0}, {1}])
        for rv in (-2.0, -1.0, 0.0, 0.5):
            b, x = construct_atp_rho_equilibrium(inst, Rho.finite(rv))
            assert b.amounts[0, 0] == pytest.approx(1.0, abs=1e-7)
            assert b.amounts[1, 1] == pytest.approx(1.0, abs=1e-7)
            assert np.allclose(utilities(inst, x), 1.0)

    def test_shared_single_good(self):
        inst = Instance([1.0], [{0}, {0}])
        for rv in (-2.0, -1.0, 0.0, 0.5):
            b, x = construct_atp_rho_equilibrium(inst, Rho.finite(rv))
            # Budget identity forces unit bids: q = 2^(1-rho), b = q^(1/(1-rho))/2.
            assert b.amounts[0, 0] == pytest.approx(1.0, abs=1e-7)
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


def _proof_pipeline(inst, rho, result, tol=TOL_EQ):
    """The construction step by step, from public functions, as the proof goes.

    The multipliers become price curves q_j * t^(1-rho); ``pce_to_tp`` reduces
    them to bids; curves and bids are rescaled to the unit family; the profile
    is verified, then allocated again for the welfare check.
    """
    q = np.where(result.q > TOL_DUAL, result.q, 0.0)
    degree = 1.0 - rho.value
    g = CurveFamily([PowerCurve(float(c), degree) for c in q])
    f, b = pce_to_tp(inst, g, result.x_star, PowerCurve(1.0, degree), tol=tol)
    a = np.where(q > 0, 1.0 / np.where(q > 0, q, 1.0), 1.0)
    unit = CurveFamily.atp(rho.value, inst.m)
    assert np.allclose(scale_curves(f, a).coeffs, unit.coeffs, rtol=1e-9, atol=1e-12)
    b_unit = transform_bids(b, a, f.degrees)
    report = verify_tp_ne(inst, unit, b_unit, tol=tol)
    if not report.is_ne:
        raise NotAnEquilibrium(f"constructed bids failed verification: {report.violated_condition}")
    x = atp_allocate(inst, unit, b_unit)
    gap = abs(ces_welfare(rho, utilities(inst, x)) - result.objective) / max(1.0, abs(result.objective))
    if gap > tol:
        raise NotAnEquilibrium(f"constructed equilibrium welfare off by {gap:.3e}")
    return b_unit, x


def _construction_outcome(build, inst, rho, result):
    """The bytes of the bids and allocation ``build`` returns, or its exception's type and text."""
    try:
        b, x = build(inst, rho, result)
    except NotAnEquilibrium as exc:
        return "NotAnEquilibrium", str(exc)
    return "ok", b.amounts.tobytes(), b.beta.tobytes(), x.x.tobytes()


def _closed_form(inst, rho, result):
    return construct_atp_rho_equilibrium(inst, rho, solve=result)


class TestConstructionMatchesProofPipeline:
    """The closed-form construction gives the proof pipeline's bits, and its failure texts."""

    @pytest.mark.parametrize("rv", [-2.0, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n, m", [(12, 5), (40, 12), (200, 50)])
    def test_same_bids_and_allocation(self, n, m, rv):
        rho = Rho.finite(rv)
        instances = [sparse_instance(np.random.default_rng([n, m, k]), n, m) for k in range(3)]
        instances.append(random_instance(np.random.default_rng([n, m]), n_max=n // 4, m_max=m))
        for inst in instances:
            result = solve_ces(inst, rho)
            expected = _construction_outcome(_proof_pipeline, inst, rho, result)
            assert expected[0] == "ok"
            assert _construction_outcome(_closed_form, inst, rho, result) == expected

    @pytest.mark.parametrize("k", [2, 10])
    def test_same_failure_text(self, k):
        # At rho = 0.99 the bids x_ij * q_j^100 leave float range, and condition 1 fails.
        inst = sparse_instance(np.random.default_rng([5, k]), 20, 8)
        rho = Rho.finite(0.99)
        result = solve_ces(inst, rho)
        expected = _construction_outcome(_proof_pipeline, inst, rho, result)
        assert expected[0] == "NotAnEquilibrium" and "condition 1:" in expected[1]
        assert _construction_outcome(_closed_form, inst, rho, result) == expected


class TestWideSupplies:
    """Solve then construct on 20x8 instances, integer supplies and supplies over 8 decades."""

    @pytest.mark.parametrize(
        "rv, wide", [(-2.0, False), (0.0, False), (0.5, False), (0.9, False), (0.0, True), (0.5, True), (0.9, True)]
    )
    def test_construct_succeeds(self, rv, wide):
        rho = Rho.finite(rv)
        for k in range(10):
            inst = sparse_instance(np.random.default_rng([5, k]), 20, 8)
            if wide:
                supplies = 10 ** np.random.default_rng([6, k]).uniform(-4, 4, 8)
                inst = Instance(supplies, inst.desired)
            res = solve_ces(inst, rho)
            b, x = construct_atp_rho_equilibrium(inst, rho, solve=res)
            assert ces_welfare(rho, utilities(inst, x)) == pytest.approx(res.objective, rel=1e-6), k


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
                    rng.uniform(0.2, 0.9) if j in inst.desired[i] else 0.0
                    for j in range(inst.m)
                ]
                rows.append(row)
            bids = BidMatrix.from_lists(rows)
            for _ in range(80):
                moved = 0.0
                for i in range(inst.n):
                    before = float(utilities(inst, atp_allocate(inst, f, bids, check_budgets=False))[i])
                    row, after = best_response(inst, f, bids, i)
                    bids = bids.replace_row(i, *row)
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


class TestSweepRegression:
    """``deviation_sweep`` at a constructed 200x50 equilibrium, bit for bit.

    ``tests/data/sweep_200x50_rho-2.json`` holds a 200x50 instance drawn like
    the benchmark's sweep inputs, its rho = -2 equilibrium bids, and each
    sweep's gain, witness agent and witness row as recorded before the
    best response was reworked for speed.  The halved profile scales every
    7th agent's row by 0.5, so those agents gain by responding.
    """

    DATA = json.loads((Path(__file__).parent / "data" / "sweep_200x50_rho-2.json").read_text())

    @pytest.fixture(scope="class")
    def game(self):
        data = self.DATA
        inst = Instance(
            data["instance"]["supplies"], [a["desired"] for a in data["instance"]["agents"]]
        )
        bids = BidMatrix.from_lists(data["bids"])
        amounts = bids.amounts.copy()
        amounts[::7] *= 0.5
        profiles = {"equilibrium": bids, "halved_every_7th": BidMatrix(amounts, bids.beta)}
        return inst, CurveFamily.atp(data["rho"], inst.m), profiles

    @pytest.mark.parametrize(
        "case, profile, seed",
        [
            ("equilibrium", "equilibrium", None),
            ("equilibrium_random_seed15_n20", "equilibrium", 15),
            ("halved_every_7th", "halved_every_7th", None),
        ],
    )
    def test_sweep_matches_record(self, game, case, profile, seed):
        inst, f, profiles = game
        rng = None if seed is None else np.random.default_rng(seed)
        gain, witness = deviation_sweep(inst, f, profiles[profile], rng=rng, n_random=20)
        expected = self.DATA["sweeps"][case]
        assert (gain, witness.agent) == (expected["gain"], expected["agent"])
        cells = zip(witness.amounts.tolist(), witness.beta.tolist())
        assert ["beta" if is_beta else amount for amount, is_beta in cells] == expected["bids"]

    def test_few_cost_evaluations_per_target(self, game, monkeypatch):
        """The bisection is replayed from its estimated root: a silent fallback to the full loop fails here."""
        inst, f, profiles = game
        counts = Counter()
        for name in ("_affordable", "_max_target"):
            inner = getattr(trading_post, name)

            def counted(*args, _inner=inner, _name=name):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(trading_post, name, counted)
        for bids in profiles.values():
            deviation_sweep(inst, f, bids)
        assert counts["_max_target"] >= 2 * inst.n
        assert counts["_affordable"] <= 8 * counts["_max_target"], counts

    @pytest.mark.parametrize("how", ["overwrite", "replace_row"])
    def test_sweep_after_a_row_changes(self, game, how):
        """A sweep after a row changes equals one on a fresh matrix: no row cost outlives its row."""
        inst, f, profiles = game
        eq = profiles["equilibrium"]
        k = 3
        over = eq.amounts.copy()
        over[k] *= 1.5
        bids = BidMatrix(over, eq.beta)
        assert trading_post._row_costs(f, bids)[k] > 1.0  # cached while row k is over budget
        row = (eq.amounts[k].copy(), eq.beta[k].copy())
        if how == "overwrite":
            bids._overwrite_row(k, *row)
        else:
            bids = bids.replace_row(k, *row)
        gain, witness = deviation_sweep(inst, f, bids)
        fresh_gain, fresh_witness = deviation_sweep(inst, f, BidMatrix(bids.amounts, bids.beta))
        assert (gain, witness.agent) == (fresh_gain, fresh_witness.agent)
        assert np.array_equal(witness.amounts, fresh_witness.amounts)
        assert np.array_equal(witness.beta, fresh_witness.beta)

    def test_row_costs_equal_one_row_costs(self, game):
        inst, f, profiles = game
        constructed = []
        for k, rho in enumerate((-2.0, 0.0, 0.5)):
            small = sparse_instance(np.random.default_rng([925, k]), 40, 12)
            bids, _ = construct_atp_rho_equilibrium(small, Rho.finite(rho))
            constructed.append((CurveFamily.atp(rho, small.m), bids))
        for family, bids in [(f, profiles["equilibrium"]), *constructed]:
            rows = [family.cost_rows(bids.amounts[i : i + 1])[0] for i in range(bids.n)]
            assert np.array_equal(trading_post._row_costs(family, bids), rows)

    def test_best_response_values_match_record(self, game):
        inst, f, profiles = game
        got = [best_response(inst, f, profiles["halved_every_7th"], i)[1] for i in range(inst.n)]
        assert got == self.DATA["halved_every_7th_values"]
