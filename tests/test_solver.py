from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bisect_maxmin, grid_search_welfare, random_instance, sparse_instance
from tradepost import (
    TOL_DUAL,
    TOL_KKT,
    Instance,
    NonConvergence,
    Rho,
    ces_welfare,
    five_by_seven_instance,
    maxmin_gamma,
    solve_ces,
    solve_maxmin,
    truthful_best_utility,
    utilities,
)
from tradepost import solver
from tradepost.files import load_instance
from tradepost.solver import _BLOCK, _cho_solver, _newton_step, _normal_matrix, _spd_solver

COMMON = dict(deadline=None, derandomize=True)
DATA = Path(__file__).parent / "data"


def budget_identity_residual(inst, rho, res):
    Q = inst.weights @ res.q
    return np.max(np.abs(Q * res.u_star ** (1.0 - rho.value) - 1.0))


class TestSolveCes:
    @pytest.mark.parametrize("rv", [-2.0, -1.0, 0.0, 0.5, 0.9])
    def test_single_agent_saturates(self, rv):
        inst = Instance([2.0], [{0}])
        rho = Rho.finite(rv)
        res = solve_ces(inst, rho)
        assert res.u_star[0] == pytest.approx(2.0, abs=1e-7)
        assert res.q[0] * 2.0 ** (1.0 - rv) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("rv", [-2.0, -1.0, -0.5, 0.0])
    def test_counterexample_low_rho(self, rv):
        # Closed form: the three-agent block gets 1/((3/2)^(1/(rho-1)) + 1).
        inst = five_by_seven_instance()
        res = solve_ces(inst, Rho.finite(rv))
        u_a = 1.0 / ((1.5) ** (1.0 / (rv - 1.0)) + 1.0)
        assert np.allclose(res.u_star[:3], u_a, rtol=0, atol=1e-12)
        assert np.allclose(res.u_star[3:], 1.0 - u_a, rtol=0, atol=1e-12)

    def test_counterexample_rho_minus_one_value(self):
        inst = five_by_seven_instance()
        res = solve_ces(inst, Rho.finite(-1.0))
        assert res.u_star[3] == pytest.approx(0.449490, abs=1e-6)
        assert res.u_star[0] == pytest.approx(0.550510, abs=1e-6)

    def test_counterexample_high_rho_capped(self):
        inst = five_by_seven_instance()
        res = solve_ces(inst, Rho.finite(0.9))
        assert np.allclose(res.u_star[:3], 2.0 / 3.0, rtol=0, atol=1e-12)
        assert np.allclose(res.u_star[3:], 1.0 / 3.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rv", [-2.0, -1.0, 0.0, 0.9])
    def test_lie_instance_equalizes(self, rv):
        inst = five_by_seven_instance(lie=True)
        res = solve_ces(inst, Rho.finite(rv))
        assert np.allclose(res.u_star, 0.5, rtol=0, atol=1e-12)

    def test_lie_instance_sum_objective(self):
        inst = five_by_seven_instance(lie=True)
        res = solve_ces(inst, Rho.one())
        assert np.allclose(res.u_star, 0.5, atol=1e-6)
        assert res.objective == pytest.approx(2.5, abs=1e-6)

    def test_sum_objective_truthful_instance(self):
        # The unique sum optimum here caps the shared block at 2/3 each.
        inst = five_by_seven_instance()
        res = solve_ces(inst, Rho.one())
        assert np.allclose(res.u_star[:3], 2.0 / 3.0, atol=1e-6)
        assert np.allclose(res.u_star[3:], 1.0 / 3.0, atol=1e-6)

    def test_sum_objective_tie_break_toward_equal(self):
        # Optimal face is u0 + u1 = 2 with u1 <= 1; the equal point wins.
        inst = Instance([2.0, 1.0], [{0}, {0, 1}])
        res = solve_ces(inst, Rho.one())
        assert np.allclose(res.u_star, [1.0, 1.0], atol=1e-6)
        # Face u0 + u1 = 3 with u1 <= 1: the equal point (1.5, 1.5) is
        # infeasible, so the least-norm point sits on the bound u1 = 1.
        res = solve_ces(Instance([3.0, 1.0], [{0}, {0, 1}]), Rho.one())
        assert np.allclose(res.u_star, [2.0, 1.0], atol=1e-6)
        # Agents 1 and 2 want the same goods and share u1 + u2 = 1 equally.
        res = solve_ces(Instance([2.0, 1.0], [{0}, {0, 1}, {0, 1}]), Rho.one())
        assert np.allclose(res.u_star, [1.0, 0.5, 0.5], atol=1e-6)
        assert res.u_star[1] == pytest.approx(res.u_star[2], abs=1e-12)

    def test_rejects_maxmin(self):
        inst = Instance([1.0], [{0}])
        with pytest.raises(ValueError):
            solve_ces(inst, Rho.maxmin())

    @pytest.mark.parametrize("rho", [Rho.finite(-1.0), Rho.one()], ids=str)
    @pytest.mark.parametrize(
        "name, value",
        [("tol_kkt", np.nan), ("tol_kkt", np.inf), ("tol_kkt", 0.0), ("tol_kkt", -1.0), ("tol_kkt", "1e-7"),
         ("tol_kkt", None), ("tol_kkt", True), ("max_iter", 0), ("max_iter", -1), ("max_iter", 2.5),
         ("max_iter", True)],
    )
    def test_rejects_invalid_tolerance_or_budget(self, rho, name, value):
        # Before the check, these ran the whole budget and raised NonConvergence.
        rule = "finite and > 0" if name == "tol_kkt" or type(value) is int else "an integer"
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            solve_ces(five_by_seven_instance(), rho, **{name: value})

    def test_nonconvergence_error(self):
        inst = five_by_seven_instance()
        with pytest.raises(NonConvergence) as err:
            solve_ces(inst, Rho.finite(-1.0), max_iter=3)
        assert err.value.iterations <= 3
        assert 0 < err.value.residual < np.inf

    @pytest.mark.parametrize("budget, tol", [(1, TOL_KKT), (100, 1e-300)])
    def test_nonconvergence_residual_without_finish(self, budget, tol):
        # No finish runs in these solves: the residual is the last iterate's certificate.
        with pytest.raises(NonConvergence) as err:
            solve_ces(Instance([1.0, 2.0], [{0}, {0, 1}, {1}]), Rho.finite(-2.0), max_iter=budget, tol_kkt=tol)
        assert err.value.iterations <= budget
        assert 0 < err.value.residual < np.inf

    def test_budget_identity_and_allocation_shape(self):
        inst = five_by_seven_instance()
        rho = Rho.finite(-1.0)
        res = solve_ces(inst, rho)
        assert budget_identity_residual(inst, rho, res) <= 1e-7
        # Allocation gives exactly w_ij * u_i, leftovers unallocated.
        assert np.allclose(res.x_star.x, inst.weights * res.u_star[:, None])
        assert np.all(res.u_star > 0)
        assert np.allclose(utilities(inst, res.x_star), res.u_star)

    def test_complementary_slackness(self):
        inst = five_by_seven_instance()
        res = solve_ces(inst, Rho.finite(-1.0))
        demand = res.u_star @ inst.weights
        for j in range(inst.m):
            if res.q[j] > 1e-8:
                assert abs(demand[j] - inst.supplies[j]) <= 1e-6

    def test_grid_oracle_agreement_small(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            inst = random_instance(rng, n_max=3, m_max=3)
            for rv in (-1.0, 0.5):
                rho = Rho.finite(rv)
                res = solve_ces(inst, rho)
                grid = grid_search_welfare(inst, rho)
                assert abs(res.objective - grid) <= 2e-3

    def test_limit_consistency_around_nash(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            inst = random_instance(rng, n_max=4, m_max=4)
            res0 = solve_ces(inst, Rho.nash())
            lo = solve_ces(inst, Rho.finite(-1e-4))
            hi = solve_ces(inst, Rho.finite(1e-4))
            assert np.allclose(lo.u_star, res0.u_star, atol=1e-3)
            assert np.allclose(hi.u_star, res0.u_star, atol=1e-3)

    @settings(max_examples=60, **COMMON)
    @given(st.integers(0, 10_000), st.sampled_from([0.5, 2.0, 3.7]), st.sampled_from([-2.0, 0.0, 0.5]))
    def test_scale_covariance_of_argmax(self, seed, c, rv):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_max=4, m_max=4)
        scaled = Instance([c * s for s in inst.supplies], [set(r) for r in inst.desired])
        rho = Rho.finite(rv)
        res = solve_ces(inst, rho)
        res_c = solve_ces(scaled, rho)
        assert np.allclose(res_c.u_star, c * res.u_star, rtol=1e-5, atol=1e-7 * c)

    def test_deterministic_across_calls(self):
        inst = five_by_seven_instance()
        a = solve_ces(inst, Rho.finite(-1.0))
        b = solve_ces(inst, Rho.finite(-1.0))
        assert np.array_equal(a.u_star, b.u_star)
        assert np.array_equal(a.q, b.q)


def _rank(rows):
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col] != 0:
                f = rows[k][col] / rows[rank][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


class TestSumOptimumCertificate:
    """Exact certificate that the rho = 1 optimum of the 5x7 fixture is unique.

    At rho = 1 the welfare program is the LP ``max sum(u)`` subject to
    ``W^T u <= s``, ``u >= 0``; its dual is ``min s.y`` subject to
    ``sum_{j in R_i} y_j >= 1``, ``y >= 0``. Equal objectives prove ``U``
    optimal. Every ``y_j`` is positive, so complementary slackness makes all
    supply constraints tight at any optimum, and a tight system of full
    column rank then leaves ``U`` as the only optimum. No solver is called.
    """

    U = (Fraction(2, 3),) * 3 + (Fraction(1, 3),) * 2
    Y = (Fraction(1, 3),) * 7

    @pytest.fixture
    def lp(self):
        inst = five_by_seven_instance()
        supplies = [Fraction(s) for s in inst.supplies]  # Fraction(float) is exact
        return supplies, inst.desired

    def test_primal_feasible_with_every_constraint_tight(self, lp):
        supplies, desired = lp
        assert all(u >= 0 for u in self.U)
        demand = [sum(u for u, r in zip(self.U, desired) if j in r) for j in range(len(supplies))]
        assert demand == supplies

    def test_dual_feasible(self, lp):
        supplies, desired = lp
        assert len(self.Y) == len(supplies)
        assert all(y > 0 for y in self.Y)
        assert all(sum(self.Y[j] for j in r) >= 1 for r in desired)

    def test_objectives_equal(self, lp):
        supplies, _ = lp
        primal = sum(self.U)
        dual = sum(s * y for s, y in zip(supplies, self.Y))
        assert primal == dual == Fraction(8, 3)

    def test_tight_system_pins_the_optimum(self, lp):
        supplies, desired = lp
        tight_rows = [[Fraction(int(j in r)) for r in desired] for j in range(len(supplies))]
        assert _rank(tight_rows) == len(desired)


class TestSolveMaxmin:
    def test_even_split(self):
        inst = Instance([1.0], [{0}, {0}])
        res = solve_maxmin(inst)
        assert res.objective == pytest.approx(0.5)
        assert np.allclose(res.u_star, 0.5)

    def test_disjoint_singletons(self):
        inst = Instance([1.0] * 4, [{0}, {1}, {2}, {3}])
        res = solve_maxmin(inst)
        assert res.objective == pytest.approx(1.0)
        assert np.allclose(np.diag(res.x_star.x), 1.0)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            inst = random_instance(rng, n_max=6, m_max=6)
            res = solve_maxmin(inst)
            assert res.objective == pytest.approx(bisect_maxmin(inst), abs=1e-9)
            assert res.kkt_residual <= 1e-9

    def test_gamma_with_empty_sets(self):
        gamma, d = maxmin_gamma([1.0, 1.0], [set(), {0}])
        assert gamma == pytest.approx(1.0)
        assert list(d) == [1.0, 0.0]
        gamma, _ = maxmin_gamma([1.0], [set(), set()])
        assert gamma == 0.0


class TestObjectiveValues:
    @pytest.mark.parametrize("rv", [-2.0, 0.0, 0.5])
    def test_objective_matches_welfare_of_utilities(self, rv):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, n_max=5, m_max=5)
        rho = Rho.finite(rv)
        res = solve_ces(inst, rho)
        assert res.objective == pytest.approx(ces_welfare(rho, res.u_star), rel=1e-12)

    def test_truthful_closed_form_helper(self):
        assert truthful_best_utility(-1.0) == pytest.approx(0.449490, abs=1e-6)
        assert truthful_best_utility(0.0) == pytest.approx(0.4, abs=1e-12)
        assert truthful_best_utility(0.9) == pytest.approx(1.0 / 3.0, abs=1e-12)


def kkt_oracle(inst, rho, u, q):
    """Max violation of stationarity, feasibility and complementary slackness.

    Built from the desired sets alone. Stationarity is Q_i u_i^(1-rho) = 1 for
    finite rho; Q_i = 1 where u_i > 1e-9 and Q_i >= 1 elsewhere for the sum;
    sum_j q_j d_j = 1 for maxmin, with d_j the number of agents desiring j.
    """
    W = np.zeros((inst.n, inst.m))
    for i, goods in enumerate(inst.desired):
        W[i, sorted(goods)] = 1.0
    s = np.array(inst.supplies)
    scale = np.maximum(1.0, s)
    demand = u @ W
    feas = np.max(np.maximum(demand - s, 0.0) / scale)
    comp = np.max(q * np.abs(s - demand) / scale)
    Q = W @ q
    if rho.is_maxmin:
        stat = abs(q @ W.sum(axis=0) - 1.0)
    elif rho.is_one:
        stat = np.max(np.where(u > 1e-9, np.abs(Q - 1.0), np.maximum(0.0, 1.0 - Q)))
    else:
        stat = np.max(np.abs(Q * u ** (1.0 - rho.value) - 1.0))
    return float(max(feas, comp, stat))


class TestKktCertificate:
    """One certificate for every objective family.

    The reported residual is the oracle's, and every positively priced good
    clears within tolerance: the gate that lets ``pce_to_tp`` read each good
    as either priced or free.
    """

    RHOS = (Rho.finite(-2.0), Rho.nash(), Rho.finite(0.5), Rho.one(), Rho.maxmin())

    def test_residual_and_separation(self):
        rng = np.random.default_rng(29)
        # At the sum optimum agent 0 gets nothing and is priced out, Q_0 = 2.
        cases = [Instance([1.0, 1.0], [{0, 1}, {0}, {1}])]
        cases += [random_instance(rng, n_max=8, m_max=6) for _ in range(30)]
        for k, inst in enumerate(cases):
            s = np.array(inst.supplies)
            for rho in self.RHOS:
                res = solve_maxmin(inst) if rho.is_maxmin else solve_ces(inst, rho)
                oracle = kkt_oracle(inst, rho, res.u_star, res.q)
                assert res.kkt_residual == pytest.approx(oracle, rel=0, abs=1e-12), (k, rho)
                assert res.kkt_residual <= TOL_KKT
                gap = np.abs(s - res.u_star @ inst.weights)
                priced = res.q > TOL_DUAL
                assert np.all(gap[priced] <= TOL_KKT * np.maximum(1.0, s[priced])), (k, rho)


def assert_certified_sum(inst, res):
    """The oracle's KKT residual and the separation gate, at rho = 1."""
    assert np.all(res.u_star >= 0)
    assert kkt_oracle(inst, Rho.one(), res.u_star, res.q) <= TOL_KKT
    s = np.array(inst.supplies)
    gap = np.abs(s - res.u_star @ inst.weights)
    priced = res.q > TOL_DUAL
    assert np.all(gap[priced] <= TOL_KKT * np.maximum(1.0, s[priced]))


class TestSumRegression:
    """Seeded rho = 1 solves, judged by the oracle and the separation gate.

    Both inputs hold instances whose optimal faces a solver must resolve
    exactly: a tie-break only approximated leaves residuals near 1e-7.
    """

    def test_200x50_instance(self):
        # bench/instances.make_spec(default_rng(113), 200, 50), written once.
        inst = load_instance(DATA / "make_spec_113_200x50.json")
        assert_certified_sum(inst, solve_ces(inst, Rho.one()))

    def test_seeded_sweep(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            inst = random_instance(rng, n_max=8, m_max=6)
            assert_certified_sum(inst, solve_ces(inst, Rho.one()))


class TestFiniteRhoInteriorPoint:
    """Finite-rho solves end in a few dozen interior-point iterations, judged by the oracle."""

    def test_normal_matrix_matches_dense_product(self):
        rng = np.random.default_rng(41)
        for n, m in ((4, 4), (6, 4), (40, 12), (200, 50)):
            W = sparse_instance(rng, n, m).weights
            h = rng.uniform(0.0, 10.0, W.shape[0])
            dense = W.T @ (W * h[:, None])
            assert np.allclose(_normal_matrix(W)(h), dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rv", [-2.0, 0.0, 0.5])
    def test_no_stall_200x50(self, rv):
        rho = Rho.finite(rv)
        for k in range(30):
            inst = sparse_instance(np.random.default_rng([1, 4, k]), 200, 50)
            res = solve_ces(inst, rho, max_iter=60)
            assert kkt_oracle(inst, rho, res.u_star, res.q) <= TOL_KKT, k
            s = np.array(inst.supplies)
            gap = np.abs(s - res.u_star @ inst.weights)
            priced = res.q > TOL_DUAL
            assert np.all(gap[priced] <= TOL_KKT * np.maximum(1.0, s[priced])), k


class TestCholeskySolves:
    """One Cholesky factor per system, solved by block substitution; the finish's rank rule."""

    @staticmethod
    def _spd(m, seed):
        rng = np.random.default_rng([43, m, seed])
        A = rng.standard_normal((m, m + 2))
        return A @ A.T + 1e-3 * np.eye(m), rng.standard_normal(m)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130, 200, 500])
    def test_matches_dense_solve(self, m):
        for seed in range(3):
            M, r = self._spd(m, seed)
            want = np.linalg.solve(M, r)
            bound = 100 * m * np.finfo(float).eps * np.linalg.cond(M) * np.abs(want).max()
            assert np.abs(_spd_solver(M)(r) - want).max() <= bound, seed

    @pytest.mark.parametrize("m", [1, 12, 50, _BLOCK])
    def test_one_block_is_two_triangular_solves(self, m):
        # Up to one block, every solve keeps the bits of solve(L^T, solve(L, r)).
        for seed in range(3):
            M, r = self._spd(m, seed)
            L = np.linalg.cholesky(M)
            assert np.array_equal(_cho_solver(L)(r), np.linalg.solve(L.T, np.linalg.solve(L, r)))

    def test_newton_step_factors_a_nonsingular_block(self):
        M, r = self._spd(130, 0)
        assert np.array_equal(_newton_step(M, r), _cho_solver(np.linalg.cholesky(M))(r))

    def test_finish_keeps_least_squares_on_rank_deficient_block(self, monkeypatch):
        # At rho = -1 the fixture's finish sees 6 tight goods and only 5 agents.
        blocks = []
        monkeypatch.setattr(solver, "_newton_step", lambda N, rhs: blocks.append((N, rhs)) or _newton_step(N, rhs))
        inst, rho = five_by_seven_instance(), Rho.finite(-1.0)
        res = solve_ces(inst, rho)
        assert kkt_oracle(inst, rho, res.u_star, res.q) <= TOL_KKT
        assert blocks
        factored = 0
        for N, rhs in blocks:
            assert np.linalg.matrix_rank(N) < len(N) == 6
            assert np.array_equal(_newton_step(N, rhs), np.linalg.lstsq(N, rhs, rcond=None)[0])
            factored += solver._cholesky(N) is not None
        # At least one block has a Cholesky factor: the rank rule, not a failed factorization, chose least squares.
        assert factored

    @pytest.mark.parametrize("rv", [-2.0, 0.5])
    def test_certified_1000x200(self, rv):
        # m = 200: every direction solve takes four blocks.
        inst, rho = sparse_instance(np.random.default_rng([1, 19]), 1000, 200), Rho.finite(rv)
        res = solve_ces(inst, rho)
        assert kkt_oracle(inst, rho, res.u_star, res.q) <= TOL_KKT
        s = np.array(inst.supplies)
        gap = np.abs(s - res.u_star @ inst.weights)
        priced = res.q > TOL_DUAL
        assert np.all(gap[priced] <= TOL_KKT * np.maximum(1.0, s[priced]))
