import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from tradepost import (
    ReportMatrix,
    Rho,
    check_strategyproof_m1,
    demo_bad_ne_m1,
    demo_m2_truthful_ne,
    demo_not_strategyproof_ces,
    five_by_seven_instance,
    maxmin_gamma,
    mechanism1,
    mechanism2,
)

COMMON = dict(deadline=None, derandomize=True)


class TestMechanism1:
    def test_truthful_singletons(self):
        x = mechanism1(3, [1.0] * 3, [{0}, {1}, {2}])
        assert np.allclose(np.diag(x.x), 1.0)
        assert x.x.sum() == pytest.approx(3.0)

    def test_everyone_claims_everything(self):
        x = mechanism1(3, [1.0] * 3, [{0, 1, 2}] * 3)
        assert np.allclose(x.x, 1.0 / 3.0)

    def test_strict_subset_report_starves_reporter(self):
        # Agent 0 really needs goods {0, 1} but reports only {0}: she gets
        # nothing on good 1, so her true utility is 0.
        x = mechanism1(2, [1.0, 1.0], [{0}, {1}])
        true_utility = min(x.x[0, j] for j in (0, 1))
        assert true_utility == 0.0

    def test_empty_report_gets_nothing_and_is_excluded(self):
        x = mechanism1(2, [1.0, 1.0], [set(), {0, 1}])
        assert np.allclose(x.x[0], 0.0)
        assert np.allclose(x.x[1], 1.0)

    def test_all_empty_reports_zero_allocation(self):
        x = mechanism1(2, [1.0, 1.0], [set(), set()])
        assert np.allclose(x.x, 0.0)

    def test_equal_reported_utilities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_instance(rng, n_max=5, m_max=5)
            x = mechanism1(inst.m, list(inst.supplies), [set(r) for r in inst.desired])
            gamma, _ = maxmin_gamma(inst.supplies, inst.desired)
            for i, r in enumerate(inst.desired):
                level = min(x.x[i, j] for j in r)
                assert level == pytest.approx(gamma)

    @settings(max_examples=200, **COMMON)
    @given(st.integers(0, 100_000))
    def test_enlarging_a_report_never_raises_the_level(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_max=5, m_max=5)
        sets = [set(r) for r in inst.desired]
        gamma, _ = maxmin_gamma(inst.supplies, sets)
        i = int(rng.integers(inst.n))
        extra = set(rng.choice(inst.m, size=int(rng.integers(1, inst.m + 1)), replace=False).tolist())
        enlarged = [set(r) for r in sets]
        enlarged[i] |= extra
        gamma2, _ = maxmin_gamma(inst.supplies, enlarged)
        assert gamma2 <= gamma + 1e-12


class TestMechanism2:
    def test_unanimous_truthful_matches_mechanism1(self):
        sets = [{0}, {1}, {2}]
        x1 = mechanism1(3, [1.0] * 3, sets)
        x2, state = mechanism2(3, [1.0] * 3, ReportMatrix.unanimous(sets))
        assert np.array_equal(x1.x, x2.x)
        assert state.nbar == frozenset()
        assert state.alpha == (1.0, 1.0, 1.0)
        assert state.eta == (0, 0, 0)

    def test_self_shrink_excludes_everyone_else(self):
        base = ReportMatrix.unanimous([{0, 1}, {1}, {2}])
        trial = base.replace_row(0, [{0}, {1}, {2}])
        x, state = mechanism2(3, [1.0, 1.0, 1.0], trial)
        assert sorted(state.nbar) == [1, 2]
        assert state.alpha[0] == 1.0
        assert state.alpha[1] == 0.0 and state.alpha[2] == 0.0
        # Agent 0 alone gets her maximum level min over {0} of the supply.
        assert x.x[0, 0] == pytest.approx(1.0)
        assert np.allclose(x.x[1:], 0.0)

    def test_overclaimer_gets_zero(self):
        base = ReportMatrix.unanimous([{0}, {1}])
        trial = base.replace_row(1, [{0, 1}, {1}])  # claims extra for agent 0
        x, state = mechanism2(2, [1.0, 1.0], trial)
        assert 1 in state.nbar
        assert state.alpha[1] == 0.0
        assert np.allclose(x.x[1], 0.0)

    def test_alpha_bounds_and_penalty_formula(self):
        base = ReportMatrix.unanimous([{0, 1}, {1}])
        trial = base.replace_row(1, [{0}, {1}])  # disagrees (subset) about 0
        x, state = mechanism2(2, [1.0, 1.0], trial)
        assert state.nbar == frozenset()
        assert state.eta == (0, 1)
        assert state.alpha == (1.0, 0.5)
        assert all(0.0 <= a <= 1.0 for a in state.alpha)

    def test_all_goods_profile_not_an_equilibrium(self):
        # Everyone claims everything for everyone; shrinking one's own claim
        # to the true singleton throws all others out and is profitable.
        n = 3
        everything = set(range(n))
        base = ReportMatrix.unanimous([everything] * n)
        x0, _ = mechanism2(n, [1.0] * n, base)
        before = min(x0.x[0, j] for j in {0})
        trial = base.replace_row(0, [{0}, everything, everything])
        x1, state = mechanism2(n, [1.0] * n, trial)
        after = min(x1.x[0, j] for j in {0})
        assert state.nbar == frozenset({1, 2})
        assert after > before + 0.5


class TestStrategyproofness:
    def test_no_beneficial_deviation_random(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            inst = random_instance(rng, n_max=5, m_max=5)
            sets = [set(r) for r in inst.desired]
            for i in range(inst.n):
                assert check_strategyproof_m1(inst.m, list(inst.supplies), sets, i) is None

    def test_reporting_everything_not_strictly_better(self):
        sets = [{0}, {1}, {2}]
        out = check_strategyproof_m1(3, [1.0] * 3, sets, 0)
        assert out is None

    def test_cap_on_goods(self):
        with pytest.raises(ValueError):
            check_strategyproof_m1(13, [1.0] * 13, [{0}], 0)


class TestDemos:
    def test_bad_ne_cap_before_enumeration(self, monkeypatch):
        from tradepost import maxmin

        def enumerated(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(maxmin, "_all_subsets", enumerated)
        monkeypatch.setattr(maxmin, "mechanism1", enumerated)
        with pytest.raises(ValueError, match="exhaustive search limited"):
            demo_bad_ne_m1(maxmin.MAX_EXHAUSTIVE_GOODS + 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bad_ne_ratio(self, n):
        rep = demo_bad_ne_m1(n)
        assert rep["all_goods_is_equilibrium"]
        assert rep["truthful_is_equilibrium"]
        assert rep["ratio"] == pytest.approx(n, abs=1e-9)
        assert rep["all_goods_maxmin"] == pytest.approx(1.0 / n)
        assert rep["optimal_maxmin"] == pytest.approx(1.0)

    def test_m2_truthful_ne_exhaustive(self):
        rep = demo_m2_truthful_ne([1.0, 1.0], [{0}, {1}])
        assert rep["is_nash_equilibrium"]
        assert rep["mode"] == "exhaustive"
        assert rep["welfare"] == pytest.approx(1.0)

    def test_m2_truthful_ne_shared_goods(self):
        rep = demo_m2_truthful_ne([1.0, 2.0], [{0, 1}, {1}])
        assert rep["is_nash_equilibrium"]
        assert rep["welfare"] == pytest.approx(rep["optimal"])

    def test_m2_sampled_mode(self):
        rng = np.random.default_rng(0)
        rep = demo_m2_truthful_ne(
            [1.0] * 4,
            [{0, 1}, {1, 2}, {2, 3}, {0, 3}],
            samples=300,
            rng=rng,
        )
        assert rep["mode"] == "sampled"
        assert rep["is_nash_equilibrium"]

    @pytest.mark.parametrize("m", range(11))
    def test_nth_subset_is_the_enumeration_order(self, m):
        from tradepost import maxmin

        subsets = maxmin._all_subsets(m)
        assert [maxmin._nth_subset(m, k) for k in range(2**m)] == subsets

    def test_m2_sampled_mode_draws_rows_without_enumerating(self, monkeypatch):
        """Sampled mode tries the rows the 2^m list gave, from the same draws."""
        from tradepost import maxmin

        supplies, sets, samples = [1.0, 2.0, 1.0, 1.0, 3.0, 1.0], [{0, 1}, {1, 2, 5}, {3, 4}], 40
        subsets, draws = maxmin._all_subsets(6), np.random.default_rng(7)
        drawn = [[subsets[int(draws.integers(2**6))] for _ in sets] for _ in range(samples)]

        def enumerated(*args):
            raise AssertionError("all subsets built")

        tried = []
        replace_row = ReportMatrix.replace_row
        monkeypatch.setattr(maxmin, "_all_subsets", enumerated)
        monkeypatch.setattr(
            ReportMatrix, "replace_row", lambda self, i, row: tried.append(row) or replace_row(self, i, row)
        )
        rep = demo_m2_truthful_ne(supplies, sets, samples=samples, rng=np.random.default_rng(7))
        assert rep == {
            "is_nash_equilibrium": True,
            "welfare": 1.0,
            "optimal": 1.0,
            "mode": "sampled",
            "deviations_checked": 120,
            "witness": None,
        }
        assert tried == drawn * len(sets)

    def test_m2_too_many_goods_rejected_before_work(self, monkeypatch):
        from tradepost import maxmin

        def worked(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(maxmin, "mechanism2", worked)
        monkeypatch.setattr(maxmin, "maxmin_gamma", worked)
        with pytest.raises(ValueError, match="64-bit"):
            demo_m2_truthful_ne([1.0] * 63, [{0}], samples=1)

    @pytest.mark.parametrize("rv", [-1.0, 0.0, 0.9])
    def test_not_strategyproof_demo(self, rv):
        rep = demo_not_strategyproof_ces(Rho.finite(rv))
        assert rep["truthful_u4"] < 0.5
        assert rep["lie_u4"] >= 0.5 - 1e-6
        assert rep["gain"] > 0

    def test_not_strategyproof_demo_sum_objective(self):
        rep = demo_not_strategyproof_ces(Rho.one())
        assert rep["truthful_u4"] < 0.5
        assert rep["lie_u4"] == pytest.approx(0.5, abs=1e-6)

    def test_fixture_shape(self):
        inst = five_by_seven_instance()
        assert inst.n == 5 and inst.m == 7
        assert inst.supplies[6] == 2.0
        assert all(s == 1.0 for s in inst.supplies[:6])
        lie = five_by_seven_instance(lie=True)
        assert 6 in lie.desired[3] and 6 not in inst.desired[3]
