"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import bisect_maxmin, grid_search_welfare, random_instance
from tradepost import (
    BidMatrix,
    CurveFamily,
    Instance,
    PowerCurve,
    Rho,
    atp_allocate,
    ces_welfare,
    check_strategyproof_m1,
    construct_atp_rho_equilibrium,
    demo_bad_ne_m1,
    demo_m2_truthful_ne,
    deviation_sweep,
    five_by_seven_instance,
    maxmin_gamma,
    pce_to_tp,
    scale_curves,
    solve_ces,
    solve_maxmin,
    tp_to_pce,
    transform_bids,
    utilities,
    verify_pce,
    verify_tp_ne,
)

PROPERTY_SETTINGS = dict(max_examples=200, deadline=None, derandomize=True)


def _verdict(num: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num}] {status} — {detail}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures)


def _instances(seed: int, count: int, n_max: int, m_max: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    return [random_instance(rng, n_max=n_max, m_max=m_max) for _ in range(count)]


def test_criterion_1_counterexample_regression():
    failures = []
    start = time.perf_counter()
    truthful = five_by_seven_instance()
    lie = five_by_seven_instance(lie=True)

    for rv in (-2.0, -1.0, -0.5, 0.0):
        res = solve_ces(truthful, Rho.finite(rv))
        expected = 1.0 - 1.0 / ((1.5) ** (1.0 / (rv - 1.0)) + 1.0)
        if abs(res.u_star[3] - expected) > 1e-5:
            failures.append(f"rho={rv}: u4={res.u_star[3]:.7f} expected {expected:.7f}")

    res = solve_ces(truthful, Rho.finite(0.9))
    if abs(res.u_star[3] - 1.0 / 3.0) > 1e-5:
        failures.append(f"rho=0.9: u4={res.u_star[3]:.7f} expected 1/3")

    # The sum optimum is unique at u=(2/3,2/3,2/3,1/3,1/3); see
    # test_solver.py::TestSumOptimumCertificate for the exact dual certificate.
    res = solve_ces(truthful, Rho.one())
    if abs(res.u_star[3] - 1.0 / 3.0) > 1e-5:
        failures.append(f"rho=1: u[3]={res.u_star[3]:.7f} expected 1/3")

    for rv in (-2.0, -1.0, -0.5, 0.0, 0.9, 1.0):
        rho = Rho.one() if rv == 1.0 else Rho.finite(rv)
        res = solve_ces(lie, rho)
        if not np.allclose(res.u_star, 0.5, atol=1e-5):
            failures.append(f"lie rho={rv}: utilities {res.u_star} not all 0.5")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(1, failures, f"counterexample regression ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def criterion_2_3_instances():
    return _instances(seed=424242, count=50, n_max=10, m_max=10)


def test_criterion_2_equilibrium_construction(criterion_2_3_instances):
    failures = []
    start = time.perf_counter()
    for idx, inst in enumerate(criterion_2_3_instances):
        for rv in (-2.0, 0.0, 0.5):
            rho = Rho.finite(rv)
            res = solve_ces(inst, rho)
            bids, alloc = construct_atp_rho_equilibrium(inst, rho, solve=res)
            unit = CurveFamily.atp(rv, inst.m)
            report = verify_tp_ne(inst, unit, bids, tol=1e-6)
            if not report.is_ne:
                failures.append(f"#{idx} rho={rv}: {report.violated_condition}")
                continue
            gain, witness = deviation_sweep(inst, unit, bids, rng=None)
            if gain > 1e-6:
                failures.append(f"#{idx} rho={rv}: deviation gain {gain:.2e}")
            welfare = ces_welfare(rho, utilities(inst, alloc))
            rel = abs(welfare - res.objective) / max(1.0, abs(res.objective))
            if rel > 1e-5:
                failures.append(f"#{idx} rho={rv}: welfare gap {rel:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(2, failures, f"150 constructed equilibria verified ({elapsed:.1f}s)")


def test_criterion_3_reduction_round_trips(criterion_2_3_instances):
    failures = []
    for idx, inst in enumerate(criterion_2_3_instances):
        for rv in (-2.0, 0.0, 0.5):
            rho = Rho.finite(rv)
            res = solve_ces(inst, rho)
            bids, alloc = construct_atp_rho_equilibrium(inst, rho, solve=res)
            unit = CurveFamily.atp(rv, inst.m)

            x1, g = tp_to_pce(inst, unit, bids, tol=1e-6)
            rep = verify_pce(inst, g, x1, tol=1e-6)
            if not rep.is_pce:
                failures.append(f"#{idx} rho={rv} tp2pc: {rep.violated_condition}")
                continue

            # Solver output as a priced allocation, back to bids.
            g_solver = CurveFamily(
                PowerCurve(qj if qj > 1e-8 else 0.0, 1.0 - rv) for qj in res.q
            )
            f2, b2 = pce_to_tp(inst, g_solver, res.x_star, PowerCurve(1.0, 1.0 - rv), tol=1e-6)
            rep2 = verify_tp_ne(inst, f2, b2, tol=1e-6)
            if not rep2.is_ne:
                failures.append(f"#{idx} rho={rv} pc2tp: {rep2.violated_condition}")
                continue

            # Composed round trip preserves utilities.
            f3, b3 = pce_to_tp(inst, g, x1, PowerCurve(1.0, 1.0 - rv), tol=1e-6)
            x3 = atp_allocate(inst, f3, b3)
            drift = np.max(np.abs(utilities(inst, x3) - utilities(inst, alloc)))
            if drift > 1e-6:
                failures.append(f"#{idx} rho={rv}: round-trip utility drift {drift:.2e}")
    _verdict(3, failures, "150 reduction round trips")


def test_criterion_4_scaling_invariance():
    failures = []
    rng = np.random.default_rng(777)
    for idx in range(100):
        inst = random_instance(rng, n_max=8, m_max=8)
        rv = float(rng.choice([-2.0, -1.0, 0.0, 0.5]))
        rho = Rho.finite(rv)
        bids, alloc = construct_atp_rho_equilibrium(inst, rho)
        unit = CurveFamily.atp(rv, inst.m)
        a = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=inst.m))
        f2 = scale_curves(unit, a)
        b2 = transform_bids(bids, a, unit.degrees)
        x2 = atp_allocate(inst, f2, b2)
        diff = float(np.max(np.abs(x2.x - alloc.x)))
        if diff > 1e-9:
            failures.append(f"#{idx}: allocation moved by {diff:.2e}")
        v1 = verify_tp_ne(inst, unit, bids).is_ne
        v2 = verify_tp_ne(inst, f2, b2).is_ne
        if v1 != v2:
            failures.append(f"#{idx}: verdict changed {v1} -> {v2}")
    _verdict(4, failures, "100 scaled triples reproduce allocation and verdict")


def test_criterion_5_solver_oracle_equivalence():
    failures = []
    instances = _instances(seed=20240901, count=20, n_max=4, m_max=4)
    worst_gap = 0.0
    for idx, inst in enumerate(instances):
        for rv in (-1.0, 0.0, 0.5):
            rho = Rho.finite(rv)
            res = solve_ces(inst, rho)
            if res.kkt_residual > 1e-7:
                failures.append(f"#{idx} rho={rv}: KKT residual {res.kkt_residual:.2e}")
            grid = grid_search_welfare(inst, rho, step=1e-3)
            gap = abs(res.objective - grid)
            worst_gap = max(worst_gap, gap)
            if gap > 2e-3:
                failures.append(f"#{idx} rho={rv}: |objective-grid| = {gap:.2e}")
    _verdict(5, failures, f"20 instances x 3 rho vs grid oracle (worst gap {worst_gap:.1e})")


def test_criterion_6_maxmin_mechanisms():
    failures = []
    start = time.perf_counter()

    rng = np.random.default_rng(987654)
    for idx in range(100):
        inst = random_instance(rng, n_max=8, m_max=8)
        res = solve_maxmin(inst)
        oracle = bisect_maxmin(inst)
        if abs(res.objective - oracle) > 1e-9:
            failures.append(f"maxmin #{idx}: {res.objective} vs bisection {oracle}")

    for idx, inst in enumerate(_instances(seed=555, count=20, n_max=5, m_max=5)):
        sets = [set(r) for r in inst.desired]
        for i in range(inst.n):
            found = check_strategyproof_m1(inst.m, list(inst.supplies), sets, i)
            if found is not None:
                failures.append(f"strategyproofness #{idx} agent {i}: {found}")

    for n in (2, 3, 4):
        rep = demo_bad_ne_m1(n)
        if not rep["all_goods_is_equilibrium"] or not rep["truthful_is_equilibrium"]:
            failures.append(f"bad-ne n={n}: equilibrium checks failed")
        if abs(rep["ratio"] - n) > 1e-9:
            failures.append(f"bad-ne n={n}: ratio {rep['ratio']}")

    rng = np.random.default_rng(31415)
    checked = 0
    while checked < 6:
        inst = random_instance(rng, n_max=3, m_max=3)
        rep = demo_m2_truthful_ne(list(inst.supplies), [set(r) for r in inst.desired])
        if rep["mode"] != "exhaustive":
            continue
        checked += 1
        if not rep["is_nash_equilibrium"]:
            failures.append(f"m2 truthful NE failed: {rep['witness']}")
        gamma = solve_maxmin(inst).objective
        if abs(rep["welfare"] - gamma) > 1e-9:
            failures.append(f"m2 welfare {rep['welfare']} != maxmin {gamma}")

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(6, failures, f"maxmin mechanisms ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 7: property suites, >= 200 cases each.
# ---------------------------------------------------------------------------


@st.composite
def grid_profile(draw):
    """Small instance plus a feasible bid profile on a 0.25 grid."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    supplies = [draw(st.sampled_from([1.0, 2.0])) for _ in range(m)]
    desired = []
    for _ in range(n):
        size = draw(st.integers(1, m))
        goods = draw(
            st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True)
        )
        desired.append(set(goods))
    for j in range(m):
        if not any(j in r for r in desired):
            desired[draw(st.integers(0, n - 1))].add(j)
    inst = Instance(supplies, desired)
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            if j in desired[i]:
                cell = draw(st.sampled_from(["zero", "beta", 0.25, 0.5, 0.75, 1.0]))
            else:
                cell = draw(st.sampled_from(["zero", 0.25]))
            row.append(0.0 if cell == "zero" else cell)
        rows.append(row)
    return inst, BidMatrix.from_lists(rows)


@settings(**PROPERTY_SETTINGS)
@given(grid_profile())
def prop_equilibrium_conditions_match_deviation_oracle(case):
    inst, bids = case
    f = CurveFamily.linear(inst.m)
    if np.any(f.cost_rows(bids.amounts) > 1.0):
        assume(False)
    x = atp_allocate(inst, f, bids)
    u = utilities(inst, x)
    caps = np.array([min(inst.supplies[j] for j in r) for r in inst.desired])
    # The equivalence presumes competition: an agent already at her utility
    # cap can be stable without exhausting her budget.
    assume(not np.any(u >= caps - 1e-9))
    report = verify_tp_ne(inst, f, bids, tol=1e-6)
    gain, _ = deviation_sweep(inst, f, bids, rng=None)
    big = max(1.0, max(inst.supplies))
    assert (gain <= 1e-6 * big) == report.is_ne, (
        f"is_ne={report.is_ne} but best deviation gain={gain:.3e} "
        f"({report.violated_condition})"
    )


@settings(**PROPERTY_SETTINGS)
@given(grid_profile())
def prop_paid_goods_clear_exactly(case):
    inst, bids = case
    f = CurveFamily.linear(inst.m)
    if np.any(f.cost_rows(bids.amounts) > 1.0):
        assume(False)
    x = atp_allocate(inst, f, bids)
    # The penalty wipes whole rows including their step-1 shares, so exact
    # clearing is a property of penalty-free outcomes (always the case at
    # equilibrium).
    penalized = (x.x.sum(axis=1) == 0) & (bids.amounts.sum(axis=1) > 0)
    assume(not penalized.any())
    paid = bids.amounts.sum(axis=0) > 0
    totals = x.x.sum(axis=0)
    for j in range(inst.m):
        if paid[j]:
            assert totals[j] == pytest.approx(inst.supplies[j], rel=1e-12)


@settings(**PROPERTY_SETTINGS)
@given(st.integers(0, 10**9), st.sampled_from([-2.0, -1.0, 0.0, 0.5]))
def prop_equilibria_give_positive_utility(seed, rv):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_max=5, m_max=5)
    bids, alloc = construct_atp_rho_equilibrium(inst, Rho.finite(rv))
    assert np.all(utilities(inst, alloc) > 0)


@settings(**PROPERTY_SETTINGS)
@given(st.integers(0, 10**9))
def prop_enlarging_report_never_raises_level(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_max=6, m_max=6)
    sets = [set(r) for r in inst.desired]
    gamma, _ = maxmin_gamma(inst.supplies, sets)
    i = int(rng.integers(inst.n))
    extra = set(rng.choice(inst.m, size=int(rng.integers(1, inst.m + 1)), replace=False).tolist())
    enlarged = [set(r) for r in sets]
    enlarged[i] |= extra
    gamma2, _ = maxmin_gamma(inst.supplies, enlarged)
    assert gamma2 <= gamma + 1e-12


@settings(**PROPERTY_SETTINGS)
@given(
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
    st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0]),
    st.integers(0, 5),
    st.floats(0.01, 2.0),
    st.randoms(use_true_random=False),
)
def prop_welfare_symmetric_and_monotone(u, rv, idx, bump, rnd):
    rho = Rho.one() if rv == 1.0 else Rho.finite(rv)
    shuffled = list(u)
    rnd.shuffle(shuffled)
    assert ces_welfare(rho, shuffled) == pytest.approx(ces_welfare(rho, u), rel=1e-9)
    bumped = list(u)
    bumped[idx % len(u)] += bump
    assert ces_welfare(rho, bumped) >= ces_welfare(rho, u) - 1e-12


def test_criterion_7_property_suites():
    failures = []
    suites = [
        ("equilibrium conditions vs deviation oracle", prop_equilibrium_conditions_match_deviation_oracle),
        ("paid goods clear exactly", prop_paid_goods_clear_exactly),
        ("equilibria give positive utility", prop_equilibria_give_positive_utility),
        ("enlarging a report never raises the level", prop_enlarging_report_never_raises_level),
        ("welfare symmetry and monotonicity", prop_welfare_symmetric_and_monotone),
    ]
    for name, suite in suites:
        try:
            suite()
        except Exception as exc:  # noqa: BLE001 - reported via the verdict
            failures.append(f"{name}: {exc}")
    _verdict(7, failures, "5 property suites, 200 cases each")
