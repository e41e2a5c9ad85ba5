"""Self-test of the benchmark: each check passes on the program's output and
fails on a perturbed copy, and the tracer nests and removes its spans.

    python3 -m pytest bench/selftest.py -q

The file name keeps it out of the package's own test collection.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from instances import Spec, make_spec  # noqa: E402
from tracing import Tracer  # noqa: E402

import tradepost  # noqa: E402
from tradepost import CurveFamily, PowerCurve, Rho  # noqa: E402

RHO = -1.0


@pytest.fixture(scope="module")
def spec() -> Spec:
    return make_spec(np.random.default_rng(5), 30, 8)


@pytest.fixture(scope="module")
def inst(spec):
    return tradepost.Instance(spec.supplies, spec.desired)


@pytest.fixture(scope="module")
def solved(inst):
    return tradepost.solve_ces(inst, Rho.finite(RHO))


@pytest.fixture(scope="module")
def equilibrium(inst, solved):
    bids, _ = tradepost.construct_atp_rho_equilibrium(inst, Rho.finite(RHO), solve=solved)
    return bids


def test_kkt_certificate(spec, solved):
    u, q = solved.u_star, solved.q
    assert checks.kkt_certificate(spec, RHO, u, q) is None
    assert "stationarity" in checks.kkt_certificate(spec, RHO, u * 0.99, q)
    assert "oversubscribed" in checks.kkt_certificate(spec, RHO, u * 1.01, q)
    assert checks.kkt_certificate(spec, RHO, u, q * 1.01) is not None
    assert checks.kkt_certificate(spec, RHO, u, -q) is not None
    slack = q.copy()
    j = int(np.argmin(spec.incidence().sum(axis=0)))
    slack[j] += 0.5
    assert checks.kkt_certificate(spec, RHO, u, slack) is not None


def test_lp_duality():
    inst = tradepost.five_by_seven_instance()
    spec = Spec(inst.supplies, tuple(tuple(sorted(r)) for r in inst.desired))
    res = tradepost.solve_ces(inst, Rho.one())
    assert checks.lp_duality(spec, res.u_star, res.q) is None
    assert "duality gap" in checks.lp_duality(spec, res.u_star * 0.99, res.q)
    assert "dual infeasible" in checks.lp_duality(spec, res.u_star, res.q * 0.9)
    assert "oversubscribed" in checks.lp_duality(spec, res.u_star * 1.01, res.q)


def test_objective_matches(solved):
    assert checks.objective_matches(RHO, solved.u_star, solved.objective) is None
    assert checks.objective_matches(RHO, solved.u_star, solved.objective * 1.01) is not None
    assert checks.objective_matches(RHO, solved.u_star * 0.99, solved.objective) is not None


def _halve_agent(bids: list, i: int) -> list:
    out = [list(row) for row in bids]
    out[i] = [cell if cell == "beta" else cell / 2 for cell in out[i]]
    return out


def test_unit_budgets(equilibrium):
    bids = equilibrium.to_lists()
    assert checks.unit_budgets(bids, RHO) is None
    assert "agent 3" in checks.unit_budgets(_halve_agent(bids, 3), RHO)


def test_shares_match(spec, solved, equilibrium):
    bids = equilibrium.to_lists()
    assert checks.shares_match(spec, bids, solved.u_star) is None
    assert checks.shares_match(spec, bids, solved.u_star * 0.99) is not None
    assert checks.shares_match(spec, _halve_agent(bids, 3), solved.u_star) is not None


def test_close_and_flags():
    assert checks.close("welfare", 0.5, 0.5) is None
    assert checks.close("welfare", 0.5 * (1 + 1e-4), 0.5) is not None
    assert checks.is_true({"is_ne": True}, "is_ne") is None
    assert checks.is_true({"is_ne": False}, "is_ne") is not None
    assert checks.is_true({}, "is_ne") is not None


def test_tp2pc_curves(spec, inst, equilibrium):
    _, g = tradepost.tp_to_pce(inst, CurveFamily.atp(RHO, inst.m), equilibrium)
    curves = [[c.coeff, c.degree] for c in g]
    bids = equilibrium.to_lists()
    assert checks.tp2pc_curves(spec, bids, RHO, curves) is None
    j = next(k for k, (coeff, _) in enumerate(curves) if coeff > 0)
    scaled = [list(c) for c in curves]
    scaled[j][0] *= 1.01
    assert checks.tp2pc_curves(spec, bids, RHO, scaled) is not None
    steeper = [list(c) for c in curves]
    steeper[j][1] += 0.5
    assert checks.tp2pc_curves(spec, bids, RHO, steeper) is not None
    assert checks.tp2pc_curves(spec, _halve_agent(bids, 3), RHO, curves) is not None


def test_pc2tp_bids(spec, inst, solved):
    q = np.where(solved.q > tradepost.TOL_DUAL, solved.q, 0.0)
    g = CurveFamily(PowerCurve(float(v), 1.0 - RHO) for v in q)
    _, program_bids = tradepost.pce_to_tp(inst, g, solved.x_star, PowerCurve(1.0, 1.0 - RHO))
    curves = [[float(v), 1.0 - RHO] for v in q]
    allocation = solved.x_star.x.tolist()
    bids = program_bids.to_lists()
    assert checks.pc2tp_bids(spec, curves, allocation, bids) is None
    # The fixture instance has a zero-priced good, so some bid is beta.
    i, j = next((i, j) for i in range(spec.n) for j in range(spec.m) if bids[i][j] == "beta")
    dropped = [list(row) for row in bids]
    dropped[i][j] = 0.0
    assert checks.pc2tp_bids(spec, curves, allocation, dropped) is not None
    i, j = next((i, j) for i in range(spec.n) for j in range(spec.m) if q[j] > 0 and allocation[i][j] > 0)
    misplaced = [list(row) for row in bids]
    misplaced[i][j] = "beta"
    assert checks.pc2tp_bids(spec, curves, allocation, misplaced) is not None
    changed = [list(row) for row in bids]
    changed[i][j] = allocation[i][j] * 0.5
    assert checks.pc2tp_bids(spec, curves, allocation, changed) is not None


def test_sweep_gain(spec, inst, equilibrium):
    gain, _ = tradepost.deviation_sweep(inst, CurveFamily.atp(RHO, inst.m), equilibrium)
    assert checks.sweep_gain(spec, gain) is None
    assert checks.sweep_gain(spec, 1e-3) is not None
    assert checks.sweep_gain(spec, float("nan")) is not None


def test_at_most(solved):
    optimum = checks.ces_welfare(RHO, solved.u_star)
    assert checks.at_most("final welfare", optimum * 0.9, optimum) is None
    assert checks.at_most("final welfare", optimum * 1.01, optimum) is not None


def test_tracer_nests_spans_and_restores_functions(inst):
    from tradepost import cli, equilibrium

    unit = CurveFamily.atp(RHO, inst.m)
    original = (cli.tp_to_pce, equilibrium.verify_tp_ne, equilibrium.atp_allocate)
    with Tracer() as tracer:
        tracer.op = 7
        bids, _ = equilibrium.construct_atp_rho_equilibrium(inst, Rho.finite(RHO))
        cli.tp_to_pce(inst, unit, bids)
    assert (cli.tp_to_pce, equilibrium.verify_tp_ne, equilibrium.atp_allocate) == original
    names = [span[0] for span in tracer.spans]
    assert "solver.solve_ces_finite" in names and "equilibrium.pce_to_tp" in names
    outer = names.index("equilibrium.tp_to_pce")
    children = [span[0] for span in tracer.spans if span[3] == outer]
    assert children == ["equilibrium.verify_tp_ne", "trading_post.atp_allocate"]
    assert all(span[4] == 7 for span in tracer.spans)
    summary = tracer.summary()
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["total_s"]
    tp = summary["equilibrium.tp_to_pce"]
    assert tp["self_s"] < tp["total_s"]
