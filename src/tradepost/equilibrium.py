"""Equilibrium verification and the reduction between the two market views.

A bid profile is a Nash equilibrium of the trading-post game exactly when (1)
on every good somebody pays for, each agent's share equals her weight times
her utility, and (2) every agent exhausts her bid budget.  An allocation plus
price curves is a market equilibrium when the analogous conditions hold for
purchases, plus market clearing on positively-priced goods.  These two views
convert into each other: aggregate bids act as prices, and homogeneous curve
scaling bridges instance-dependent curves back to the fixed unit family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Allocation, Instance, Rho, ces_welfare, utilities
from .solver import TOL_DUAL, SolveResult, solve_ces
from .trading_post import (
    Bid,
    BidMatrix,
    CurveFamily,
    PowerCurve,
    atp_allocate,
    best_response,
)

#: Relative tolerance (against max(1, s_j)) for the equality checks below.
TOL_EQ = 1e-6


class NotAnEquilibrium(ValueError):
    """Input to a reduction failed its equilibrium precondition."""


@dataclass(frozen=True)
class DeviationWitness:
    agent: int
    bids: tuple[Bid, ...]
    gain: float


@dataclass(frozen=True)
class NeReport:
    """Outcome of trading-post equilibrium verification."""

    is_ne: bool
    violated_condition: str | None = None
    deviation_witness: DeviationWitness | None = None


@dataclass(frozen=True)
class PceReport:
    """Outcome of price-curve equilibrium verification."""

    is_pce: bool
    violated_condition: str | None = None


def verify_tp_ne(
    inst: Instance,
    f: CurveFamily,
    bids: BidMatrix,
    *,
    tol: float = TOL_EQ,
    deviation_check: bool = False,
    rng: np.random.Generator | None = None,
) -> NeReport:
    """Check the two equilibrium conditions on a trading-post bid profile.

    With ``deviation_check`` the verdict is cross-checked against a best
    response sweep and a disagreement raises ``RuntimeError``.  The sweep is
    meaningful on competitive profiles; an agent who already holds the entire
    supply of every good she values can be stable without exhausting her
    budget, and such profiles are the caller's responsibility to avoid.
    """
    f.require_constraint_curves()
    x = atp_allocate(inst, f, bids)
    s = inst.supply_array
    scale = np.maximum(1.0, s)
    u = utilities(inst, x)

    report: NeReport | None = None
    target = inst.weights * u[:, None]
    priced = bids.amounts.sum(axis=0) > 0
    err = np.abs(x.x - target) / scale[None, :]
    err[:, ~priced] = 0.0
    worst = np.unravel_index(np.argmax(err), err.shape)
    if err[worst] > tol:
        i, j = int(worst[0]), int(worst[1])
        report = NeReport(
            False,
            violated_condition=(
                f"condition 1: agent {i} holds {float(x.x[i, j])!r} of good {j}, "
                f"expected {float(target[i, j])!r} (gap {err[worst]:.3e})"
            ),
        )

    if report is None:
        costs = f.cost_rows(bids.amounts)
        gaps = np.abs(costs - 1.0)
        i = int(np.argmax(gaps))
        if gaps[i] > tol:
            report = NeReport(
                False,
                violated_condition=f"condition 2: agent {i} bid cost {float(costs[i])!r} != 1",
            )

    if report is None:
        report = NeReport(True)

    if deviation_check:
        gain, witness = deviation_sweep(inst, f, bids, rng=rng)
        found = gain > tol * max(1.0, float(s.max()))
        if found == report.is_ne:
            raise RuntimeError(
                "internal error: equilibrium conditions and deviation oracle disagree "
                f"(is_ne={report.is_ne}, best gain={gain:.3e})"
            )
        if found:
            report = NeReport(False, report.violated_condition, witness)

    return report


def deviation_sweep(
    inst: Instance,
    f: CurveFamily,
    bids: BidMatrix,
    *,
    rng: np.random.Generator | None = None,
    n_random: int = 200,
) -> tuple[float, DeviationWitness | None]:
    """Best utility gain any single agent can realize, and how.

    Per agent: the bisection best response, plus ``n_random`` perturbed rows
    as a guard against oracle blind spots.
    """
    base = utilities(inst, atp_allocate(inst, f, bids))
    best_gain = -math.inf
    witness: DeviationWitness | None = None
    for i in range(inst.n):
        row, value = best_response(inst, f, bids, i)
        gain = value - base[i]
        if gain > best_gain:
            best_gain, witness = gain, DeviationWitness(i, row, gain)
        if rng is None or n_random <= 0:
            continue
        amounts, beta = bids.amounts.copy(), bids.beta.copy()
        for _ in range(n_random):
            amounts[i], beta[i] = _random_row(inst, f, i, rng)
            trial = BidMatrix(amounts, beta)
            gain = float(utilities(inst, atp_allocate(inst, f, trial, check_budgets=False))[i]) - base[i]
            if gain > best_gain:
                best_gain, witness = gain, DeviationWitness(i, trial.row(i), gain)

    return best_gain, witness


def _random_row(
    inst: Instance, f: CurveFamily, i: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A random budget-feasible (amounts, beta) row biased toward the agent's desired goods."""
    amounts = np.zeros(inst.m)
    beta = np.zeros(inst.m, dtype=bool)
    desired = sorted(inst.desired[i])
    for j in desired:
        mode = rng.random()
        if mode < 0.15:
            beta[j] = True
        elif mode >= 0.25:
            amounts[j] = rng.uniform(0.01, 1.0)
    cost = f.cost_rows(amounts[None, :])[0]
    if cost > 0:
        budget = rng.uniform(0.3, 1.0)
        degrees = f.degrees
        for j in desired:
            if amounts[j] > 0:
                # Scale each term so the row cost lands on `budget`.
                amounts[j] *= (budget / cost) ** (1.0 / degrees[j])
    return amounts, beta


def verify_pce(
    inst: Instance,
    g: CurveFamily,
    x: Allocation,
    *,
    tol: float = TOL_EQ,
) -> PceReport:
    """Check demand-set membership, exhausted budgets, and market clearing."""
    if x.x.shape != (inst.n, inst.m):
        raise ValueError("allocation shape mismatch")
    s = inst.supply_array
    scale = np.maximum(1.0, s)
    u = utilities(inst, x)
    nonzero = np.array([not c.is_zero for c in g])

    target = inst.weights * u[:, None]
    err = np.abs(x.x - target) / scale[None, :]
    err[:, ~nonzero] = 0.0
    worst = np.unravel_index(np.argmax(err), err.shape)
    if err[worst] > tol:
        i, j = int(worst[0]), int(worst[1])
        return PceReport(
            False,
            violated_condition=(
                f"condition 1: agent {i} buys {float(x.x[i, j])!r} of good {j}, "
                f"expected {float(target[i, j])!r}"
            ),
        )

    costs = g.cost_rows(x.x)
    gaps = np.abs(costs - 1.0)
    i = int(np.argmax(gaps))
    if gaps[i] > tol:
        return PceReport(
            False, violated_condition=f"condition 2: agent {i} spends {float(costs[i])!r} != 1"
        )

    totals = x.x.sum(axis=0)
    over = (totals - s) / scale
    j = int(np.argmax(over))
    if over[j] > tol:
        return PceReport(
            False,
            violated_condition=f"condition 3: good {j} oversold ({float(totals[j])!r} > {float(s[j])!r})",
        )
    slack = np.where(nonzero, np.abs(totals - s) / scale, 0.0)
    j = int(np.argmax(slack))
    if slack[j] > tol:
        return PceReport(
            False,
            violated_condition=(
                f"condition 3: priced good {j} does not clear "
                f"({float(totals[j])!r} != {float(s[j])!r})"
            ),
        )
    return PceReport(True)


def tp_to_pce(
    inst: Instance,
    f: CurveFamily,
    bids: BidMatrix,
    *,
    tol: float = TOL_EQ,
) -> tuple[Allocation, CurveFamily]:
    """Convert an equilibrium bid profile into an equivalent priced allocation.

    The aggregate bid on each good, measured against the supply, scales the
    constraint curve into that good's price curve; unpaid goods get the zero
    curve.  The input must verify as an equilibrium.
    """
    report = verify_tp_ne(inst, f, bids, tol=tol)
    if not report.is_ne:
        raise NotAnEquilibrium(f"bid profile is not an equilibrium: {report.violated_condition}")
    s = inst.supply_array
    col = bids.amounts.sum(axis=0)
    curves = []
    for j, curve in enumerate(f):
        if col[j] > 0:
            a_j = (col[j] / s[j]) ** curve.degree
            curves.append(curve.scaled(a_j))
        else:
            curves.append(PowerCurve(0.0, curve.degree))
    x = atp_allocate(inst, f, bids)
    return x, CurveFamily(curves)


def pce_to_tp(
    inst: Instance,
    g: CurveFamily,
    x: Allocation,
    h: PowerCurve | None = None,
    *,
    tol: float = TOL_EQ,
) -> tuple[CurveFamily, BidMatrix]:
    """Convert a priced allocation into an equilibrium bid profile.

    Zero-priced goods keep the fallback constraint curve ``h`` (linear when
    omitted) and are claimed with beta by the agents who want them; priced
    goods are bid at exactly the purchased quantity.
    """
    report = verify_pce(inst, g, x, tol=tol)
    if not report.is_pce:
        raise NotAnEquilibrium(f"input is not a price-curve equilibrium: {report.violated_condition}")
    if h is None:
        h = PowerCurve(1.0, 1.0)
    if h.is_zero:
        raise ValueError("fallback constraint curve must be strictly increasing")

    zero_priced = np.array([c.is_zero for c in g])
    curves = [h if zero else c for zero, c in zip(zero_priced, g)]
    beta = zero_priced[None, :] & (inst.weights > 0)
    amounts = np.where(zero_priced[None, :], 0.0, x.x)
    return CurveFamily(curves), BidMatrix(amounts, beta)


def scale_curves(f: CurveFamily, a: Sequence[float]) -> CurveFamily:
    """Scale each curve by a positive constant."""
    a = np.asarray(a, dtype=float)
    if a.shape != (f.m,):
        raise ValueError(f"expected {f.m} scalars")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("curve scalars must be positive and finite")
    return CurveFamily(c.scaled(float(a_j)) for c, a_j in zip(f, a))


def transform_bids(bids: BidMatrix, a: Sequence[float], degrees: Sequence[float]) -> BidMatrix:
    """Rescale positive bids by a_j^(-1/degree_j); zero and beta are unchanged.

    Under curves scaled by the same constants this preserves every bid cost
    and the entire allocation, hence equilibrium status.
    """
    a = np.asarray(a, dtype=float)
    degrees = np.asarray(degrees, dtype=float)
    if a.shape != (bids.m,) or degrees.shape != (bids.m,):
        raise ValueError("need one scalar and one degree per good")
    if np.any(a <= 0) or np.any(degrees <= 0):
        raise ValueError("scalars and degrees must be positive")
    factors = a ** (-1.0 / degrees)
    amounts = bids.amounts * factors[None, :]
    return BidMatrix(amounts, bids.beta)


def construct_atp_rho_equilibrium(
    inst: Instance,
    rho: Rho,
    *,
    tol: float = TOL_EQ,
    solve: SolveResult | None = None,
) -> tuple[BidMatrix, Allocation]:
    """Build an equilibrium of the unit-curve game whose outcome is welfare-optimal.

    Pipeline: solve the welfare program, read its multipliers as power price
    curves q_j * t^(1-rho), convert to a bid profile, then rescale bids so the
    constraint curves become the instance-independent unit family t^(1-rho).
    Zero-priced goods skip the rescaling (their curve already is the unit
    curve).
    """
    if not rho.is_finite:
        raise ValueError("equilibrium construction requires a finite rho < 1")
    result = solve if solve is not None else solve_ces(inst, rho)
    one_minus = 1.0 - rho.value
    q = np.where(result.q > TOL_DUAL, result.q, 0.0)

    g = CurveFamily(PowerCurve(float(qj), one_minus) for qj in q)
    h = PowerCurve(1.0, one_minus)
    f, b = pce_to_tp(inst, g, result.x_star, h, tol=tol)

    a = np.where(q > 0, 1.0 / np.where(q > 0, q, 1.0), 1.0)
    f_scaled = scale_curves(f, a)
    b_unit = transform_bids(b, a, f.degrees)

    unit = CurveFamily.atp(rho.value, inst.m)
    if not np.allclose(f_scaled.coeffs, unit.coeffs, rtol=1e-9, atol=1e-12):
        raise RuntimeError("internal error: rescaled curves are not the unit family")

    report = verify_tp_ne(inst, unit, b_unit, tol=tol)
    if not report.is_ne:
        raise NotAnEquilibrium(f"constructed bids failed verification: {report.violated_condition}")

    x = atp_allocate(inst, unit, b_unit)
    welfare = ces_welfare(rho, utilities(inst, x))
    gap = abs(welfare - result.objective) / max(1.0, abs(result.objective))
    if gap > tol:
        raise NotAnEquilibrium(f"constructed equilibrium welfare off by {gap:.3e}")
    return b_unit, x
