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
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .core import Allocation, Instance, Rho, ces_welfare, require_positive, utilities
from .solver import TOL_DUAL, SolveResult, solve_ces
from .trading_post import (
    TOL_BID,
    BidMatrix,
    CurveFamily,
    PowerCurve,
    _column_totals,
    _local_utility,
    _require_goods,
    _row_arrays,
    _row_costs,
    atp_allocate,
    best_response,
)

#: Relative tolerance (against max(1, s_j)) for the equality checks below.
TOL_EQ = 1e-6


class NotAnEquilibrium(ValueError):
    """Input to a reduction failed its equilibrium precondition."""


@dataclass(frozen=True, eq=False)
class DeviationWitness:
    """An agent's improving row, as its length-m ``amounts`` and ``beta`` arrays, and its gain.

    Witnesses compare by identity: ``==`` on two arrays has no single truth value.
    """

    agent: int
    amounts: np.ndarray
    beta: np.ndarray
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
    ``tol`` must be finite and > 0.
    """
    require_positive(tol=tol)
    report = _ne_conditions(inst, f, bids, atp_allocate(inst, f, bids), tol)
    if deviation_check:
        gain, witness = deviation_sweep(inst, f, bids, rng=rng)
        found = gain > tol * max(1.0, float(inst.supply_array.max()))
        if found == report.is_ne:
            raise RuntimeError(
                "internal error: equilibrium conditions and deviation oracle disagree "
                f"(is_ne={report.is_ne}, best gain={gain:.3e})"
            )
        if found:
            report = NeReport(False, report.violated_condition, witness)

    return report


def _ne_conditions(inst: Instance, f: CurveFamily, bids: BidMatrix, x: Allocation, tol: float) -> NeReport:
    """``verify_tp_ne``'s two conditions, judged on ``x``, the allocation of ``bids`` under ``f``."""
    i, j, expected, gap = _worst_share(inst, x, bids.amounts.sum(axis=0) > 0)
    if gap > tol:
        return NeReport(
            False,
            violated_condition=(
                f"condition 1: agent {i} holds {float(x.x[i, j])!r} of good {j}, "
                f"expected {expected!r} (gap {gap:.3e})"
            ),
        )
    costs = _row_costs(f, bids)
    gaps = np.abs(costs - 1.0)
    k = int(np.argmax(gaps))
    if gaps[k] > tol:
        return NeReport(
            False,
            violated_condition=f"condition 2: agent {k} bid cost {float(costs[k])!r} != 1",
        )
    return NeReport(True)


def _worst_share(inst: Instance, x: Allocation, priced: np.ndarray) -> tuple[int, int, float, float]:
    """Condition 1's worst priced cell: (agent, good, expected share, gap scaled by max(1, s_j))."""
    target = inst.weights * utilities(inst, x)[:, None]
    err = np.abs(x.x - target) / np.maximum(1.0, inst.supply_array)[None, :]
    err[:, ~priced] = 0.0
    i, j = map(int, np.unravel_index(np.argmax(err), err.shape))
    return i, j, float(target[i, j]), float(err[i, j])


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
            best_gain, witness = gain, DeviationWitness(i, *row, gain)
        if rng is None or n_random <= 0:
            continue
        # Each desired good's column without row i: the sum above it and the amounts below it.
        splits = {j: bids._column(j).split(i) for j in inst.desired[i]}
        for _ in range(n_random):
            amounts, beta = _random_row(inst, f, i, rng)
            goods = (amounts > TOL_BID).nonzero()[0].tolist()
            cells = dict(zip(goods, amounts[goods].tolist()))
            claims = beta.nonzero()[0].tolist()
            totals = {j: reduce(add, below, above + cells.get(j, 0.0)) for j, (above, below) in splits.items()}
            gain = _local_utility(inst, bids, i, cells, claims, totals)[0] - base[i]
            if gain > best_gain:
                best_gain, witness = gain, DeviationWitness(i, *_row_arrays(inst.m, cells, claims), gain)

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
        # Scale each term so the row cost lands on a random budget.
        pos = amounts > 0
        amounts[pos] *= np.float_power(rng.uniform(0.3, 1.0) / cost, 1.0 / f.degrees[pos])
    return amounts, beta


def verify_pce(
    inst: Instance,
    g: CurveFamily,
    x: Allocation,
    *,
    tol: float = TOL_EQ,
) -> PceReport:
    """Check demand-set membership, exhausted budgets, and market clearing; ``tol`` must be finite and > 0."""
    require_positive(tol=tol)
    _require_goods(g, inst.m)
    if x.x.shape != (inst.n, inst.m):
        raise ValueError("allocation shape mismatch")
    s = inst.supply_array
    scale = np.maximum(1.0, s)
    nonzero = g.coeffs != 0
    i, j, expected, gap = _worst_share(inst, x, nonzero)
    if gap > tol:
        return PceReport(
            False,
            violated_condition=(
                f"condition 1: agent {i} buys {float(x.x[i, j])!r} of good {j}, "
                f"expected {expected!r}"
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
    col = _column_totals(bids.amounts)
    # float_power rounds as libm's pow does; np.power's SIMD loop can differ in the last bit.
    coeffs = np.where(col > 0, f.coeffs * np.float_power(col / inst.supply_array, f.degrees), 0.0)
    x = atp_allocate(inst, f, bids)
    return x, CurveFamily._from_arrays(coeffs, f.degrees)


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

    zero_priced = g.coeffs == 0
    f = CurveFamily._from_arrays(
        np.where(zero_priced, h.coeff, g.coeffs), np.where(zero_priced, h.degree, g.degrees)
    )
    beta = zero_priced[None, :] & (inst.weights > 0)
    amounts = np.where(zero_priced[None, :], 0.0, x.x)
    return f, BidMatrix(amounts, beta)


def scale_curves(f: CurveFamily, a: Sequence[float]) -> CurveFamily:
    """Scale each curve by a positive constant."""
    a = np.asarray(a, dtype=float)
    if a.shape != (f.m,):
        raise ValueError(f"expected {f.m} scalars")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("curve scalars must be positive and finite")
    return CurveFamily._from_arrays(f.coeffs * a, f.degrees)


def transform_bids(bids: BidMatrix, a: Sequence[float], degrees: Sequence[float]) -> BidMatrix:
    """Rescale positive bids by a_j^(-1/degree_j); zero and beta are unchanged.

    Under curves scaled by the same constants this preserves every bid cost
    and the entire allocation, hence equilibrium status.
    """
    a = np.asarray(a, dtype=float)
    degrees = np.asarray(degrees, dtype=float)
    if a.shape != (bids.m,) or degrees.shape != (bids.m,):
        raise ValueError("need one scalar and one degree per good")
    if not np.all(np.isfinite(a) & (a > 0) & np.isfinite(degrees) & (degrees > 0)):
        raise ValueError("scalars and degrees must be positive and finite")
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

    The welfare program's multipliers q_j give the bids in closed form: agent
    i bids x_ij * q_j^(1/(1-rho)) on each priced good, and claims each desired
    free good (q_j = 0) with beta.  ``pce_to_tp`` checks the solver's priced
    allocation first; the bids are then checked once under the unit curves
    t^(1-rho), on the one allocation that also gives the welfare check.
    """
    if not rho.is_finite:
        raise ValueError("equilibrium construction requires a finite rho < 1")
    result = solve if solve is not None else solve_ces(inst, rho)
    q = np.where(result.q > TOL_DUAL, result.q, 0.0)
    unit = CurveFamily.atp(rho.value, inst.m)
    # Price curves q_j * t^(1-rho); free goods keep the unit curve.
    g = CurveFamily._from_arrays(q, unit.degrees)
    _, b = pce_to_tp(inst, g, result.x_star, unit[0], tol=tol)
    # The unit curves are these curves scaled by 1/q_j; bids scaled to match keep every cost and share.
    a = np.where(q > 0, 1.0 / np.where(q > 0, q, 1.0), 1.0)
    b_unit = transform_bids(b, a, unit.degrees)

    x = atp_allocate(inst, unit, b_unit)
    report = _ne_conditions(inst, unit, b_unit, x, tol)
    if not report.is_ne:
        raise NotAnEquilibrium(f"constructed bids failed verification: {report.violated_condition}")
    welfare = ces_welfare(rho, utilities(inst, x))
    gap = abs(welfare - result.objective) / max(1.0, abs(result.objective))
    if gap > tol:
        raise NotAnEquilibrium(f"constructed equilibrium welfare off by {gap:.3e}")
    return b_unit, x
