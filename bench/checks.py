"""Correctness checks on the program's outputs, computed apart from the program.

Every check rebuilds what it needs (incidence matrix, column totals, welfare)
with numpy from the instance as the benchmark generated it, and calls no
function of ``tradepost``.  Each returns ``None`` when the output passes and a
one-line reason when it does not.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from instances import Spec

#: Tolerance of the certificate checks, relative to max(1, s_j) for
#: good-indexed terms.  The solver's own target is 1e-7.
TOL = 1e-6

#: The program's documented equilibrium tolerance (1e-6 relative to
#: max(1, s_j)); a deviation gain above TOL_EQ * max(1, s_max) is a real one.
TOL_EQ = 1e-6


def ces_welfare(rho: float, u: np.ndarray) -> float:
    if rho == 1.0:
        return float(u.sum())
    if rho == 0.0:
        return 0.0 if np.any(u == 0) else float(np.exp(np.log(u).mean()))
    if rho < 0 and np.any(u == 0):
        return 0.0
    return float(np.sum(u**rho) ** (1.0 / rho))


def _primal_feasible(spec: Spec, w: np.ndarray, u: np.ndarray) -> str | None:
    if u.shape != (spec.n,) or not np.all(np.isfinite(u)):
        return "utilities have the wrong shape or are not finite"
    if np.any(u < 0):
        return f"negative utility {float(u.min())!r}"
    s = np.asarray(spec.supplies)
    over = (u @ w - s) / np.maximum(1.0, s)
    j = int(np.argmax(over))
    if over[j] > TOL:
        return f"good {j} oversubscribed by {over[j]:.3e} (relative)"
    return None


def kkt_certificate(spec: Spec, rho: float, u: Sequence[float], q: Sequence[float]) -> str | None:
    """rho < 1: feasibility, q >= 0, |Q_i u_i^(1-rho) - 1| small, complementary slackness."""
    w = spec.incidence()
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    bad = _primal_feasible(spec, w, u)
    if bad:
        return bad
    if q.shape != (spec.m,) or np.any(q < 0) or not np.all(np.isfinite(q)):
        return "multipliers must be finite and nonnegative"
    s = np.asarray(spec.supplies)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.abs((w @ q) * u ** (1.0 - rho) - 1.0)
    i = int(np.argmax(stat))
    if not stat[i] <= TOL:
        return f"stationarity: agent {i} has |Q_i u_i^(1-rho) - 1| = {stat[i]:.3e}"
    comp = q * np.abs(s - u @ w) / np.maximum(1.0, s)
    j = int(np.argmax(comp))
    if comp[j] > TOL:
        return f"complementary slackness: good {j} priced {q[j]!r} but slack ({comp[j]:.3e})"
    return None


def lp_duality(spec: Spec, u: Sequence[float], q: Sequence[float]) -> str | None:
    """rho = 1: primal and dual feasibility plus equal objectives, sum(u) = q.s."""
    w = spec.incidence()
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    bad = _primal_feasible(spec, w, u)
    if bad:
        return bad
    if q.shape != (spec.m,) or np.any(q < 0) or not np.all(np.isfinite(q)):
        return "multipliers must be finite and nonnegative"
    short = 1.0 - w @ q
    i = int(np.argmax(short))
    if short[i] > TOL:
        return f"dual infeasible: agent {i} has sum of q over R_i = {1.0 - short[i]!r} < 1"
    primal, dual = float(u.sum()), float(q @ np.asarray(spec.supplies))
    if abs(primal - dual) > TOL * max(1.0, abs(dual)):
        return f"duality gap: sum(u) = {primal!r}, q.s = {dual!r}"
    return None


def objective_matches(rho: float, u: Sequence[float], objective: float) -> str | None:
    expect = ces_welfare(rho, np.asarray(u, dtype=float))
    if not abs(objective - expect) <= TOL * max(1.0, abs(expect)):
        return f"objective {objective!r} != welfare of the utilities {expect!r}"
    return None


def _amounts(bids: Sequence[Sequence[float | str]]) -> np.ndarray:
    """Bid amounts as a matrix, with "beta" cells as 0."""
    return np.array([[0.0 if cell == "beta" else float(cell) for cell in row] for row in bids])


def unit_budgets(bids: Sequence[Sequence[float | str]], rho: float) -> str | None:
    """Every agent spends exactly 1 under the unit curves t^(1-rho)."""
    amounts = _amounts(bids)
    if np.any(amounts < 0):
        return "negative bid"
    cost = np.where(amounts > 0, amounts, 0.0) ** (1.0 - rho)
    gap = np.abs(cost.sum(axis=1) - 1.0)
    i = int(np.argmax(gap))
    if gap[i] > TOL:
        return f"agent {i} spends {cost[i].sum()!r}, not 1"
    return None


def shares_match(spec: Spec, bids: Sequence[Sequence[float | str]], u: Sequence[float]) -> str | None:
    """On every priced desired good, b_ij / sum_k b_kj * s_j = u_i."""
    amounts = _amounts(bids)
    if amounts.shape != (spec.n, spec.m):
        return f"bid matrix shape {amounts.shape} != ({spec.n}, {spec.m})"
    s = np.asarray(spec.supplies)
    col = amounts.sum(axis=0)
    priced = col > 0
    share = np.zeros_like(amounts)
    share[:, priced] = amounts[:, priced] / col[priced] * s[priced]
    u = np.asarray(u, dtype=float)
    mask = (spec.incidence() > 0) & priced[None, :]
    err = np.where(mask, np.abs(share - u[:, None]) / np.maximum(1.0, s)[None, :], 0.0)
    i, j = np.unravel_index(int(np.argmax(err)), err.shape)
    if err[i, j] > TOL:
        return f"agent {i} gets {share[i, j]!r} of priced good {j}, utility is {u[i]!r}"
    return None


def close(name: str, got: float, expect: float) -> str | None:
    if not abs(got - expect) <= TOL * max(1.0, abs(expect)):
        return f"{name} {got!r} != {expect!r}"
    return None


def is_true(report: dict, key: str) -> str | None:
    if report.get(key) is not True:
        return f"report has {key} = {report.get(key)!r}"
    return None


def tp2pc_curves(
    spec: Spec, bids: Sequence[Sequence[float | str]], rho: float, curves: Sequence[Sequence[float]]
) -> str | None:
    """Price curve j is (col_j / s_j)^(1-rho) t^(1-rho) where col_j > 0, else zero."""
    amounts = _amounts(bids)
    col = amounts.sum(axis=0)
    s = np.asarray(spec.supplies)
    if len(curves) != spec.m:
        return f"{len(curves)} price curves for {spec.m} goods"
    for j, (coeff, degree) in enumerate(curves):
        expect = (col[j] / s[j]) ** (1.0 - rho) if col[j] > 0 else 0.0
        if not math.isclose(coeff, expect, rel_tol=1e-9, abs_tol=0.0):
            return f"good {j}: price coefficient {coeff!r} != {expect!r}"
        if degree != 1.0 - rho:
            return f"good {j}: price degree {degree!r} != {1.0 - rho!r}"
    return None


def pc2tp_bids(
    spec: Spec,
    curves: Sequence[Sequence[float]],
    allocation: Sequence[Sequence[float]],
    bids: Sequence[Sequence[float | str]],
) -> str | None:
    """"beta" exactly on desired zero-priced goods; priced goods bid the allocation."""
    if len(bids) != spec.n or any(len(row) != spec.m for row in bids):
        return "bid matrix has the wrong shape"
    free = [coeff == 0.0 for coeff, _ in curves]
    for i, goods in enumerate(spec.desired):
        wanted = set(goods)
        for j, cell in enumerate(bids[i]):
            if (cell == "beta") != (free[j] and j in wanted):
                return f"bids[{i}][{j}] = {cell!r} on a {'zero-priced' if free[j] else 'priced'} good"
            if not free[j] and cell != allocation[i][j]:
                return f"bids[{i}][{j}] = {cell!r}, allocation is {allocation[i][j]!r}"
    return None


def sweep_gain(spec: Spec, gain: float) -> str | None:
    limit = TOL_EQ * max(1.0, max(spec.supplies))
    if not gain <= limit:
        return f"an agent gains {gain!r} > {limit!r} by deviating"
    return None


def at_most(name: str, got: float, bound: float) -> str | None:
    if not got <= bound * (1.0 + TOL):
        return f"{name} {got!r} exceeds {bound!r}"
    return None
