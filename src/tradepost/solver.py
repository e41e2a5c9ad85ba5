"""Welfare maximization over feasible utility vectors.

The program  max Phi_rho(u)  s.t.  sum_i w_ij u_i <= s_j,  u >= 0  is solved
directly in utility space: any feasible utility vector is realized by the
allocation x_ij = w_ij * u_i.  The method is projected dual ascent on the
per-good multipliers q.  The inner maximization is separable with the closed
form u_i = (sum_{j in R_i} q_j)^(-1/(1-rho)), which makes the dual smooth and
convex; a damped projected Newton step then drives the KKT residual far below
tolerance.  No external optimizer is involved.

The returned multipliers are normalized so that the budget identity
sum_{j in R_i} q_j * u_i^(1-rho) = 1 holds for every agent at the solution;
under this normalization the power price curves q_j * t^(1-rho) give every
agent a unit budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import Allocation, Instance, Rho, ces_welfare

#: Target on stationarity, feasibility, and complementary slackness, relative
#: to max(1, s_j) for good-indexed terms.
TOL_KKT = 1e-7

#: Multipliers at or below this are reported as zero-priced.
TOL_DUAL = 1e-8

#: Default total inner-iteration budget.
MAX_ITER = 10**6


class NonConvergence(RuntimeError):
    """The dual iteration did not reach the requested tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")


@dataclass(frozen=True)
class SolveResult:
    """Primal-dual solution of the welfare program."""

    u_star: np.ndarray
    x_star: Allocation
    q: np.ndarray
    objective: float
    kkt_residual: float


class _DualModel(NamedTuple):
    """Closed-form primal response and dual value for one objective."""

    response: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
    value: Callable[[np.ndarray, np.ndarray], float]


def _finite_model(r: float, s: np.ndarray) -> _DualModel:
    if r == 0.0:

        def response(Q):
            with np.errstate(divide="ignore"):
                return np.where(Q > 0, 1.0 / np.maximum(Q, 1e-300), np.inf)

        def slope(Q):
            return -1.0 / np.maximum(Q, 1e-300) ** 2

        def value(q, Q):
            if np.any(Q <= 0):
                return math.inf
            return float(np.sum(-np.log(Q) - 1.0) + q @ s)

    else:
        p = 1.0 / (r - 1.0)
        sigma = r * p  # r / (r - 1)
        coef = (1.0 - r) / r

        def response(Q):
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(Q > 0, np.maximum(Q, 1e-300) ** p, np.inf)

        def slope(Q):
            return p * np.maximum(Q, 1e-300) ** (p - 1.0)

        def value(q, Q):
            if r > 0 and np.any(Q <= 0):
                return math.inf
            with np.errstate(divide="ignore"):
                terms = np.where(Q > 0, np.maximum(Q, 1e-300) ** sigma, 0.0 if r < 0 else np.inf)
            return float(coef * terms.sum() + q @ s)

    return _DualModel(response, slope, value)


def _quadratic_model(eps: float, s: np.ndarray) -> _DualModel:
    """Response for the sum objective regularized by -eps * ||u||^2."""

    def response(Q):
        return np.maximum(0.0, 1.0 - Q) / (2.0 * eps)

    def slope(Q):
        return np.where(Q < 1.0, -1.0 / (2.0 * eps), 0.0)

    def value(q, Q):
        return float(np.sum(np.maximum(0.0, 1.0 - Q) ** 2) / (4.0 * eps) + q @ s)

    return _DualModel(response, slope, value)


def _feas_comp(
    W: np.ndarray, s: np.ndarray, u: np.ndarray, q: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Feasibility and complementary-slackness residuals, relative to max(1, s_j).

    Also returns the absolute clearing gaps |s_j - demand_j|.
    """
    scale = np.maximum(1.0, s)
    demand = u @ W
    gap = np.abs(s - demand)
    feas = np.max(np.maximum(demand - s, 0.0) / scale)
    comp = np.max(q * gap / scale)
    return feas, comp, gap


def _certificate(
    W: np.ndarray, s: np.ndarray, rho: Rho, u: np.ndarray, q: np.ndarray, tol: float
) -> tuple[float, bool]:
    """Max KKT violation of (u, q) for any objective, and whether goods separate.

    Stationarity is Q_i u_i^(1-rho) = 1 for finite rho; for the sum, Q_i = 1
    on supported agents and Q_i >= 1 elsewhere; for maxmin, q . d = 1.  Goods
    separate when each is clearly free (q_j <= TOL_DUAL) or clearly tight
    (gap <= tol * max(1, s_j)), so price-curve construction can classify it.
    """
    if not np.all(np.isfinite(u)):
        return math.inf, False
    feas, comp, gap = _feas_comp(W, s, u, q)
    if rho.is_maxmin:
        stat = abs(float(q @ W.sum(axis=0)) - 1.0)
    else:
        Q = W @ q
        if rho.is_one:
            stat = np.max(np.where(u > 1e-9, np.abs(Q - 1.0), np.maximum(0.0, 1.0 - Q)))
        else:
            stat = np.max(np.abs(Q * u ** (1.0 - rho.value) - 1.0))
    separated = bool(np.all((q <= TOL_DUAL) | (gap <= tol * np.maximum(1.0, s))))
    return float(max(feas, comp, stat)), separated


def _newton_direction(
    W: np.ndarray, q: np.ndarray, g: np.ndarray, h: np.ndarray, lam: float
) -> np.ndarray | None:
    free = (q > 0) | (g < 0)
    if not free.any():
        return None
    Wf = W[:, free]
    Hf = Wf.T @ (Wf * h[:, None])
    gf = g[free]
    diag = np.maximum(np.diag(Hf).max(), 1e-30)
    try:
        d = np.linalg.solve(Hf + lam * diag * np.eye(Hf.shape[0]), -gf)
    except np.linalg.LinAlgError:
        d = np.linalg.lstsq(Hf, -gf, rcond=None)[0]
    direction = np.zeros_like(q)
    direction[free] = d
    return direction


#: Damped-Newton and undamped-polish round limits of :func:`_minimize_dual`.
_NEWTON_ROUNDS = 150
_POLISH_ROUNDS = 12


def _minimize_dual(
    W: np.ndarray,
    s: np.ndarray,
    model: _DualModel,
    q0: np.ndarray,
    *,
    eta: float,
    residual: Callable[[np.ndarray], float],
    goal: float,
    budget: int,
    warmup: int = 400,
) -> tuple[np.ndarray, int, bool]:
    """Multiplicative ascent, damped projected Newton, then an undamped polish.

    ``residual`` must judge the multipliers by the same measure the caller
    will finally report; anything weaker lets large multipliers amplify
    leftover demand gaps past tolerance.  The final polish iterates the KKT
    equations without a line search: close to the optimum the dual value
    changes by less than float granularity, so monotone-descent tests stall
    while plain Newton steps still shrink the demand gap quadratically.
    """
    q = q0.copy()
    used = 0

    # For very flat steps the usual clip bounds overshoot kinked responses;
    # keep the per-iteration movement proportional to the step size.
    lo = max(0.25, 1.0 - 50.0 * eta)
    hi = min(4.0, 1.0 + 50.0 * eta)
    for it in range(min(warmup, budget)):
        used += 1
        Q = W @ q
        u = model.response(Q)
        if not np.all(np.isfinite(u)):
            q = q * 2.0 + 1e-6
            continue
        demand = u @ W
        if it % 10 == 0 and residual(q) <= goal:
            return q, used, True
        with np.errstate(divide="ignore"):
            ratio = np.clip((demand / s) ** eta, lo, hi)
        q = np.maximum(q * ratio, 0.0)

    lam = 1e-12
    d_cur = model.value(q, W @ q)
    for _ in range(_NEWTON_ROUNDS):
        if used >= budget:
            break
        used += 1
        if residual(q) <= goal:
            return q, used, True
        Q = W @ q
        u = model.response(Q)
        if not np.all(np.isfinite(u)):
            q = q * 2.0 + 1e-6
            d_cur = model.value(q, W @ q)
            continue
        g = s - u @ W
        h = -model.slope(Q)  # >= 0
        accepted = False
        for _attempt in range(12):
            direction = _newton_direction(W, q, g, h, lam)
            if direction is None:
                break
            alpha = 1.0
            for _bt in range(50):
                q_new = np.maximum(q + alpha * direction, 0.0)
                d_new = model.value(q_new, W @ q_new)
                if d_new < d_cur or (d_new == d_cur and alpha < 1e-8):
                    q, d_cur = q_new, d_new
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                lam = max(lam * 0.3, 1e-14)
                break
            lam *= 100.0
        if not accepted:
            break

    best_q, best_r = q.copy(), residual(q)
    for _ in range(_POLISH_ROUNDS):
        if best_r <= goal or used >= budget:
            break
        used += 1
        Q = W @ q
        u = model.response(Q)
        if not np.all(np.isfinite(u)):
            break
        g = s - u @ W
        direction = _newton_direction(W, q, g, -model.slope(Q), 1e-14)
        if direction is None:
            break
        q = np.maximum(q + direction, 0.0)
        r = residual(q)
        if r < best_r:
            best_q, best_r = q.copy(), r

    return best_q, used, best_r <= goal


def _initial_q(W: np.ndarray, s: np.ndarray, Q_target: np.ndarray) -> np.ndarray:
    sizes = W.sum(axis=1)  # |R_i|
    d = W.sum(axis=0)  # demander counts, >= 1
    contrib = W * (Q_target / sizes)[:, None]
    return contrib.sum(axis=0) / d


def _fair_share(W: np.ndarray, s: np.ndarray) -> np.ndarray:
    d = W.sum(axis=0)
    ratios = s / d
    masked = np.where(W > 0, ratios[None, :], np.inf)
    return masked.min(axis=1)


def _snap_feasible(W: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    demand = u @ W
    with np.errstate(divide="ignore"):
        c = np.min(np.where(demand > 0, s / np.maximum(demand, 1e-300), np.inf))
    return u * min(1.0, float(c))


def _result(inst: Instance, rho: Rho, u: np.ndarray, q: np.ndarray, residual: float) -> SolveResult:
    x = inst.weights * u[:, None]
    alloc = Allocation.checked(inst, x)
    objective = ces_welfare(rho, u)
    q = q.copy()
    q[q <= 0] = 0.0
    return SolveResult(u_star=u, x_star=alloc, q=q, objective=objective, kkt_residual=residual)


def solve_ces(
    inst: Instance,
    rho: Rho,
    *,
    tol_kkt: float = TOL_KKT,
    max_iter: int = MAX_ITER,
) -> SolveResult:
    """Maximize CES welfare for a finite rho (< 1) or the sum objective (rho = 1).

    Raises :class:`NonConvergence` when the iteration budget runs out before
    the KKT residual drops below ``tol_kkt``.
    """
    if rho.is_maxmin:
        raise ValueError("use solve_maxmin for the maxmin objective")
    W, s = inst.weights, inst.supply_array
    if rho.is_one:
        return _solve_sum(inst, tol_kkt=tol_kkt, max_iter=max_iter)

    r = rho.value
    model = _finite_model(r, s)
    u_fair = _fair_share(W, s)
    q0 = _initial_q(W, s, u_fair ** (r - 1.0))
    eta = float(np.clip(0.8 * (1.0 - r), 1e-3, 1.2))
    goal = tol_kkt * 0.5

    def measured(q: np.ndarray) -> float:
        u = _snap_feasible(W, s, model.response(W @ q))
        res, separated = _certificate(W, s, rho, u, q, tol_kkt)
        return res if separated else max(res, 1.0)

    used_total = 0
    best: tuple[float, np.ndarray] | None = None
    for scale0 in (1.0, 0.1, 10.0):
        q, used, ok = _minimize_dual(
            W,
            s,
            model,
            q0 * scale0,
            eta=eta,
            residual=measured,
            goal=goal,
            budget=max_iter - used_total,
        )
        used_total += used
        u = _snap_feasible(W, s, model.response(W @ q))
        res, separated = _certificate(W, s, rho, u, q, tol_kkt)
        if best is None or res < best[0]:
            best = (res, q)
        if res <= tol_kkt and separated:
            return _result(inst, rho, u, q, res)
        if used_total >= max_iter:
            break
    assert best is not None
    raise NonConvergence(used_total, best[0])


#: Continuation schedule for the sum objective: each stage shrinks the
#: quadratic regularization, warm-starting from the previous multipliers.
#: Below ~1e-7 the response (1-Q)/(2 eps) could no longer resolve utilities
#: within float granularity, so the last stage is followed by a direct
#: support polish instead.
_SUM_EPSILONS = (5e-2, 1e-3, 1e-5, 1e-7)


def _solve_sum(inst: Instance, *, tol_kkt: float, max_iter: int) -> SolveResult:
    """Sum of utilities via vanishing quadratic regularization.

    The regularized objective sum(u_i - eps u_i^2) keeps the dual smooth and,
    as eps -> 0, its maximizer converges to the minimum-norm point of the
    optimal face -- the tie-break toward equal utilities.
    """
    W, s = inst.weights, inst.supply_array
    rho = Rho.one()
    q = _initial_q(W, s, np.full(inst.n, 1.0))
    used_total = 0

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for eps in _SUM_EPSILONS:
        model = _quadratic_model(eps, s)

        def stage_residual(q: np.ndarray, model=model) -> float:
            # Judge the raw response: snapping would hide infeasibility
            # behind an exactly-cleared good.
            u_raw = model.response(W @ q)
            if not np.all(np.isfinite(u_raw)):
                return math.inf
            feas, comp, _ = _feas_comp(W, s, u_raw, q)
            return float(max(feas, comp))

        q, used, _ok = _minimize_dual(
            W,
            s,
            model,
            q,
            eta=min(0.5, 2.0 * eps / max(1.0, float(s.max()))),
            residual=stage_residual,
            goal=1e-9,
            budget=max(2000, (max_iter - used_total)),
            warmup=600,
        )
        used_total += used

        # Judge this stage's point plus its exact-support refinements; the
        # refinements do not perturb the continuation itself.
        u_stage = _snap_feasible(W, s, model.response(W @ q))
        cleaned = q.copy()
        cleaned[cleaned <= TOL_DUAL] = 0.0
        candidates = [(u_stage, cleaned)]
        candidates.extend(_polish_sum_support(W, s, u_stage, q))
        for u_c, q_c in candidates:
            u_c = _snap_feasible(W, s, u_c)
            r, separated = _certificate(W, s, rho, u_c, q_c, tol_kkt)
            r = r if separated else max(r, 1.0)
            if best is None or r < best[0]:
                best = (r, u_c, q_c)

    assert best is not None
    if best[0] > tol_kkt:
        raise NonConvergence(used_total, best[0])
    return _result(inst, rho, best[1], best[2], best[0])


def _polish_sum_support(
    W: np.ndarray, s: np.ndarray, u: np.ndarray, q: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Candidate refinements of an approximate sum-objective solution.

    The regularized path locates the supports but cannot resolve the last few
    digits.  On the supports the optimality system is linear: multipliers on
    tight goods must give every supported agent a unit sum, and supported
    agents' demand must clear every positively-priced good.  Both parts are
    solved by least squares (dropping goods whose multiplier comes out
    negative) and returned as candidates for the caller to judge; nothing
    here is trusted blindly.
    """
    scale = np.maximum(1.0, s)
    supported = u > 1e-5 * max(1.0, float(u.max()) if u.size else 1.0)
    tight = np.abs(s - u @ W) <= 1e-4 * scale
    if not supported.any() or not tight.any():
        return []

    cleaned = q.copy()
    cleaned[cleaned <= TOL_DUAL] = 0.0
    duals: list[np.ndarray] = []

    # Preferred dual: the minimal correction to the continuation's own
    # multipliers that restores exact unit sums for supported agents.  The
    # correction is tiny (the regularization bias), so dual feasibility for
    # unsupported agents is preserved up to that same tiny amount.
    priced = cleaned > 0
    if priced.any():
        A = W[np.ix_(supported, priced)]
        defect = 1.0 - A @ cleaned[priced]
        delta, *_ = np.linalg.lstsq(A, defect, rcond=None)
        q_corr = cleaned.copy()
        q_corr[priced] = np.maximum(cleaned[priced] + delta, 0.0)
        duals.append(q_corr)

    # Fallback dual: solved from scratch on the tight goods; drop goods
    # driven negative and re-solve.
    keep = tight.copy()
    for _ in range(int(tight.sum())):
        if not keep.any():
            break
        A = W[np.ix_(supported, keep)]
        sol, *_ = np.linalg.lstsq(A, np.ones(int(supported.sum())), rcond=None)
        if np.all(sol >= -1e-12):
            q_pol = np.zeros_like(q)
            q_pol[keep] = np.maximum(sol, 0.0)
            duals.append(q_pol)
            break
        drop = np.where(keep)[0][sol < -1e-12]
        keep[drop] = False

    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    duals.append(cleaned)

    for q_c in duals:
        priced = q_c > 0
        u_c = u.copy()
        if priced.any():
            # Primal side: project supported utilities onto exact clearing of
            # the priced goods, preserving the tie-broken point.
            C = W[np.ix_(supported, priced)].T  # one row per priced good
            target = s[priced] - (u * ~supported) @ W[:, priced]
            defect = target - C @ u[supported]
            lam, *_ = np.linalg.lstsq(C @ C.T, defect, rcond=None)
            cand = u[supported] + C.T @ lam
            if np.all(cand >= 0):
                u_c = u.copy()
                u_c[supported] = cand
        candidates.append((u_c, q_c))
        candidates.append((u, q_c))
    return candidates


def maxmin_gamma(supplies: Sequence[float], sets: Iterable[Iterable[int]]) -> tuple[float, np.ndarray]:
    """Largest common utility level, ignoring agents with empty sets.

    Returns the level together with the per-good demander counts.  With every
    set empty the level is 0 (nothing can be promised to anyone).
    """
    s = np.asarray(supplies, dtype=float)
    d = np.zeros(len(s))
    for S in sets:
        for j in S:
            d[int(j)] += 1.0
    active = d > 0
    if not active.any():
        return 0.0, d
    return float(np.min(s[active] / d[active])), d


def solve_maxmin(inst: Instance) -> SolveResult:
    """Maximize the minimum utility; closed form, all utilities equal."""
    W, s = inst.weights, inst.supply_array
    rho = Rho.maxmin()
    gamma, d = maxmin_gamma(inst.supplies, inst.desired)
    u = np.full(inst.n, gamma)
    q = np.zeros(inst.m)
    j_star = int(np.argmin(s / d))
    q[j_star] = 1.0 / d[j_star]

    res, _ = _certificate(W, s, rho, u, q, TOL_KKT)
    return _result(inst, rho, u, q, res)
