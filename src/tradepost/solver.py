"""Welfare maximization over feasible utility vectors.

The program  max Phi_rho(u)  s.t.  sum_i w_ij u_i <= s_j,  u >= 0  is solved
directly in utility space: any feasible utility vector is realized by the
allocation x_ij = w_ij * u_i.  For finite rho < 1 the method is projected dual
ascent on the per-good multipliers q.  The inner maximization is separable
with the closed form u_i = (sum_{j in R_i} q_j)^(-1/(1-rho)), which makes the
dual smooth and convex; a damped projected Newton step then drives the KKT
residual far below tolerance.  The sum (rho = 1) is a linear program, solved
by an interior-point method that finds its optimal face and then the
least-norm point on that face.  Only numpy is involved.

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
    """The solver did not reach the requested tolerance."""

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


def _certificate(
    W: np.ndarray, s: np.ndarray, rho: Rho, u: np.ndarray, q: np.ndarray, tol: float
) -> tuple[float, bool]:
    """Max KKT violation of (u, q) for any objective, and whether goods separate.

    Feasibility and complementary slackness are relative to max(1, s_j).
    Stationarity is Q_i u_i^(1-rho) = 1 for finite rho; for the sum, Q_i = 1
    on supported agents and Q_i >= 1 elsewhere; for maxmin, q . d = 1.  Goods
    separate when each is clearly free (q_j <= TOL_DUAL) or clearly tight
    (gap <= tol * max(1, s_j)), so price-curve construction can classify it.
    """
    if not np.all(np.isfinite(u)):
        return math.inf, False
    scale = np.maximum(1.0, s)
    demand = u @ W
    gap = np.abs(s - demand)
    feas = np.max(np.maximum(demand - s, 0.0) / scale)
    comp = np.max(q * gap / scale)
    if rho.is_maxmin:
        stat = abs(float(q @ W.sum(axis=0)) - 1.0)
    else:
        Q = W @ q
        if rho.is_one:
            stat = np.max(np.where(u > 1e-9, np.abs(Q - 1.0), np.maximum(0.0, 1.0 - Q)))
        else:
            stat = np.max(np.abs(Q * u ** (1.0 - rho.value) - 1.0))
    separated = bool(np.all((q <= TOL_DUAL) | (gap <= tol * scale)))
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


#: Multiplicative-warmup, damped-Newton and undamped-polish round limits of
#: :func:`_minimize_dual`.
_WARMUP_ROUNDS = 400
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
) -> tuple[np.ndarray, int]:
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

    # For very flat steps (rho near 1) the usual clip bounds overshoot;
    # keep the per-iteration movement proportional to the step size.
    lo = max(0.25, 1.0 - 50.0 * eta)
    hi = min(4.0, 1.0 + 50.0 * eta)
    for it in range(min(_WARMUP_ROUNDS, budget)):
        used += 1
        Q = W @ q
        u = model.response(Q)
        if not np.all(np.isfinite(u)):
            q = q * 2.0 + 1e-6
            continue
        demand = u @ W
        if it % 10 == 0 and residual(q) <= goal:
            return q, used
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
            return q, used
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

    return best_q, used


def _initial_q(W: np.ndarray, Q_target: np.ndarray) -> np.ndarray:
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
    the KKT residual drops below ``tol_kkt``; at rho = 1, ``max_iter`` counts
    interior-point iterations.
    """
    if rho.is_maxmin:
        raise ValueError("use solve_maxmin for the maxmin objective")
    W, s = inst.weights, inst.supply_array
    if rho.is_one:
        return _solve_sum(inst, tol_kkt=tol_kkt, max_iter=max_iter)

    r = rho.value
    model = _finite_model(r, s)
    u_fair = _fair_share(W, s)
    q0 = _initial_q(W, u_fair ** (r - 1.0))
    eta = float(np.clip(0.8 * (1.0 - r), 1e-3, 1.2))
    goal = tol_kkt * 0.5

    def measured(q: np.ndarray) -> float:
        u = _snap_feasible(W, s, model.response(W @ q))
        res, separated = _certificate(W, s, rho, u, q, tol_kkt)
        return res if separated else max(res, 1.0)

    used_total = 0
    best: tuple[float, np.ndarray] | None = None
    for scale0 in (1.0, 0.1, 10.0):
        q, used = _minimize_dual(
            W, s, model, q0 * scale0, eta=eta, residual=measured, goal=goal, budget=max_iter - used_total
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


#: Iteration cap of one :func:`_interior_point` call (Mehrotra's method needs
#: a few dozen at most) and its stopping tolerance.
_IP_ROUNDS = 100
_IP_TOL = 1e-12


def _interior_point(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, h: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Mehrotra predictor-corrector for  min c.x + x.diag(h).x/2  s.t.  Ax = b, x >= 0.

    ``A`` must have full row rank.  Returns the point x, its dual slacks
    z = c + h x - A^T y, the iterations used, and the residual: the larger of
    x.z / len(x) and the primal and dual residuals relative to 1 + |b|.  The
    iterates approach a strictly complementary solution (Güler & Ye, Math.
    Programming 60, 1993), so x > z marks the coordinates that are positive on
    the optimal face.
    """
    cols = A.shape[1]
    scale = 1.0 + np.abs(b).max()
    rounds = min(max(max_iter, 0), _IP_ROUNDS)
    # Mehrotra's starting point: least-norm x and least-squares y, shifted inside.
    AAt = A @ A.T
    y = np.linalg.solve(AAt, A @ c)
    x, z = A.T @ np.linalg.solve(AAt, b), c - A.T @ y
    x += max(-1.5 * x.min(), 0.0) + 1e-2
    z += max(-1.5 * z.min(), 0.0) + 1e-2
    xz = x @ z
    x, z = x + 0.5 * xz / z.sum(), z + 0.5 * xz / x.sum()

    def max_step(v: np.ndarray, dv: np.ndarray) -> float:
        with np.errstate(divide="ignore", over="ignore"):
            return float(np.min(np.where(dv < 0, -v / dv, 1.0), initial=1.0))

    for used in range(rounds + 1):
        rp, rd, mu = b - A @ x, c + h * x - A.T @ y - z, x @ z / cols
        residual = max(mu, max(np.abs(rp).max(), np.abs(rd).max()) / scale)
        if residual <= _IP_TOL or used == rounds:
            break
        # Newton step on Ax = b, A^T y + z - h x = c, x z = target, reduced to
        # the normal equations A D A^T dy = rhs with D = (h + z/x)^-1.
        d = 1.0 / (h + z / x)
        M = (A * d) @ A.T
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:  # numerically singular on a degenerate face
            L = None

        def direction(target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            rhs = rp + A @ (d * (rd - target / x))
            if L is None:
                dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
            else:
                dy = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
            dx = d * (A.T @ dy - rd + target / x)
            return dx, dy, (target - z * dx) / x

        dx, dy, dz = direction(-x * z)  # affine predictor
        alpha = min(max_step(x, dx), max_step(z, dz))
        sigma = ((x + alpha * dx) @ (z + alpha * dz) / cols / mu) ** 3
        dx, dy, dz = direction(sigma * mu - x * z - dx * dz)  # centered corrector
        # Stop short of the boundary: at 0.99 the least-norm iterates can cycle.
        alpha = min(1.0, 0.95 * min(max_step(x, dx), max_step(z, dz)))
        x, y, z = x + alpha * dx, y + alpha * dy, z + alpha * dz
    return x, z, used, float(residual)


def _solve_sum(inst: Instance, *, tol_kkt: float, max_iter: int) -> SolveResult:
    """Sum of utilities: the LP's optimal face, then its least-norm point.

    The first interior-point call solves the LP  max sum(u)  s.t.
    W^T u + slack = s,  whose dual slacks are Q_i - 1 for agents and q_j for
    goods.  It gives the optimal partition (agent i is supported when
    u_i > Q_i - 1, good j is tight when q_j > slack_j) and the reported
    multipliers: its q, with entries at or below TOL_DUAL set to 0.  The
    second call minimizes ||u||^2 / 2 over that face, with the tight goods as
    equality rows.  This least-norm optimum is the tie-break toward equal
    utilities (Friedlander & Tseng, SIAM J. Optim. 18, 2007).  An exact
    least-squares solve on its active set finishes the point.
    """
    W, s = inst.weights, inst.supply_array
    n, m = W.shape
    c = np.concatenate([-np.ones(n), np.zeros(m)])
    x, z, used, res = _interior_point(np.hstack([W.T, np.eye(m)]), s, c, np.zeros(n + m), max_iter)
    if res > _IP_TOL:
        raise NonConvergence(used, res)
    q = np.where(z[n:] > TOL_DUAL, z[n:], 0.0)
    S = np.flatnonzero(x[:n] > z[:n])
    T, N = np.flatnonzero(z[n:] > x[n:]), np.flatnonzero(z[n:] <= x[n:])

    # The tight rows W_ST^T u_S = s_T are often dependent: keep an orthonormal
    # basis of their row space, so that the equality rows have full rank.
    U, sv, Vt = np.linalg.svd(W[np.ix_(S, T)].T, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(len(S), len(T)) * np.finfo(float).eps))
    A = np.block([[Vt[:rank], np.zeros((rank, len(N)))], [W[np.ix_(S, N)].T, np.eye(len(N))]])
    b = np.concatenate([U[:, :rank].T @ s[T] / sv[:rank], s[N]])
    h = np.concatenate([np.ones(len(S)), np.zeros(len(N))])
    x, z, more, res = _interior_point(A, b, np.zeros(len(h)), h, max_iter - used)
    used += more
    if res > _IP_TOL:
        raise NonConvergence(used, res)

    # Active set of the least-norm point: the agents of S it leaves positive,
    # and the goods of T plus those of N it clears exactly.
    F = S[x[: len(S)] > z[: len(S)]]
    rows = np.concatenate([T, N[z[len(S) :] > x[len(S) :]]])
    u = np.zeros(n)
    u[F] = np.linalg.lstsq(W[np.ix_(F, rows)].T, s[rows], rcond=None)[0]
    u = _snap_feasible(W, s, np.maximum(u, 0.0))
    res, separated = _certificate(W, s, Rho.one(), u, q, tol_kkt)
    if res > tol_kkt or not separated:
        raise NonConvergence(used, res if separated else max(res, 1.0))
    return _result(inst, Rho.one(), u, q, res)


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
