"""Welfare maximization over feasible utility vectors.

The program  max Phi_rho(u)  s.t.  sum_i w_ij u_i <= s_j,  u >= 0  is solved
directly in utility space: any feasible utility vector is realized by the
allocation x_ij = w_ij * u_i.  Both objective families use numpy-only
Mehrotra interior points that share the step rule, the centring and the
Cholesky solve of an m x m normal matrix.

- Finite rho < 1: utilities are the closed-form response
  u_i = (sum_{j in R_i} q_j)^(-1/(1-rho)) to per-good prices q, and one
  path-following solve drives the dual's complementarity conditions,
  supply slack z = s - W^T u(q) >= 0 with q * z = 0.  Undamped Newton steps
  on the goods it finds tight finish the point to round-off.
- Sum (rho = 1): a linear program.  One interior-point call finds its
  optimal face, a second the least-norm point on that face.

The returned multipliers are normalized so that the budget identity
sum_{j in R_i} q_j * u_i^(1-rho) = 1 holds for every agent at the solution;
under this normalization the power price curves q_j * t^(1-rho) give every
agent a unit budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import Allocation, Instance, Rho, ces_welfare, require_positive

#: Target on stationarity, feasibility, and complementary slackness, relative
#: to max(1, s_j) for good-indexed terms.
TOL_KKT = 1e-7

#: Multipliers at or below this are reported as zero-priced.
TOL_DUAL = 1e-8

#: Default interior-point iteration budget.
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
    the KKT residual drops below ``tol_kkt``; ``max_iter`` counts
    interior-point iterations.  ``tol_kkt`` must be finite and > 0,
    ``max_iter`` an integer > 0.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    require_positive(tol_kkt=tol_kkt, max_iter=max_iter)
    if rho.is_maxmin:
        raise ValueError("use solve_maxmin for the maxmin objective")
    if rho.is_one:
        return _solve_sum(inst, tol_kkt=tol_kkt, max_iter=max_iter)
    return _solve_finite(inst, rho, tol_kkt=tol_kkt, max_iter=max_iter)


#: Iteration cap of one interior-point solve (Mehrotra's method needs a few
#: dozen at most) and the stopping tolerance of :func:`_interior_point`.
_IP_ROUNDS = 100
_IP_TOL = 1e-12

#: Machine epsilon: the scale of the rank tests in the finite-rho finish and the least-norm call.
_EPS = np.finfo(float).eps


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps v + step * dv >= 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.min(np.where(dv < 0, -v / dv, 1.0), initial=1.0))


#: Rows per block of the triangular solves in :func:`_cho_solver`.
_BLOCK = 64


def _cholesky(M: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of M, or None when M is not numerically positive definite."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _lower_inverse(T: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular block, from the inverses of its two diagonal halves.

    With T = [[A, 0], [C, D]], the inverse is [[A^-1, 0], [-D^-1 C A^-1, D^-1]].
    """
    h = len(T) // 2
    A_inv, D_inv = np.linalg.inv(T[:h, :h]), np.linalg.inv(T[h:, h:])
    out = np.zeros_like(T)
    out[:h, :h] = A_inv
    out[h:, h:] = D_inv
    out[h:, :h] = -D_inv @ (T[h:, :h] @ A_inv)
    return out


def _cho_solver(L: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solve L L^T d = rhs by block forward and back substitution.

    numpy has no triangular solve.  With m <= ``_BLOCK`` a solve is exactly
    the two solves on L and L^T.  With more rows each diagonal block of at
    most ``_BLOCK`` rows is inverted once per factor (by ``_lower_inverse``:
    two half-size inverses cost less than one ``np.linalg.inv`` of the
    block), so that each right-hand side costs one small matvec per diagonal
    block and one per block row.
    """
    if len(L) <= _BLOCK:
        return lambda rhs: np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    starts = range(0, len(L), _BLOCK)
    inverse = {k: _lower_inverse(L[k : k + _BLOCK, k : k + _BLOCK]) for k in starts}

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = np.empty_like(rhs)
        for k in starts:
            e = k + _BLOCK
            y[k:e] = inverse[k] @ (rhs[k:e] - L[k:e, :k] @ y[:k])
        d = np.empty_like(rhs)
        for k in reversed(starts):
            e = k + _BLOCK
            d[k:e] = inverse[k].T @ (y[k:e] - L[e:, k:e].T @ d[e:])
        return d

    return solve


def _spd_solver(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solve M d = rhs through one Cholesky factor, by least squares when M is numerically singular."""
    L = _cholesky(M)
    if L is None:
        return lambda rhs: np.linalg.lstsq(M, rhs, rcond=None)[0]
    return _cho_solver(L)


def _newton_step(N: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve N d = rhs through a Cholesky factor when N is clearly nonsingular, else its least-norm solution.

    N counts as nonsingular when its factor's smallest pivot, squared, is
    above eps * size times its largest diagonal entry.  The interior point's
    direction solves (:func:`_spd_solver`) skip this test: applied there, it
    made solves fail that succeed with the Cholesky step.
    """
    L = _cholesky(N)
    if L is not None and np.min(np.diag(L)) ** 2 > _EPS * len(N) * np.max(np.diag(N)):
        return _cho_solver(L)(rhs)
    return np.linalg.lstsq(N, rhs, rcond=None)[0]


def _mehrotra_step(
    x: np.ndarray, z: np.ndarray, direction: Callable[[np.ndarray], tuple[np.ndarray, ...]]
) -> tuple[tuple[np.ndarray, ...], float]:
    """Mehrotra's predictor-corrector step for complementary pairs x, z > 0.

    ``direction(target)`` returns the Newton step (dx, dz, ...) whose
    linearized change of x * z is ``target``.  Returns the centred corrector
    and 0.95 of the step to the boundary, capped at 1.
    """
    mu = x @ z / len(x)
    dx, dz, *_ = direction(-x * z)  # affine predictor
    alpha = min(_max_step(x, dx), _max_step(z, dz))
    sigma = ((x + alpha * dx) @ (z + alpha * dz) / len(x) / mu) ** 3
    step = direction(sigma * mu - x * z - dx * dz)  # centred corrector
    # Stop short of the boundary: at 0.99 the least-norm iterates can cycle.
    return step, min(1.0, 0.95 * min(_max_step(x, step[0]), _max_step(z, step[1])))


def _normal_matrix(W: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """h -> W^T diag(h) W for a 0/1 matrix W, summed over the pairs of goods one agent desires.

    That is O(sum |R_i|^2) work per call instead of O(n m^2).  The nonzeros of
    W come row by row; each is paired with every nonzero of its own row.
    """
    m = W.shape[1]
    agent, good = np.nonzero(W)
    size = np.bincount(agent)[agent]
    pair = np.repeat(np.arange(len(agent)), size)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size)
    other = np.searchsorted(agent, agent)[pair] + offset
    pair_agent, pair_cell = agent[pair], good[pair] * m + good[other]
    return lambda h: np.bincount(pair_cell, weights=h[pair_agent], minlength=m * m).reshape(m, m)


#: Newton steps of the finish, and halvings of one interior-point step.
_FINISH_ROUNDS = 4
_BACKTRACKS = 30


def _solve_finite(inst: Instance, rho: Rho, *, tol_kkt: float, max_iter: int) -> SolveResult:
    """Finite rho: path following on the dual's complementarity conditions.

    Utilities are the closed-form response u_i = Q_i^(-1/(1-rho)) to the
    prices, Q = W q, so the budget identity holds by construction.  The
    iterates are prices q > 0 and supply slacks z > 0, driven towards
    z = s - W^T u(q)  and  q * z = 0,  a monotone complementarity problem
    (Kojima, Megiddo & Noma, Math. Programming 50, 1991).  Each Mehrotra
    step solves  (W^T diag(h) W + diag(z / q)) dq = rhs,  where
    h = u / ((1 - rho) Q) is the demand's sensitivity to Q.  It starts at
    q_j = gamma^(rho - 1), gamma the maxmin level, so that every u_i <= gamma.
    Once the iterates near the solution, a finish takes undamped Newton steps
    on the goods with q > z, the others unpriced, down to round-off.
    """
    W, s = inst.weights, inst.supply_array
    r = rho.value
    normal = _normal_matrix(W)

    def respond(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Utilities at prices q, their sensitivity h, and the supply slacks s - W^T u."""
        Q = W @ q
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = Q ** (1.0 / (r - 1.0))
            return u, u / ((1.0 - r) * Q), s - u @ W

    def judged(q: np.ndarray) -> float:
        u = respond(q)[0]
        if not np.all(np.isfinite(u)):
            return math.inf
        res, separated = _certificate(W, s, rho, _snap_feasible(W, s, u), q, tol_kkt)
        return res if separated else max(res, 1.0)

    def finish(q: np.ndarray, tight: np.ndarray) -> tuple[float, np.ndarray]:
        """Newton on s_T = W_T^T u(q) with q zero off T, until the certificate stops halving."""
        q = np.where(tight, q, 0.0)
        best = (judged(q), q)
        for _ in range(_FINISH_ROUNDS):
            _, h, slack = respond(q)
            if not np.all(np.isfinite(h)):
                break
            q = q.copy()
            step = _newton_step(normal(h)[np.ix_(tight, tight)], slack[tight])
            q[tight] = np.maximum(q[tight] - step, 0.0)
            res = judged(q)
            halved = res < best[0] / 2
            if res < best[0]:
                best = (res, q)
            if not halved:
                break
        return best

    q = np.full(len(s), np.min(s / W.sum(axis=0)) ** (r - 1.0))
    z = s.copy()
    _, h, slack = respond(q)
    best = (math.inf, q)
    for used in range(1, min(max_iter, _IP_ROUNDS) + 1):
        resid = z - slack
        solve = _spd_solver(normal(h) + np.diag(z / q))

        def direction(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            dq = solve(resid + target / q)
            return dq, (target - z * dq) / q

        (dq, dz), alpha = _mehrotra_step(q, z, direction)
        # The step is a linearization: take it unless it blows up ||resid||.
        for _ in range(_BACKTRACKS):
            _, h, slack = respond(q + alpha * dq)
            with np.errstate(over="ignore", invalid="ignore"):
                accepted = np.sum((z + alpha * dz - slack) ** 2) <= 10.0 * (resid @ resid)
            if accepted:
                break
            alpha /= 2.0
        else:
            break
        q, z = q + alpha * dq, z + alpha * dz
        if np.max((q * z + np.abs(z - slack)) / np.maximum(1.0, s)) <= tol_kkt:
            best = min(best, finish(q, q > z), key=lambda b: b[0])
            if best[0] <= tol_kkt * 0.5:
                break
    if best[0] > tol_kkt:
        # No finish certified a point: judge the last iterate itself.
        best = min(best, (judged(q), q), key=lambda b: b[0])
    res, q = best
    if res > tol_kkt:
        raise NonConvergence(used, res)
    return _result(inst, rho, _snap_feasible(W, s, respond(q)[0]), q, res)


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

    for used in range(rounds + 1):
        rp, rd, mu = b - A @ x, c + h * x - A.T @ y - z, x @ z / cols
        residual = max(mu, max(np.abs(rp).max(), np.abs(rd).max()) / scale)
        if residual <= _IP_TOL or used == rounds:
            break
        # Newton step on Ax = b, A^T y + z - h x = c, x z = target, reduced to
        # the normal equations A D A^T dy = rhs with D = (h + z/x)^-1.
        d = 1.0 / (h + z / x)
        solve = _spd_solver((A * d) @ A.T)

        def direction(target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            dy = solve(rp + A @ (d * (rd - target / x)))
            dx = d * (A.T @ dy - rd + target / x)
            return dx, (target - z * dx) / x, dy

        (dx, dz, dy), alpha = _mehrotra_step(x, z, direction)
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
    rank = int(np.sum(sv > sv[0] * max(len(S), len(T)) * _EPS))
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
