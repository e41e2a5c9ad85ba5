"""Shared test utilities: instance generators and independent oracles.

The welfare oracle here never touches the solver: it evaluates the objective
on feasible grids of the utility space (any feasible utility vector is
realized by giving each agent her level on exactly her desired goods).
"""
from __future__ import annotations

import itertools

import numpy as np

from tradepost import Instance, Rho


def random_instance(
    rng: np.random.Generator,
    n_max: int = 10,
    m_max: int = 10,
    supply_low: int = 1,
    supply_high: int = 5,
) -> Instance:
    """Random instance; every agent nonempty, every good covered."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    supplies = rng.integers(supply_low, supply_high + 1, size=m).astype(float)
    desired = []
    for _ in range(n):
        k = int(rng.integers(1, m + 1))
        desired.append(set(rng.choice(m, size=k, replace=False).tolist()))
    covered = set().union(*desired)
    for j in range(m):
        if j not in covered:
            desired[int(rng.integers(0, n))].add(j)
    return Instance(supplies, desired)


def sparse_instance(rng: np.random.Generator, n: int, m: int) -> Instance:
    """n agents who each desire 1-4 of m goods; every good desired by someone.

    As on a network, each agent uses few of the goods, so allocation and bid
    matrices are mostly zeros.
    """
    supplies = rng.integers(1, 6, size=m).astype(float)
    desired = [set(rng.choice(m, size=int(rng.integers(1, 5)), replace=False).tolist()) for _ in range(n)]
    for j in set(range(m)).difference(*desired):
        desired[int(rng.integers(0, n))].add(j)
    return Instance(supplies, desired)


def welfare_batch(rho: Rho, U: np.ndarray) -> np.ndarray:
    """Vectorized welfare of many utility vectors (rows of U)."""
    if rho.is_maxmin:
        return U.min(axis=1)
    if rho.is_one:
        return U.sum(axis=1)
    r = rho.value
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if r == 0.0:
            out = np.exp(np.log(U).mean(axis=1))
            out[np.any(U == 0, axis=1)] = 0.0
            return out
        total = (U**r).sum(axis=1)
        out = total ** (1.0 / r)
        out[~np.isfinite(out)] = 0.0
        if r < 0:
            out[np.any(U == 0, axis=1)] = 0.0
        return out


def _best_over(inst: Instance, rho: Rho, U: np.ndarray) -> tuple[float, np.ndarray | None]:
    W = inst.weights
    s = inst.supply_array
    best_val = -np.inf
    best_u = None
    for start in range(0, U.shape[0], 500_000):
        chunk = U[start : start + 500_000]
        feas = np.all(chunk @ W <= s + 1e-12, axis=1)
        if not feas.any():
            continue
        vals = welfare_batch(rho, chunk[feas])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_u = chunk[feas][k]
    return best_val, best_u


def _top_feasible(inst: Instance, rho: Rho, U: np.ndarray, k: int) -> np.ndarray:
    W = inst.weights
    s = inst.supply_array
    feas = np.all(U @ W <= s + 1e-12, axis=1)
    U = U[feas]
    vals = welfare_batch(rho, U)
    order = np.argsort(vals)[::-1]
    return U[order[:k]]


def grid_search_welfare(inst: Instance, rho: Rho, step: float = 1e-3, top_k: int = 30) -> float:
    """Best welfare over a utility-space grid of the given resolution.

    For one or two agents the grid is enumerated outright.  For more agents a
    coarse feasible grid is refined around its best values until the spacing
    reaches ``step``; the objective is concave and the feasible set downward
    closed, so near-optimal values survive every level.
    """
    caps = np.array([min(inst.supplies[j] for j in r) for r in inst.desired])
    n = inst.n

    if n == 1:
        axis = np.arange(0.0, caps[0] + step / 2, step)
        val, _ = _best_over(inst, rho, axis[:, None])
        return val
    if n == 2:
        ax0 = np.arange(0.0, caps[0] + step / 2, step)
        ax1 = np.arange(0.0, caps[1] + step / 2, step)
        best = -np.inf
        for start in range(0, ax0.size, 50):
            block = ax0[start : start + 50]
            U = np.stack(
                [np.repeat(block, ax1.size), np.tile(ax1, block.size)], axis=1
            )
            val, _ = _best_over(inst, rho, U)
            best = max(best, val)
        return best

    h = np.maximum(caps / 24.0, step)
    axes = [np.arange(0.0, caps[i] + h[i] / 2, h[i]) for i in range(n)]
    U = np.array(list(itertools.product(*axes)))
    centers = _top_feasible(inst, rho, U, top_k)
    best, _ = _best_over(inst, rho, centers)

    while np.any(h > step):
        h_new = np.maximum(h / 5.0, step)
        local_axes = []
        for i in range(n):
            if h[i] <= step:
                local_axes.append(np.array([0.0]))
            else:
                local_axes.append(np.arange(-1.2 * h[i], 1.2 * h[i] + h_new[i] / 2, h_new[i]))
        offsets = np.array(list(itertools.product(*local_axes)))
        points = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, n)
        points = np.clip(points, 0.0, caps[None, :])
        centers = _top_feasible(inst, rho, points, top_k)
        val, _ = _best_over(inst, rho, centers)
        best = max(best, val)
        h = h_new
    return best


def bisect_maxmin(inst: Instance, iters: int = 80) -> float:
    """Largest common utility level by bisection on feasibility."""
    W = inst.weights
    s = inst.supply_array
    lo, hi = 0.0, float(s.max())

    def feasible(gamma: float) -> bool:
        return bool(np.all(gamma * W.sum(axis=0) <= s + 1e-15))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
