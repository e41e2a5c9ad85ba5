"""Revelation mechanisms for the maxmin objective, plus counterexample demos.

The direct mechanism asks each agent for her desired set, then computes the
allocation that gives every reporting agent the same, largest-possible
utility level.  The cross-reporting mechanism additionally asks each agent
what every *other* agent wants, and applies multiplicative penalties for
disagreement and an absolute penalty for over-claiming on someone's behalf;
this kills the bad equilibria of the direct mechanism.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Allocation, Instance, Rho
from .equilibrium import TOL_EQ
from .solver import maxmin_gamma, solve_ces

MAX_EXHAUSTIVE_GOODS = 12


@dataclass(frozen=True)
class ReportMatrix:
    """rows[i][k] is the set of goods agent i claims agent k desires."""

    rows: tuple[tuple[frozenset[int], ...], ...]

    def __init__(self, rows: Sequence[Sequence[Iterable[int]]]):
        object.__setattr__(
            self, "rows", tuple(tuple(frozenset(int(j) for j in cell) for cell in row) for row in rows)
        )
        n = len(self.rows)
        if n == 0 or any(len(row) != n for row in self.rows):
            raise ValueError("report matrix must be n rows of n sets")

    @classmethod
    def unanimous(cls, sets: Sequence[Iterable[int]]) -> "ReportMatrix":
        row = [frozenset(s) for s in sets]
        return cls([list(row) for _ in row])

    @property
    def n(self) -> int:
        return len(self.rows)

    def claim(self, about: int, by: int) -> frozenset[int]:
        return self.rows[by][about]

    def replace_row(self, i: int, row: Sequence[Iterable[int]]) -> "ReportMatrix":
        rows = [list(r) for r in self.rows]
        rows[i] = [frozenset(c) for c in row]
        return ReportMatrix(rows)

    def validate_goods(self, m: int) -> None:
        for i, row in enumerate(self.rows):
            for k, cell in enumerate(row):
                if any(j < 0 or j >= m for j in cell):
                    raise ValueError(f"report[{i}][{k}] mentions a good outside 0..{m - 1}")


@dataclass(frozen=True)
class PenaltyState:
    """Disagreement counts, over-claimers, and the resulting penalty factors."""

    eta: tuple[int, ...]
    nbar: frozenset[int]
    alpha: tuple[float, ...]


def mechanism1(m_goods: int, supplies: Sequence[float], reports: Sequence[Iterable[int]]) -> Allocation:
    """Direct mechanism: equalize utilities at the highest feasible level.

    Agents reporting an empty set are left out of the common level (and get
    nothing); each other agent receives exactly the level on each reported
    good.  The output is unique given the reports.
    """
    supplies = [float(s) for s in supplies]
    if len(supplies) != m_goods:
        raise ValueError("supplies length must equal m_goods")
    sets = [frozenset(int(j) for j in r) for r in reports]
    for i, r in enumerate(sets):
        if any(j < 0 or j >= m_goods for j in r):
            raise ValueError(f"report {i} mentions a good outside 0..{m_goods - 1}")
    gamma, _ = maxmin_gamma(supplies, sets)
    x = np.zeros((len(sets), m_goods))
    for i, r in enumerate(sets):
        x[i, sorted(r)] = gamma
    return Allocation(x)


def mechanism2(
    m_goods: int, supplies: Sequence[float], reports: ReportMatrix
) -> tuple[Allocation, PenaltyState]:
    """Cross-reporting mechanism with disagreement penalties.

    eta_i counts the agents whose self-report differs from what i says about
    them; agents who claim a strict superset of anyone's self-report are
    excluded outright (penalty factor 0) and treated as wanting nothing when
    the common level is computed.
    """
    reports.validate_goods(m_goods)
    n = reports.n
    eta = []
    nbar = set()
    for i in range(n):
        eta.append(sum(1 for k in range(n) if reports.claim(k, k) != reports.claim(k, i)))
        for k in range(n):
            own = reports.claim(k, k)
            said = reports.claim(k, i)
            if own < said:
                nbar.add(i)
                break
    alpha = tuple(0.0 if i in nbar else 1.0 - eta[i] / n for i in range(n))

    effective = [frozenset() if i in nbar else reports.claim(i, i) for i in range(n)]
    y = mechanism1(m_goods, supplies, effective)
    x = y.x * np.array(alpha)[:, None]
    state = PenaltyState(eta=tuple(eta), nbar=frozenset(nbar), alpha=alpha)
    return Allocation(x), state


def _true_utility(true_set: frozenset[int], x_row: np.ndarray) -> float:
    return float(min(x_row[j] for j in true_set)) if true_set else 0.0


def check_strategyproof_m1(
    m_goods: int,
    supplies: Sequence[float],
    true_sets: Sequence[Iterable[int]],
    i: int,
    *,
    tol: float = TOL_EQ,
) -> dict | None:
    """Exhaustively search agent ``i``'s reports for a profitable lie.

    Returns a description of a strictly improving report, or None.  The
    search space is all 2^m subsets, so m is capped.
    """
    if m_goods > MAX_EXHAUSTIVE_GOODS:
        raise ValueError(f"exhaustive search limited to {MAX_EXHAUSTIVE_GOODS} goods")
    sets = [frozenset(int(j) for j in r) for r in true_sets]
    if not 0 <= i < len(sets):
        raise IndexError("agent index out of range")
    found = _profitable_report(m_goods, supplies, sets, sets, i, tol)
    if found is None:
        return None
    report, value, baseline = found
    return {"agent": i, "report": sorted(report), "utility": value, "truthful_utility": baseline}


def _profitable_report(
    m: int,
    supplies: Sequence[float],
    true_sets: Sequence[frozenset[int]],
    profile: Sequence[frozenset[int]],
    i: int,
    tol: float,
) -> tuple[frozenset[int], float, float] | None:
    """Agent i's first profitable deviation from ``profile`` under mechanism1.

    Reports are tried smallest subsets first; one is profitable when it raises
    i's true utility by more than ``tol``.  Returns (report, utility, utility
    at ``profile``), or None.
    """
    base = _true_utility(true_sets[i], mechanism1(m, supplies, profile).x[i])
    for report in _all_subsets(m):
        if report == profile[i]:
            continue
        trial = list(profile)
        trial[i] = report
        value = _true_utility(true_sets[i], mechanism1(m, supplies, trial).x[i])
        if value > base + tol:
            return report, value, base
    return None


def demo_bad_ne_m1(n: int, *, tol: float = TOL_EQ) -> dict:
    """Everyone-claims-everything equilibrium of the direct mechanism.

    With n agents, n unit-supply goods, and true sets {i}, the all-goods
    report profile is an equilibrium whose minimum utility is n times worse
    than the optimum; the truthful profile is an equilibrium as well.
    """
    if n < 2:
        raise ValueError("need at least two agents")
    if n > MAX_EXHAUSTIVE_GOODS:
        raise ValueError(f"exhaustive search limited to {MAX_EXHAUSTIVE_GOODS} goods")
    supplies = [1.0] * n
    true_sets = [frozenset({i}) for i in range(n)]
    everything = frozenset(range(n))

    def is_equilibrium(profile: list[frozenset[int]]) -> bool:
        return all(
            _profitable_report(n, supplies, true_sets, profile, i, tol) is None for i in range(n)
        )

    all_m = [everything] * n
    bad_alloc = mechanism1(n, supplies, all_m)
    bad_value = min(_true_utility(true_sets[i], bad_alloc.x[i]) for i in range(n))
    truthful = list(true_sets)
    opt_alloc = mechanism1(n, supplies, truthful)
    opt_value = min(_true_utility(true_sets[i], opt_alloc.x[i]) for i in range(n))
    return {
        "n": n,
        "all_goods_is_equilibrium": is_equilibrium(all_m),
        "all_goods_maxmin": bad_value,
        "truthful_is_equilibrium": is_equilibrium(truthful),
        "optimal_maxmin": opt_value,
        "ratio": opt_value / bad_value,
    }


def _all_subsets(m: int) -> list[frozenset[int]]:
    return [
        frozenset(c) for size in range(m + 1) for c in itertools.combinations(range(m), size)
    ]


def _nth_subset(m: int, k: int) -> frozenset[int]:
    """``_all_subsets(m)[k]``, without building the 2^m subsets."""
    size = 0
    while k >= math.comb(m, size):
        k -= math.comb(m, size)
        size += 1
    chosen = []
    good = 0
    for left in range(size, 0, -1):
        # Skip every combination whose next good is ``good``.
        while k >= (count := math.comb(m - good - 1, left - 1)):
            k -= count
            good += 1
        chosen.append(good)
        good += 1
    return frozenset(chosen)


def demo_m2_truthful_ne(
    supplies: Sequence[float],
    true_sets: Sequence[Iterable[int]],
    *,
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
    tol: float = TOL_EQ,
) -> dict:
    """Verify that unanimous truthful reporting is stable under mechanism2.

    Every alternative row an agent could submit ((2^m)^n of them) is
    enumerated when there are at most 4096; above that a seeded random sample is
    used instead, each set drawn by its index in the enumeration order, so m
    may reach 62 goods.  Also confirms the truthful outcome is
    maxmin-optimal.
    """
    m = len(supplies)
    if 2**m > np.iinfo(np.int64).max:
        raise ValueError(f"{m} goods give 2^{m} report sets, more than a 64-bit integer can index")
    sets = [frozenset(int(j) for j in r) for r in true_sets]
    n = len(sets)
    truthful = ReportMatrix.unanimous(sets)
    x, state = mechanism2(m, supplies, truthful)
    base = [_true_utility(sets[i], x.x[i]) for i in range(n)]

    gamma, _ = maxmin_gamma(supplies, sets)
    welfare = min(base)
    if abs(welfare - gamma) > tol:
        raise RuntimeError(f"truthful outcome is not maxmin-optimal: {welfare} vs {gamma}")

    space = (2**m) ** n
    exhaustive = space <= 4096
    checked = 0
    witness = None
    if exhaustive:
        rows = [list(c) for c in itertools.product(_all_subsets(m), repeat=n)]
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        rows = [[_nth_subset(m, int(rng.integers(2**m))) for _ in range(n)] for _ in range(samples)]
    for i in range(n):
        for row in rows:
            trial = truthful.replace_row(i, row)
            x2, _ = mechanism2(m, supplies, trial)
            value = _true_utility(sets[i], x2.x[i])
            checked += 1
            if value > base[i] + tol:
                witness = {"agent": i, "row": [sorted(c) for c in row], "utility": value}
                break
        if witness:
            break
    return {
        "is_nash_equilibrium": witness is None,
        "welfare": welfare,
        "optimal": gamma,
        "mode": "exhaustive" if exhaustive else "sampled",
        "deviations_checked": checked,
        "witness": witness,
    }


def five_by_seven_instance(lie: bool = False) -> Instance:
    """Five agents over seven goods; the misreport study's fixture.

    Good 6 has supply 2, everything else 1.  Agents 0-2 pairwise conflict
    with agents 3-4 on single-supply goods and jointly share good 6.  With
    ``lie`` agent 3's set additionally claims good 6.
    """
    supplies = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
    desired = [
        {0, 1, 6},
        {2, 3, 6},
        {4, 5, 6},
        {0, 2, 4, 6} if lie else {0, 2, 4},
        {1, 3, 5},
    ]
    return Instance(supplies, desired)


def truthful_best_utility(rho_value: float) -> float:
    """Agent 3's utility at the truthful optimum of the 5x7 fixture, rho < 1.

    Closed form from the two-block reduction of the welfare program: the
    three-agent block gets 1/((3/2)^(1/(rho-1)) + 1) each, capped at 2/3 by
    the shared good, and agent 3 gets the complement.
    """
    if rho_value >= 1:
        raise ValueError("closed form applies to rho < 1")
    u_a = 1.0 / ((3.0 / 2.0) ** (1.0 / (rho_value - 1.0)) + 1.0)
    u_a = min(u_a, 2.0 / 3.0)
    return 1.0 - u_a


def demo_not_strategyproof_ces(rho: Rho, *, tol: float = TOL_EQ) -> dict:
    """Show that enlarging a desired set can raise the welfare-optimal payoff.

    Solves the 5x7 fixture under the truthful profile and under the enlarged
    profile, and checks that agent 3's true utility crosses 1/2 between them.
    """
    if rho.is_maxmin:
        raise ValueError("the misreport demo applies to rho in (-inf, 1]")
    truthful = solve_ces(five_by_seven_instance(lie=False), rho)
    lied = solve_ces(five_by_seven_instance(lie=True), rho)
    # Agent 3's true set is {0, 2, 4} in both profiles.
    true_u4_truthful = float(min(truthful.x_star.x[3, j] for j in (0, 2, 4)))
    true_u4_lie = float(min(lied.x_star.x[3, j] for j in (0, 2, 4)))
    if not true_u4_truthful < 0.5:
        raise RuntimeError(f"expected truthful utility below 1/2, got {true_u4_truthful}")
    if not true_u4_lie >= 0.5 - tol:
        raise RuntimeError(f"expected misreport utility at least 1/2, got {true_u4_lie}")
    return {
        "rho": rho.value,
        "truthful_utilities": [float(v) for v in truthful.u_star],
        "lie_utilities": [float(v) for v in lied.u_star],
        "truthful_u4": true_u4_truthful,
        "lie_u4": true_u4_lie,
        "gain": true_u4_lie - true_u4_truthful,
    }
