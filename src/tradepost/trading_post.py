"""Trading-post market game: bids, curve families, and the allocation rule.

Each agent places a bid on every good.  Besides positive amounts, two special
bids exist: 0 ("I do not want this good") and beta ("I want this good but hope
to get it for free").  Beta costs nothing but exposes the bidder to a penalty
when too many free claims pile up on one good.  Per-agent bid budgets are
nonlinear: a family of power curves prices each good's bid, and the summed
cost must not exceed 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import TOL_FEAS, Allocation, Instance, utilities

#: Positive bids at or below this are treated as zero, keeping the
#: proportional rule's denominators away from the denormal range.  The floor
#: must sit far below 1: with constraint curves t**(1-rho) the equilibrium
#: bid on a good is q_j**(1/(1-rho)) times the quantity, which for rho near 1
#: is legitimately astronomically small.
TOL_BID = 1e-120

#: Smallest positive bid the numeric deviation oracle will place.
_MIN_POSITIVE = 1e-100


class InfeasibleBid(ValueError):
    """A bid row violates its budget constraint."""

    def __init__(self, agent: int, cost: float):
        self.agent = agent
        self.cost = cost
        super().__init__(f"agent {agent} bid cost {cost!r} exceeds budget 1")


@dataclass(frozen=True)
class Bid:
    """A single bid: zero, beta, or a positive amount."""

    amount: float = 0.0
    is_beta: bool = False

    def __post_init__(self) -> None:
        if self.is_beta and self.amount != 0.0:
            raise ValueError("beta bids carry no amount")
        if self.amount < 0 or not math.isfinite(self.amount):
            raise ValueError(f"bid amount must be finite and nonnegative, got {self.amount}")
        if 0 < self.amount <= TOL_BID:
            object.__setattr__(self, "amount", 0.0)

    @classmethod
    def zero(cls) -> "Bid":
        return cls(0.0, False)

    @classmethod
    def beta(cls) -> "Bid":
        return cls(0.0, True)

    @classmethod
    def positive(cls, amount: float) -> "Bid":
        return cls(float(amount), False)

    @property
    def is_positive(self) -> bool:
        return self.amount > 0

    @property
    def is_zero(self) -> bool:
        return not self.is_beta and self.amount == 0.0


def _as_bid(amount: float, is_beta: bool) -> Bid:
    """The public cell view of one (amount, beta) matrix entry."""
    if is_beta:
        return Bid.beta()
    return Bid.positive(amount) if amount > 0 else Bid.zero()


class BidMatrix:
    """An n-by-m matrix of bids, stored as amounts plus a beta mask."""

    __slots__ = ("amounts", "beta")

    def __init__(self, amounts: np.ndarray, beta: np.ndarray):
        amounts = np.array(amounts, dtype=float)
        beta = np.array(beta, dtype=bool)
        if amounts.ndim != 2 or beta.shape != amounts.shape:
            raise ValueError("amounts and beta mask must be matching 2-D arrays")
        if np.any(amounts < 0) or not np.all(np.isfinite(amounts)):
            raise ValueError("bid amounts must be finite and nonnegative")
        amounts[amounts <= TOL_BID] = 0.0
        if np.any(beta & (amounts > 0)):
            raise ValueError("a bid cannot be both beta and positive")
        amounts.setflags(write=False)
        beta.setflags(write=False)
        self.amounts = amounts
        self.beta = beta

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Bid]]) -> "BidMatrix":
        rows = [list(r) for r in rows]
        amounts = np.array([[b.amount for b in r] for r in rows], dtype=float)
        beta = np.array([[b.is_beta for b in r] for r in rows], dtype=bool)
        return cls(amounts, beta)

    @property
    def n(self) -> int:
        return self.amounts.shape[0]

    @property
    def m(self) -> int:
        return self.amounts.shape[1]

    def bid(self, i: int, j: int) -> Bid:
        return _as_bid(self.amounts[i, j], self.beta[i, j])

    def row(self, i: int) -> tuple[Bid, ...]:
        return tuple(map(_as_bid, self.amounts[i].tolist(), self.beta[i].tolist()))

    def replace_row(self, i: int, bids: Sequence[Bid]) -> "BidMatrix":
        if len(bids) != self.m:
            raise ValueError(f"row must have {self.m} entries")
        amounts = self.amounts.copy()
        beta = self.beta.copy()
        amounts[i] = [b.amount for b in bids]
        beta[i] = [b.is_beta for b in bids]
        return BidMatrix(amounts, beta)

    def to_lists(self) -> list[list[float | str]]:
        """JSON form: positive numbers, literal 0, or the string "beta"."""
        out = self.amounts.tolist()
        for i, j in zip(*np.nonzero(self.beta)):
            out[i][j] = "beta"
        return out

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[float | str]]) -> "BidMatrix":
        """Parse the JSON form; every malformed cell is reported by position."""
        if not data:
            raise ValueError("bids must be a nonempty 2-D array")
        m, largest = len(data[0]), sys.float_info.max
        amounts = np.zeros((len(data), m))
        beta = np.zeros((len(data), m), dtype=bool)
        for i, raw in enumerate(data):
            if not isinstance(raw, (list, tuple)) or len(raw) != m:
                raise ValueError(f"bids[{i}]: expected a row of {m} cells")
            row = list(raw)
            for j, cell in enumerate(raw):
                if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                    if not 0 <= cell <= largest:
                        raise ValueError(f"bids[{i}][{j}]: bid must be finite and >= 0, got {cell!r}")
                elif isinstance(cell, str):
                    if cell.strip().lower() != "beta":
                        raise ValueError(f"bids[{i}][{j}]: unknown token {cell!r}")
                    beta[i, j] = True
                    row[j] = 0.0
                else:
                    raise ValueError(f"bids[{i}][{j}]: expected a number or \"beta\", got {cell!r}")
            amounts[i] = row
        return cls(amounts, beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BidMatrix):
            return NotImplemented
        return bool(np.array_equal(self.amounts, other.amounts) and np.array_equal(self.beta, other.beta))


@dataclass(frozen=True)
class PowerCurve:
    """The map t -> coeff * t**degree on nonnegative reals.

    Curves are homogeneous of their degree, which the equilibrium reductions
    rely on.  A zero coefficient encodes the identically-zero curve (allowed
    for price curves, rejected for constraint curves).
    """

    coeff: float
    degree: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.coeff) or self.coeff < 0:
            raise ValueError(f"coefficient must be finite and nonnegative, got {self.coeff}")
        if not math.isfinite(self.degree) or self.degree <= 0:
            raise ValueError(f"degree must be positive, got {self.degree}")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("curves are defined on nonnegative reals")
        if t == 0.0:
            return 0.0
        return self.coeff * t**self.degree

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0.0

    def scaled(self, a: float) -> "PowerCurve":
        return PowerCurve(self.coeff * a, self.degree)


class CurveFamily:
    """Per-good power curves; doubles as constraint curves and price curves."""

    __slots__ = ("curves",)

    def __init__(self, curves: Iterable[PowerCurve]):
        self.curves = tuple(curves)
        if not self.curves:
            raise ValueError("curve family cannot be empty")

    @classmethod
    def atp(cls, rho_value: float, m: int) -> "CurveFamily":
        """Unit curves t -> t**(1-rho) on every good."""
        if rho_value >= 1:
            raise ValueError("unit power curves require rho < 1")
        return cls(PowerCurve(1.0, 1.0 - rho_value) for _ in range(m))

    @classmethod
    def linear(cls, m: int) -> "CurveFamily":
        return cls(PowerCurve(1.0, 1.0) for _ in range(m))

    @property
    def m(self) -> int:
        return len(self.curves)

    def __getitem__(self, j: int) -> PowerCurve:
        return self.curves[j]

    def __iter__(self):
        return iter(self.curves)

    def require_constraint_curves(self) -> None:
        for j, c in enumerate(self.curves):
            if c.is_zero:
                raise ValueError(f"constraint curve for good {j} must be strictly increasing")

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([c.coeff for c in self.curves])

    @property
    def degrees(self) -> np.ndarray:
        return np.array([c.degree for c in self.curves])

    def cost(self, quantities: Sequence[float]) -> float:
        """Summed curve cost of a nonnegative per-good vector."""
        v = np.asarray(quantities, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected {self.m} entries")
        if np.any(v < 0):
            raise ValueError("quantities must be nonnegative")
        return float(np.sum(self.coeffs * np.where(v > 0, v, 0.0) ** self.degrees))

    def cost_rows(self, amounts: np.ndarray) -> np.ndarray:
        """Row-wise cost of an amounts matrix (zeros cost nothing)."""
        safe = np.where(amounts > 0, amounts, 1.0)
        terms = np.where(amounts > 0, self.coeffs * safe**self.degrees, 0.0)
        return terms.sum(axis=1)


def bid_cost(f: CurveFamily, bids: Sequence[Bid]) -> float:
    """Budget cost of one bid row; zero and beta bids cost nothing."""
    f.require_constraint_curves()
    if len(bids) != f.m:
        raise ValueError(f"expected {f.m} bids")
    return _row_cost(f, [b.amount for b in bids])


def _row_cost(f: CurveFamily, amounts: Sequence[float]) -> float:
    """Budget cost of one row of amounts; zero amounts cost nothing."""
    return float(sum(f[j](a) for j, a in enumerate(amounts) if a > 0))


#: Relative width of the boundary band in which step-2 claims are trimmed to
#: the supply instead of triggering the step-3 penalty.  Exactly-boundary
#: claims are legitimate (demand meeting supply on an unpriced good); the
#: band absorbs the float noise of solver outputs and proportional shares.
_STEP3_BAND = 1e-6


def _run_allocation_rule(
    inst: Instance, amounts: np.ndarray, beta: np.ndarray, tol_feas: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply steps 1-3; returns the final matrix and the step-3 trigger mask."""
    s = inst.supply_array
    n, m = inst.n, inst.m
    x = np.zeros((n, m))

    col_total = amounts.sum(axis=0)
    priced = col_total > 0
    if priced.any():
        x[:, priced] = amounts[:, priced] / col_total[priced] * s[priced]

    # Step 2: each row's duplication level is its first positively-bid good's
    # step-1 share (0 if the row has no positive bid).
    has_pos = amounts > 0
    first_pos = np.argmax(has_pos, axis=1)
    level = np.where(has_pos.any(axis=1), x[np.arange(n), first_pos], 0.0)
    free = ~priced
    over = np.zeros(m, dtype=bool)
    if free.any():
        x[:, free] = np.where(beta[:, free], level[:, None], 0.0)

        # Step 3, evaluated only after all step-2 allocations are in place.
        totals = x.sum(axis=0)
        band = np.maximum(tol_feas, _STEP3_BAND * np.maximum(1.0, s))
        over = free & (totals > s + band)
        trim = free & ~over & (totals > s)
        if trim.any():
            x[:, trim] *= s[trim] / totals[trim]
        if over.any():
            penalized = beta[:, over].any(axis=1)
            x[penalized, :] = 0.0

    return x, over


def atp_allocate(
    inst: Instance,
    f: CurveFamily,
    bids: BidMatrix,
    *,
    tol_feas: float = TOL_FEAS,
    check_budgets: bool = True,
) -> Allocation:
    """Run the three-step allocation rule on a full bid profile.

    Step 1 splits each good with at least one positive bid proportionally to
    the positive bids.  Step 2 lets beta bidders on goods nobody paid for
    duplicate the quantity they won on their first positively-bid good.  Step
    3 zeroes the entire row of every beta bidder on any good whose step-2
    claims exceed the supply.
    """
    f.require_constraint_curves()
    if bids.n != inst.n or bids.m != inst.m:
        raise ValueError(f"bid matrix shape ({bids.n}, {bids.m}) != ({inst.n}, {inst.m})")
    if check_budgets:
        costs = f.cost_rows(bids.amounts)
        for i in range(inst.n):
            if costs[i] > 1.0 + tol_feas:
                raise InfeasibleBid(i, float(costs[i]))

    x, _ = _run_allocation_rule(inst, bids.amounts, bids.beta, tol_feas)
    return Allocation.checked(inst, x, tol=tol_feas)


def _others_positive(bids: BidMatrix, i: int) -> np.ndarray:
    other = bids.amounts.copy()
    other[i, :] = 0.0
    return other.sum(axis=0)


def best_response(
    inst: Instance,
    f: CurveFamily,
    bids: BidMatrix,
    i: int,
    *,
    tol_br: float = 1e-8,
) -> tuple[tuple[Bid, ...], float]:
    """Numerically maximize agent ``i``'s utility against fixed opponent bids.

    To reach quantity t on a good where opponents bid B > 0 in total, the
    agent must bid t*B/(s-t); summed curve costs are strictly increasing in t,
    so the best affordable target is found by bisection.  Goods no opponent
    pays for are claimed with beta when the step-3 check tolerates it, and
    otherwise with a minimal positive bid (any positive amount wins the whole
    supply there, so the smallest valid bid is cost-optimal).
    """
    f.require_constraint_curves()
    if not 0 <= i < inst.n:
        raise IndexError(f"agent index {i} out of range")
    s = inst.supply_array
    desired = sorted(inst.desired[i])
    B = _others_positive(bids, i)
    paid = [j for j in desired if B[j] > 0]
    free = [j for j in desired if B[j] == 0]

    cap = min(s[j] for j in desired)
    hi = cap * (1.0 - 1e-12)

    def build_row(t: float, forced_positive: set[int]) -> tuple[np.ndarray, np.ndarray]:
        amounts = np.zeros(inst.m)
        beta = np.zeros(inst.m, dtype=bool)
        anchored = False
        if t > 0 and paid:
            amounts[paid] = t * B[paid] / (s[paid] - t)
            anchored = True
        for j in free:
            if j in forced_positive:
                amounts[j] = _MIN_POSITIVE
                anchored = True
            else:
                beta[j] = True
        if free and not anchored:
            # Beta needs a positively-bid good to copy from.
            amounts[free[0]] = _MIN_POSITIVE
            beta[free[0]] = False
        amounts[amounts <= TOL_BID] = 0.0
        return amounts, beta

    def row_cost(t: float, forced_positive: set[int]) -> float:
        total = sum(f[j](t * B[j] / (s[j] - t)) for j in paid) if t > 0 else 0.0
        total += sum(f[j](_MIN_POSITIVE) for j in forced_positive)
        if free and not paid and not forced_positive:
            total += f[free[0]](_MIN_POSITIVE)
        return total

    # Candidate rows are written into row i of one working copy.
    trial_amounts, trial_beta = bids.amounts.copy(), bids.beta.copy()

    def evaluate(row: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray]:
        trial_amounts[i], trial_beta[i] = row
        x, over = _run_allocation_rule(inst, trial_amounts, trial_beta, TOL_FEAS)
        return float(utilities(inst, x)[i]), over

    best_row = (np.zeros(inst.m), np.zeros(inst.m, dtype=bool))
    best_util = 0.0
    incumbent_row = (bids.amounts[i], bids.beta[i])
    if _row_cost(f, incumbent_row[0].tolist()) <= 1.0 + TOL_FEAS:
        best_row = incumbent_row
        best_util, _ = evaluate(incumbent_row)

    forced: set[int] = set()
    for _ in range(len(free) + 1):
        if row_cost(0.0, forced) > 1.0 + TOL_FEAS:
            break
        lo, t_hi = 0.0, hi
        if row_cost(t_hi, forced) <= 1.0:
            t_star = t_hi
        else:
            while t_hi - lo > tol_br * max(1.0, cap):
                mid = 0.5 * (lo + t_hi)
                if row_cost(mid, forced) <= 1.0:
                    lo = mid
                else:
                    t_hi = mid
            t_star = lo
        row = build_row(t_star, forced)
        got, over = evaluate(row)
        if got > best_util:
            best_util = got
            best_row = row
        if got + tol_br * max(1.0, cap) >= t_star:
            break
        # A beta claim got penalized or under-delivered: force a positive bid
        # on every free good whose step-2 claims broke the supply constraint.
        row_beta = row[1]
        newly = {j for j in free if j not in forced and row_beta[j] and over[j]}
        if not newly:
            newly = {j for j in free if j not in forced}
            if not newly:
                break
        forced |= newly

    return tuple(map(_as_bid, best_row[0].tolist(), best_row[1].tolist())), best_util
