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


#: Bid is frozen, so every zero or beta cell can share one instance.
_ZERO_BID = Bid.zero()
_BETA_BID = Bid.beta()


def _as_bid(amount: float, is_beta: bool) -> Bid:
    """The public cell view of one (amount, beta) matrix entry."""
    if is_beta:
        return _BETA_BID
    return Bid.positive(amount) if amount > 0 else _ZERO_BID


def _bid_row(amounts: np.ndarray, beta: np.ndarray) -> tuple[Bid, ...]:
    """The public view of one (amounts, beta) row; only positive cells get their own ``Bid``."""
    row = [_ZERO_BID] * len(amounts)
    for j in amounts.nonzero()[0].tolist():
        row[j] = Bid.positive(amounts[j])
    for j in beta.nonzero()[0].tolist():
        row[j] = _BETA_BID
    return tuple(row)


class BidMatrix:
    """An n-by-m matrix of bids, stored as amounts plus a beta mask."""

    __slots__ = ("amounts", "beta", "_totals", "_rule")

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
        self._freeze(amounts, beta)

    def _freeze(self, amounts: np.ndarray, beta: np.ndarray) -> None:
        amounts.setflags(write=False)
        beta.setflags(write=False)
        self.amounts = amounts
        self.beta = beta
        # Caches: the column totals, and (instance, utilities) under the full allocation rule.
        self._totals: np.ndarray | None = None
        self._rule: tuple[Instance, list[float]] | None = None

    def _column_totals(self) -> np.ndarray:
        """``amounts.sum(axis=0)``, computed once: the matrix never changes."""
        if self._totals is None:
            self._totals = self.amounts.sum(axis=0)
        return self._totals

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
        return _bid_row(self.amounts[i], self.beta[i])

    def replace_row(self, i: int, bids: Sequence[Bid]) -> "BidMatrix":
        """A copy with row ``i`` replaced; each ``Bid`` is valid, so nothing is checked again."""
        if len(bids) != self.m:
            raise ValueError(f"row must have {self.m} entries")
        amounts = self.amounts.copy()
        beta = self.beta.copy()
        amounts[i] = [b.amount for b in bids]
        beta[i] = [b.is_beta for b in bids]
        out = BidMatrix.__new__(BidMatrix)
        out._freeze(amounts, beta)
        return out

    def to_lists(self) -> list[list[float | str]]:
        """JSON form: positive numbers, literal 0, or the string "beta"."""
        out = self.amounts.tolist()
        for i, j in zip(*np.nonzero(self.beta)):
            out[i][j] = "beta"
        return out

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[float | str]]) -> "BidMatrix":
        """Parse the JSON form; every malformed cell is reported by position.

        A row of only floats and "beta" tokens is filled whole, and all such
        cells are range-checked in one array pass; other rows are checked cell
        by cell.  If anything is bad, every row is checked again cell by cell,
        so that the error names the first bad cell in row-major order.
        """
        if not data:
            raise ValueError("bids must be a nonempty 2-D array")
        m = len(data[0])
        amounts = np.zeros((len(data), m))
        beta = np.zeros((len(data), m), dtype=bool)
        try:
            for i, raw in enumerate(data):
                kinds = set(map(type, raw)) if isinstance(raw, (list, tuple)) and len(raw) == m else {None}
                if kinds <= {float}:
                    amounts[i] = raw
                elif kinds <= {float, str} and all(map(_is_beta, {c for c in raw if type(c) is str})):
                    is_str = [type(c) is str for c in raw]
                    amounts[i] = [0.0 if s else c for c, s in zip(raw, is_str)]
                    beta[i] = is_str
                else:
                    amounts[i], beta[i] = _parse_row(i, raw, m)
            if ((amounts >= 0) & (amounts <= sys.float_info.max)).all():
                return cls(amounts, beta)
        except ValueError:
            pass
        for i, raw in enumerate(data):
            amounts[i], beta[i] = _parse_row(i, raw, m)
        return cls(amounts, beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BidMatrix):
            return NotImplemented
        return bool(np.array_equal(self.amounts, other.amounts) and np.array_equal(self.beta, other.beta))


def _check_curves(coeffs: np.ndarray, degrees: np.ndarray) -> None:
    """The one validity rule for curves: coefficients finite and >= 0, degrees finite and > 0."""
    bad = ~(np.isfinite(coeffs) & (coeffs >= 0))
    if bad.any():
        raise ValueError(f"coefficient must be finite and nonnegative, got {coeffs[bad][0]}")
    bad = ~(np.isfinite(degrees) & (degrees > 0))
    if bad.any():
        raise ValueError(f"degree must be positive, got {degrees[bad][0]}")


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
        _check_curves(np.array([self.coeff]), np.array([self.degree]))

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("curves are defined on nonnegative reals")
        if t == 0.0:
            return 0.0
        return self.coeff * t**self.degree

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0.0


class CurveFamily:
    """Per-good power curves, held as read-only ``coeffs`` and ``degrees`` arrays; ``f[j]`` is a view."""

    __slots__ = ("coeffs", "degrees", "_flat")

    def __init__(self, curves: Iterable[PowerCurve]):
        pairs = np.array([(c.coeff, c.degree) for c in curves], dtype=float).reshape(-1, 2)
        self._set(pairs[:, 0], pairs[:, 1])

    @classmethod
    def _from_arrays(cls, coeffs: np.ndarray, degrees: np.ndarray) -> "CurveFamily":
        family = cls.__new__(cls)
        family._set(coeffs, degrees)
        return family

    def _set(self, coeffs: np.ndarray, degrees: np.ndarray) -> None:
        coeffs, degrees = np.array(coeffs, dtype=float), np.array(degrees, dtype=float)
        if coeffs.size == 0:
            raise ValueError("curve family cannot be empty")
        _check_curves(coeffs, degrees)
        coeffs.setflags(write=False)
        degrees.setflags(write=False)
        self.coeffs, self.degrees = coeffs, degrees
        # The first identically-zero curve, or -1: such a family prices but cannot constrain bids.
        zero = coeffs == 0
        self._flat = int(zero.argmax()) if zero.any() else -1

    @classmethod
    def atp(cls, rho_value: float, m: int) -> "CurveFamily":
        """Unit curves t -> t**(1-rho) on every good."""
        if rho_value >= 1:
            raise ValueError("unit power curves require rho < 1")
        return cls._from_arrays(np.ones(m), np.full(m, 1.0 - rho_value))

    @classmethod
    def linear(cls, m: int) -> "CurveFamily":
        return cls._from_arrays(np.ones(m), np.ones(m))

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, j: int) -> PowerCurve:
        return PowerCurve(float(self.coeffs[j]), float(self.degrees[j]))

    def __iter__(self):
        return map(PowerCurve, self.coeffs.tolist(), self.degrees.tolist())

    def require_constraint_curves(self) -> None:
        if self._flat >= 0:
            raise ValueError(f"constraint curve for good {self._flat} must be strictly increasing")

    def cost(self, quantities: Sequence[float]) -> float:
        """Summed curve cost of a nonnegative per-good vector."""
        v = np.asarray(quantities, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected {self.m} entries")
        if np.any(v < 0):
            raise ValueError("quantities must be nonnegative")
        return float(self.cost_rows(v[None, :])[0])

    def cost_rows(self, amounts: np.ndarray) -> np.ndarray:
        """Row-wise cost of an amounts matrix (zeros cost nothing)."""
        terms = np.zeros(amounts.shape)
        np.power(amounts, self.degrees, out=terms, where=amounts > 0)
        terms *= self.coeffs
        return terms.sum(axis=1)


def _require_goods(f: CurveFamily, m: int) -> None:
    if f.m != m:
        raise ValueError(f"curve family has {f.m} curves, instance has {m} goods")


def bid_cost(f: CurveFamily, bids: Sequence[Bid]) -> float:
    """Budget cost of one bid row; zero and beta bids cost nothing."""
    f.require_constraint_curves()
    if len(bids) != f.m:
        raise ValueError(f"expected {f.m} bids")
    return float(f.cost_rows(np.array([[b.amount for b in bids]]))[0])


def _is_beta(token: str) -> bool:
    return token.strip().lower() == "beta"


def _parse_row(i: int, raw: object, m: int) -> tuple[list[float], list[bool]]:
    """Row ``i`` of a JSON bid array, checked cell by cell: (amounts, beta mask)."""
    if not isinstance(raw, (list, tuple)) or len(raw) != m:
        raise ValueError(f"bids[{i}]: expected a row of {m} cells")
    row, mask = list(raw), [False] * m
    for j, cell in enumerate(raw):
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            if not 0 <= cell <= sys.float_info.max:
                raise ValueError(f"bids[{i}][{j}]: bid must be finite and >= 0, got {cell!r}")
        elif isinstance(cell, str):
            if not _is_beta(cell):
                raise ValueError(f"bids[{i}][{j}]: unknown token {cell!r}")
            row[j], mask[j] = 0.0, True
        else:
            raise ValueError(f"bids[{i}][{j}]: expected a number or \"beta\", got {cell!r}")
    return row, mask


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

    # Unpriced columns hold only zero amounts, so step 1 leaves them at 0.
    col_total = amounts.sum(axis=0)
    priced = col_total > 0
    x = amounts / np.where(priced, col_total, 1.0) * s

    # Step 2: each row's duplication level is its first positively-bid good's
    # step-1 share.  A row with no positive bid is all zeros in x, so argmax's
    # column 0 gives it level 0.
    level = x[np.arange(n), np.argmax(amounts > 0, axis=1)]
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


def _row_utility(
    inst: Instance, amounts: np.ndarray, beta: np.ndarray, i: int
) -> tuple[float, np.ndarray | None]:
    """Agent ``i``'s utility under the allocation rule, exactly as ``atp_allocate`` gives it.

    Unless row ``i`` claims beta on a good nobody pays for, steps 2 and 3
    leave the row as step 1 made it: a penalty zeroes only the rows of beta
    bidders on over-claimed free goods, and trimming scales only free
    columns, where the row holds 0.  The row then takes the same operations
    as in step 1 and nothing more.  Otherwise the full rule runs, and its
    step-3 mask is returned as well; the mask is ``None`` when it cannot
    concern row ``i``.
    """
    u = _step1_utility(inst, amounts[i], beta[i], i, amounts.sum(axis=0))
    if u is not None:
        return u, None
    x, over = _run_allocation_rule(inst, amounts, beta, TOL_FEAS)
    return float(x[i, sorted(inst.desired[i])].min()), over


def _step1_utility(
    inst: Instance, amounts: np.ndarray, beta: np.ndarray, i: int, col_total: np.ndarray
) -> float | None:
    """Agent ``i``'s utility from its row's step-1 shares, or ``None`` if it claims beta on a free good."""
    col = col_total.tolist()
    if any(col[j] == 0 for j in beta.nonzero()[0].tolist()):
        return None
    # The share a / B * s of each desired good, in the same float operations as step 1.
    row, s = amounts.tolist(), inst.supplies
    return min(row[j] / col[j] * s[j] if col[j] > 0 else 0.0 for j in inst.desired[i])


def _incumbent_utility(inst: Instance, bids: BidMatrix, i: int) -> float:
    """Agent ``i``'s utility under the allocation rule at the profile ``bids`` itself.

    Both routes of ``_row_utility`` are cached on the matrix, which never
    changes: its column totals, and every agent's utility under the full rule.
    """
    u = _step1_utility(inst, bids.amounts[i], bids.beta[i], i, bids._column_totals())
    if u is not None:
        return u
    if bids._rule is None or bids._rule[0] is not inst:
        x, _ = _run_allocation_rule(inst, bids.amounts, bids.beta, TOL_FEAS)
        bids._rule = (inst, utilities(inst, x).tolist())
    return bids._rule[1][i]


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
    _require_goods(f, inst.m)
    if bids.n != inst.n or bids.m != inst.m:
        raise ValueError(f"bid matrix shape ({bids.n}, {bids.m}) != ({inst.n}, {inst.m})")
    if check_budgets:
        costs = f.cost_rows(bids.amounts)
        for i in range(inst.n):
            if costs[i] > 1.0 + tol_feas:
                raise InfeasibleBid(i, float(costs[i]))

    x, _ = _run_allocation_rule(inst, bids.amounts, bids.beta, tol_feas)
    return Allocation.checked(inst, x, tol=tol_feas)


def _max_target(
    paid_terms: list[tuple[float, float, float, float]], fixed: float, hi: float, tol_t: float
) -> float:
    """The largest quantity t in [0, ``hi``] that bisection finds affordable.

    On each paid good (B_j, s_j, coeff_j, degree_j) the agent bids
    t*B_j/(s_j-t); the summed curve costs plus ``fixed`` must stay within 1.
    ``hi`` itself is tested first, then midpoints until the bracket is within
    ``tol_t``.
    """
    lo, t_hi, t = 0.0, hi, hi
    while True:
        total = 0.0
        for B_j, s_j, coeff, degree in paid_terms:
            total += coeff * (t * B_j / (s_j - t)) ** degree
        if total + fixed <= 1.0:
            lo = t
        else:
            t_hi = t
        if lo == hi or t_hi - lo <= tol_t:
            return lo
        t = 0.5 * (lo + t_hi)


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
    _require_goods(f, inst.m)
    if not 0 <= i < inst.n:
        raise IndexError(f"agent index {i} out of range")
    m, s = inst.m, inst.supplies
    desired = sorted(inst.desired[i])
    # One working copy: row i zeroed gives the opponents' totals, then holds each candidate row.
    trial_amounts, trial_beta = bids.amounts.copy(), bids.beta.copy()
    trial_amounts[i] = 0.0
    B = trial_amounts.sum(axis=0).tolist()
    paid = [j for j in desired if B[j] > 0]
    free = [j for j in desired if B[j] == 0]
    # Python floats per paid good: the bisection evaluates these ~30 times.
    coeffs, degrees = f.coeffs.tolist(), f.degrees.tolist()
    paid_terms = [(B[j], s[j], coeffs[j], degrees[j]) for j in paid]

    cap = min(s[j] for j in desired)
    hi = cap * (1.0 - 1e-12)
    tol_t = tol_br * max(1.0, cap)

    def build_row(t: float, forced_positive: set[int]) -> tuple[np.ndarray, np.ndarray]:
        amounts = [0.0] * m
        beta = [False] * m
        anchored = t > 0 and bool(paid)
        if anchored:
            for j, (B_j, s_j, _, _) in zip(paid, paid_terms):
                amount = t * B_j / (s_j - t)
                amounts[j] = amount if amount > TOL_BID else 0.0
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
        return np.array(amounts), np.array(beta)

    def evaluate(row: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray | None]:
        trial_amounts[i], trial_beta[i] = row
        return _row_utility(inst, trial_amounts, trial_beta, i)

    best_row = (np.zeros(m), np.zeros(m, dtype=bool))
    best_util = 0.0
    if f.cost_rows(bids.amounts[i : i + 1])[0] <= 1.0 + TOL_FEAS:
        best_row = (bids.amounts[i], bids.beta[i])
        best_util = _incumbent_utility(inst, bids, i)

    forced: set[int] = set()
    for _ in range(len(free) + 1):
        # The minimal positive bids cost the same whatever the target.
        fixed = sum(coeffs[j] * _MIN_POSITIVE ** degrees[j] for j in forced)
        if free and not paid and not forced:
            fixed += coeffs[free[0]] * _MIN_POSITIVE ** degrees[free[0]]
        if fixed > 1.0 + TOL_FEAS:
            break
        t_star = _max_target(paid_terms, fixed, hi, tol_t)
        row = build_row(t_star, forced)
        got, over = evaluate(row)
        if got > best_util:
            best_util = got
            best_row = row
        if got + tol_t >= t_star:
            break
        # A beta claim got penalized or under-delivered: force a positive bid
        # on every free good whose step-2 claims broke the supply constraint.
        # (A row with a beta claim on a free good always gets the rule's mask.)
        row_beta = row[1]
        newly = {j for j in free if j not in forced and row_beta[j] and over[j]}
        if not newly:
            newly = {j for j in free if j not in forced}
            if not newly:
                break
        forced |= newly

    return _bid_row(*best_row), best_util
