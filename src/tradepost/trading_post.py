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
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import TOL_FEAS, Allocation, Instance, require_positive

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


def _check_cells(amounts: np.ndarray, beta: np.ndarray) -> None:
    """The one validity rule for bids, on an amounts array and a beta mask of one shape.

    Each cell is a positive amount, 0, or beta (amount 0 with the mask set):
    amounts must be finite and nonnegative, and no cell is both beta and
    positive.  Amounts at or below ``TOL_BID``, -0.0 among them, are set to 0
    in place.
    """
    if np.any(amounts < 0) or not np.all(np.isfinite(amounts)):
        raise ValueError("bid amounts must be finite and nonnegative")
    amounts[amounts <= TOL_BID] = 0.0
    if np.any(beta & (amounts > 0)):
        raise ValueError("a bid cannot be both beta and positive")


def _cells(amounts: np.ndarray, beta: np.ndarray) -> tuple[dict[int, float], list[int]]:
    """A row's cells: {good: amount} of its positive bids, and its beta goods, in good order."""
    goods = amounts.nonzero()[0]
    return dict(zip(goods.tolist(), amounts[goods].tolist())), beta.nonzero()[0].tolist()


def _row_arrays(m: int, amounts: dict[int, float], beta: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(amounts, beta)`` arrays of a row given by its cells, as ``_cells`` lists them."""
    row = np.zeros(m)
    for j, amount in amounts.items():
        row[j] = amount
    mask = np.zeros(m, dtype=bool)
    for j in beta:
        mask[j] = True
    return row, mask


class BidMatrix:
    """An n-by-m matrix of bids, stored as amounts plus a beta mask.

    Row i is the pair ``(amounts[i], beta[i])``; ``best_response`` returns
    a row in this form and ``replace_row`` takes one.
    """

    __slots__ = ("amounts", "beta", "_rows", "_cols", "_profile", "_costs", "_handoff")

    def __init__(self, amounts: np.ndarray, beta: np.ndarray):
        amounts = np.array(amounts, dtype=float, order="C")
        beta = np.array(beta, dtype=bool, order="C")
        if amounts.ndim != 2 or beta.shape != amounts.shape:
            raise ValueError("amounts and beta mask must be matching 2-D arrays")
        _check_cells(amounts, beta)
        self._freeze(amounts, beta)

    def _freeze(self, amounts: np.ndarray, beta: np.ndarray) -> None:
        amounts.setflags(write=False)
        beta.setflags(write=False)
        self.amounts = amounts
        self.beta = beta
        # Each row's and each column's cells, built on first use.
        self._rows: list[tuple[dict[int, float], list[int]] | None] = [None] * amounts.shape[0]
        self._cols: list[_Column | None] = [None] * amounts.shape[1]
        # Per-profile cache under one instance: (instance, {agent: utility},
        # {agent: (first positively-bid good or -1, its amount, its step-1 share)}).
        self._profile: tuple[Instance, dict[int, float], dict[int, tuple[int, float, float]]] | None = None
        # Per-family cache: (curve family, each row's cost under it).
        self._costs: tuple[CurveFamily, np.ndarray] | None = None
        # The arrays of the row best_response last returned for this matrix,
        # and its cells, until the next _overwrite_row.
        self._handoff: tuple[np.ndarray, np.ndarray, tuple[dict[int, float], list[int]]] | None = None

    def _row(self, i: int) -> tuple[dict[int, float], list[int]]:
        """Row ``i``'s cells, as ``_cells`` lists them."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = _cells(self.amounts[i], self.beta[i])
        return row

    def _column(self, j: int) -> "_Column":
        """Column ``j``'s cells."""
        col = self._cols[j]
        if col is None:
            col = self._cols[j] = _Column.of(self.amounts[:, j], self.beta[:, j])
        return col

    @property
    def n(self) -> int:
        return self.amounts.shape[0]

    @property
    def m(self) -> int:
        return self.amounts.shape[1]

    def replace_row(self, i: int, amounts: Sequence[float], beta: Sequence[bool]) -> "BidMatrix":
        """A copy with row ``i`` set to ``amounts`` and ``beta``, checked as the constructor checks its cells."""
        if not 0 <= i < self.n:
            raise IndexError(f"row index {i} out of range")
        amounts = np.array(amounts, dtype=float)
        beta = np.array(beta, dtype=bool)
        if amounts.shape != (self.m,) or beta.shape != (self.m,):
            raise ValueError(f"row must have {self.m} entries")
        _check_cells(amounts, beta)
        out = BidMatrix.__new__(BidMatrix)
        out._freeze(self.amounts.copy(), self.beta.copy())
        out._rows = self._rows.copy()
        out._cols = self._cols.copy()
        out._overwrite_row(i, amounts, beta)
        return out

    def _overwrite_row(self, i: int, amounts: np.ndarray, beta: np.ndarray) -> None:
        """Set row ``i`` to a valid ``(amounts, beta)`` row in place, walking only the old and new rows' cells.

        Built columns that either row touches are replaced by patched ones
        (columns are never changed, so a copy may share them), and the
        per-profile and row-cost caches are dropped.  Matrices are otherwise
        immutable: only a caller that owns its matrix may do this, as
        ``tradepost dynamics`` does.  The row ``best_response`` last returned
        for this matrix, passed on as those same, unmodified arrays, brings
        its cells along, so they are not read out of the arrays again.
        """
        old_amounts, old_beta = self._row(i)
        handoff, self._handoff = self._handoff, None
        if handoff is not None and handoff[0] is amounts and handoff[1] is beta:
            new_amounts, new_beta = handoff[2]
        else:
            new_amounts, new_beta = _cells(amounts, beta)
        if new_amounts == old_amounts and new_beta == old_beta:
            return
        for stored, row in ((self.amounts, amounts), (self.beta, beta)):
            stored.setflags(write=True)
            stored[i] = row
            stored.setflags(write=False)
        self._rows[i] = (new_amounts, new_beta)
        cols = self._cols
        for j in old_amounts.keys() | new_amounts.keys():
            col = cols[j]
            amount = new_amounts.get(j, 0.0)
            if col is not None and amount != old_amounts.get(j, 0.0):
                cols[j] = col.with_amount(i, amount)
        if old_beta != new_beta:
            for j in set(old_beta).symmetric_difference(new_beta):
                if cols[j] is not None:
                    cols[j] = cols[j].with_beta(i, j in new_beta)
        self._profile = self._costs = None

    def to_lists(self) -> list[list[float | str]]:
        """JSON form: positive numbers, literal 0, or the string "beta"."""
        out = self.amounts.tolist()
        for i, j in zip(*np.nonzero(self.beta)):
            out[i][j] = "beta"
        return out

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[float | str]]) -> "BidMatrix":
        """Parse the JSON form, checked cell by cell in row-major order: the error names the first bad cell."""
        if not data or not hasattr(data[0], "__len__"):
            raise ValueError("bids must be a nonempty 2-D array")
        m = len(data[0])
        amounts = np.zeros((len(data), m))
        beta = np.zeros((len(data), m), dtype=bool)
        for i, raw in enumerate(data):
            amounts[i], beta[i] = _parse_row(i, raw, m)
        return cls(amounts, beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BidMatrix):
            return NotImplemented
        return bool(np.array_equal(self.amounts, other.amounts) and np.array_equal(self.beta, other.beta))


class _Column(NamedTuple):
    """One bid column: its positive cells' rows and amounts, its beta rows (both in row order), and its total.

    The total is the row-order sum of the amounts, as ``_column_totals``
    defines it; the sum of the column without row i, or with another amount
    in row i, is computed from the same cells in the same order.  A column
    is never changed; ``with_amount`` and ``with_beta`` return new ones.
    """

    rows: list[int]
    vals: list[float]
    brows: list[int]
    total: float

    @classmethod
    def of(cls, amounts: np.ndarray, beta: np.ndarray) -> "_Column":
        rows = amounts.nonzero()[0]
        vals = amounts[rows].tolist()
        return cls(rows.tolist(), vals, beta.nonzero()[0].tolist(), reduce(add, vals, 0.0))

    def split(self, i: int) -> tuple[float, list[float]]:
        """The column without row ``i``: the row-order sum of the cells above it, and the amounts below it."""
        rows, vals = self.rows, self.vals
        k = bisect_left(rows, i)
        after = k + 1 if k < len(rows) and rows[k] == i else k
        return reduce(add, vals[:k], 0.0), vals[after:]

    def total_with(self, i: int, amount: float) -> float:
        """The total with row ``i``'s cell set to ``amount`` (0.0 drops it)."""
        above, below = self.split(i)
        return reduce(add, below, above + amount)

    def claimants(self, i: int) -> list[int]:
        """The beta rows with row ``i`` among them."""
        return self.brows if i in self.brows else sorted(self.brows + [i])

    def with_amount(self, i: int, amount: float) -> "_Column":
        """The column with row ``i``'s cell set to ``amount`` (0.0 drops it)."""
        rows, vals = self.rows, self.vals
        k = bisect_left(rows, i)
        if k < len(rows) and rows[k] == i:
            if amount > 0:
                vals = vals.copy()
                vals[k] = amount
            else:
                rows, vals = rows[:k] + rows[k + 1 :], vals[:k] + vals[k + 1 :]
        else:
            rows, vals = rows[:k] + [i] + rows[k:], vals[:k] + [amount] + vals[k:]
        return _Column(rows, vals, self.brows, reduce(add, vals, 0.0))

    def with_beta(self, i: int, is_beta: bool) -> "_Column":
        """The column with row ``i`` bidding beta or not."""
        brows = sorted(self.brows + [i]) if is_beta else [k for k in self.brows if k != i]
        return _Column(self.rows, self.vals, brows, self.total)


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

    __slots__ = ("coeffs", "degrees", "_lists", "_flat")

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
        # The same values as Python floats, for the per-good arithmetic of best_response.
        self._lists = (coeffs.tolist(), degrees.tolist())
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
        return map(PowerCurve, *self._lists)

    def require_constraint_curves(self) -> None:
        if self._flat >= 0:
            raise ValueError(f"constraint curve for good {self._flat} must be strictly increasing")

    def cost(self, quantities: Sequence[float]) -> float:
        """Summed curve cost of a finite, nonnegative per-good vector, such as one bid row's amounts."""
        v = np.asarray(quantities, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected {self.m} entries")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("quantities must be finite and nonnegative")
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
            if cell.strip().lower() != "beta":
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


def _column_totals(amounts: np.ndarray) -> np.ndarray:
    """Each column's total: its cells added one after another, in row order.

    numpy sums a C-ordered (n, m >= 2) array along axis 0 in exactly this
    order, one row after another; a single column it sums pairwise instead,
    so that case is accumulated explicitly.  Amounts are >= 0 and adding +0.0
    is exact, so a column's total is also the row-order sum of its positive
    cells alone, which is what lets ``best_response`` read only its own goods'
    columns and still match ``atp_allocate`` bit for bit.
    """
    if amounts.shape[1] == 1:
        return np.add.accumulate(amounts, axis=0)[-1]
    return np.ascontiguousarray(amounts).sum(axis=0)


def _run_allocation_rule(
    inst: Instance, amounts: np.ndarray, beta: np.ndarray, tol_feas: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply steps 1-3; returns the final matrix and the step-3 trigger mask."""
    s = inst.supply_array
    n, m = inst.n, inst.m

    # Unpriced columns hold only zero amounts, so step 1 leaves them at 0.
    col_total = _column_totals(amounts)
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
        totals = _column_totals(x)
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
        costs = _row_costs(f, bids)
        over = np.flatnonzero(costs > 1.0 + TOL_FEAS)
        if over.size:
            raise InfeasibleBid(int(over[0]), float(costs[over[0]]))

    x, _ = _run_allocation_rule(inst, bids.amounts, bids.beta, TOL_FEAS)
    return Allocation.checked(inst, x)


def _profile(inst: Instance, bids: BidMatrix) -> tuple[dict[int, float], dict[int, tuple[int, float, float]]]:
    """The matrix's per-profile caches under ``inst``: agents' utilities and step-2 levels."""
    cache = bids._profile
    if cache is None or cache[0] is not inst:
        cache = bids._profile = (inst, {}, {})
    return cache[1], cache[2]


def _row_costs(f: CurveFamily, bids: BidMatrix) -> np.ndarray:
    """Each row's cost under ``f``, from one ``cost_rows`` call cached on the matrix.

    ``cost_rows`` sums each row on its own, so entry i equals the cost of
    row i alone bit for bit.
    """
    cache = bids._costs
    if cache is None or cache[0] is not f:
        costs = f.cost_rows(bids.amounts)
        costs.setflags(write=False)
        cache = bids._costs = (f, costs)
    return cache[1]


def _local_utility(
    inst: Instance,
    bids: BidMatrix,
    i: int,
    amounts: dict[int, float],
    beta: list[int],
    totals: dict[int, float],
) -> tuple[float, set[int]]:
    """Agent ``i``'s utility under the allocation rule with its row set to ``amounts`` and ``beta``.

    ``amounts`` maps the row's positively-bid goods to their amounts, ``beta``
    lists its beta goods, and ``totals`` holds the column totals of the
    agent's desired goods with this row in place; the other rows are those of
    ``bids``.  The result is ``atp_allocate``'s, bit for bit, from the
    columns the row touches: every column total is a row-order sum, as in
    ``_column_totals``.

    Unless the row claims beta on a good nobody pays for, steps 2 and 3
    leave it as step 1 made it: a penalty zeroes only the rows of beta
    bidders on over-claimed free goods, and trimming scales only free
    columns, where the row holds 0.  Otherwise, on each free good the row
    claims, step 2's total is the row-order sum of the claimants' levels,
    each claimant's step-1 share of its first positively-bid good.  One such
    good over the step-3 band zeroes the row, whether the agent desires it or
    not; a good within the band but over its supply trims the row's share.

    Also returns the claimed free goods that are over the band.
    """
    s = inst.supplies
    claimed = [j for j in beta if (totals[j] if j in totals else bids._column(j).total_with(i, 0.0)) == 0]
    shares: dict[int, float] = {}
    over: set[int] = set()
    if claimed:
        _, levels = _profile(inst, bids)
        # The goods whose column total differs from the profile's own.
        changed = set(amounts).union(bids._row(i)[0])

        def level(k: int) -> float:
            if k == i:
                if not amounts:
                    return 0.0
                j0 = min(amounts)
                amount = amounts[j0]
            else:
                if k not in levels:
                    row = bids._row(k)[0]
                    if row:
                        j0 = min(row)
                        levels[k] = (j0, row[j0], row[j0] / bids._column(j0).total * s[j0])
                    else:
                        levels[k] = (-1, 0.0, 0.0)
                j0, amount, own = levels[k]
                if j0 not in changed:
                    return own
            total = totals[j0] if j0 in totals else bids._column(j0).total_with(i, amounts.get(j0, 0.0))
            return amount / total * s[j0]

        mine = level(i)
        for j in claimed:
            claim = 0.0
            for k in bids._column(j).claimants(i):
                claim += mine if k == i else level(k)
            s_j = s[j]
            if claim > s_j + max(TOL_FEAS, _STEP3_BAND * max(1.0, s_j)):
                over.add(j)
            else:
                shares[j] = mine * (s_j / claim) if claim > s_j else mine
        if over:
            return 0.0, over
    u = min(amounts.get(j, 0.0) / t * s[j] if t > 0 else shares.get(j, 0.0) for j, t in totals.items())
    return u, over


def _incumbent_utility(inst: Instance, bids: BidMatrix, i: int) -> float:
    """Agent ``i``'s utility under the allocation rule at the profile ``bids`` itself, cached on the matrix."""
    utils, _ = _profile(inst, bids)
    u = utils.get(i)
    if u is None:
        totals = {j: bids._column(j).total for j in inst.desired[i]}
        u = utils[i] = _local_utility(inst, bids, i, *bids._row(i), totals)[0]
    return u


def _affordable(paid_terms: list[tuple[float, float, float, float]], fixed: float, t: float) -> bool:
    """Whether target ``t`` keeps the paid goods' summed curve costs plus ``fixed`` within 1."""
    total = 0.0
    try:
        for B_j, s_j, coeff, degree in paid_terms:
            total += coeff * (t * B_j / (s_j - t)) ** degree
    except OverflowError:  # a cost beyond float range is beyond the budget
        return False
    return total + fixed <= 1.0


#: Relative half-width of the guard band that ``_max_target`` puts around its
#: estimate of the root.  It is far wider than the estimate's rounding error
#: (about 1e-13 relative at degree 1e-3) and far narrower than the bracket
#: widths the bisection visits before it reaches ``tol_t``.
_GUARD = 1e-9


def _root_estimate(paid_terms: list[tuple[float, float, float, float]], fixed: float, hi: float) -> float:
    """The target t at which the paid goods' summed curve costs plus ``fixed`` reach 1, estimated.

    Good j alone reaches the budget 1 - fixed at the bid y_j =
    ((1 - fixed)/coeff_j)**(1/degree_j), that is at t_j = s_j*y_j/(B_j + y_j):
    with one paid good this is the root, and with more each t_j lies above
    it, as does ``hi``, which is unaffordable and below every s_j.  Log cost
    against log t is convex and increasing (each good's log cost is, with
    slope degree_j*s_j/(s_j - t), and a log-sum-exp of such functions is
    too), so Newton's method on it from the smallest of these bounds stays
    above the root and descends to it; at most 4 steps are taken.  Raises
    ``ArithmeticError`` or ``ValueError`` where the arithmetic leaves float
    range.
    """
    budget = 1.0 - fixed
    if budget <= 0:
        raise ValueError("no budget is left for the paid goods")
    t = hi
    for B_j, s_j, coeff, degree in paid_terms:
        try:
            y = (budget / coeff) ** (1.0 / degree)
        except OverflowError:  # good j alone reaches the budget only at s_j, above hi
            continue
        t = min(t, s_j * y / (B_j + y))
    if len(paid_terms) > 1:
        log_budget = math.log(budget)
        for _ in range(4):
            total = slope = 0.0
            for B_j, s_j, coeff, degree in paid_terms:
                term = coeff * (t * B_j / (s_j - t)) ** degree
                total += term
                slope += term * degree * s_j / (s_j - t)
            step = (math.log(total) - log_budget) * total / slope
            t *= math.exp(-step)
            if step < 1e-5:  # the error left is of order step**2
                break
    return t


def _guard_band(
    paid_terms: list[tuple[float, float, float, float]], fixed: float, hi: float
) -> tuple[float, float]:
    """A bracket (L, U) of the root, L affordable or 0 and U unaffordable or ``hi``.

    ``_root_estimate`` widened by ``_GUARD`` either way gives two points;
    each that falls inside the bracket is evaluated and becomes its lower or
    upper end.  Where the estimate raises, the bracket is (0, ``hi``).
    """
    L, U = 0.0, hi
    try:
        t = _root_estimate(paid_terms, fixed, hi)
    except (ArithmeticError, ValueError):
        return L, U
    for point in (t * (1.0 - _GUARD), t * (1.0 + _GUARD)):
        if L < point < U:
            if _affordable(paid_terms, fixed, point):
                L = point
            else:
                U = point
    return L, U


def _max_target(
    paid_terms: list[tuple[float, float, float, float]], fixed: float, hi: float, tol_t: float
) -> float:
    """The largest quantity t in [0, ``hi``] that bisection finds affordable.

    On each paid good (B_j, s_j, coeff_j, degree_j) the agent bids
    t*B_j/(s_j-t); the summed curve costs plus ``fixed`` must stay within 1.
    ``hi`` itself is tested first, then midpoints until the bracket is within
    ``tol_t``, or until its midpoint rounds to one of its ends: a bracket
    that narrow cannot be split further.

    The bisection is replayed rather than run: ``_guard_band`` brackets the
    root by (L, U), and only midpoints strictly inside it are evaluated.  The
    cost is increasing in t, which the bisection itself assumes, so a
    midpoint at or below the affordable L is affordable and one at or above
    the unaffordable U is not: every midpoint goes the way the plain loop
    sends it, and the same float is returned after about 3 cost evaluations
    instead of 28.  Where the estimate fails the bracket is (0, ``hi``), and
    every midpoint is evaluated, as the plain loop does.
    """
    if _affordable(paid_terms, fixed, hi):
        return hi
    L, U = _guard_band(paid_terms, fixed, hi)
    lo, t_hi = 0.0, hi
    while t_hi - lo > tol_t:
        t = 0.5 * (lo + t_hi)
        if t == lo or t == t_hi:
            break
        if t <= L or (t < U and _affordable(paid_terms, fixed, t)):
            lo = t
        else:
            t_hi = t
    return lo


def best_response(
    inst: Instance,
    f: CurveFamily,
    bids: BidMatrix,
    i: int,
    *,
    tol_br: float = 1e-8,
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Numerically maximize agent ``i``'s utility against fixed opponent bids.

    Returns the row, as its length-m ``(amounts, beta)`` arrays, and its
    utility under the allocation rule.

    To reach quantity t on a good where opponents bid B > 0 in total, the
    agent must bid t*B/(s-t); summed curve costs are strictly increasing in t,
    so the best affordable target is found by bisection.  The bisection is
    replayed from a closed-form estimate of its root and checked at two
    points beside it (see ``_max_target``): monotone costs decide every
    other midpoint, so it returns the float the plain loop would, from
    about 3 cost evaluations instead of 28.  Goods no opponent
    pays for are claimed with beta when the step-3 check tolerates it, and
    otherwise with a minimal positive bid (any positive amount wins the whole
    supply there, so the smallest valid bid is cost-optimal).  ``tol_br``
    must be finite and > 0.

    Only the columns of the agent's desired goods are read, plus, for a beta
    claim on a free good, the columns that claim's step-2 check needs.

    The candidates are ranked from utility 0, and the incumbent row is
    weighed last.  Ranking from the incumbent's utility u0 instead, as a
    within-budget incumbent would be, picks the same row: if some candidate
    beats u0, both rankings end on the first candidate of the highest
    utility, which beats every earlier record; if none does, the incumbent
    stands, and the within-budget check below runs only then.
    """
    require_positive(tol_br=tol_br)
    f.require_constraint_curves()
    _require_goods(f, inst.m)
    if bids.n != inst.n or bids.m != inst.m:
        raise ValueError(f"bid matrix shape ({bids.n}, {bids.m}) != ({inst.n}, {inst.m})")
    if not 0 <= i < inst.n:
        raise IndexError(f"agent index {i} out of range")
    s = inst.supplies
    desired = sorted(inst.desired[i])
    coeffs, degrees = f._lists
    # Each desired good's column without row i: the sum above row i, the
    # amounts below it, and so the opponents' total B_j.  Python floats per
    # paid good: the bisection evaluates these several times.
    splits: dict[int, tuple[float, list[float], float]] = {}
    paid: list[int] = []
    free: list[int] = []
    paid_terms: list[tuple[float, float, float, float]] = []
    for j in desired:
        above, below = bids._column(j).split(i)
        B_j = reduce(add, below, above)
        splits[j] = (above, below, B_j)
        if B_j > 0:
            paid.append(j)
            paid_terms.append((B_j, s[j], coeffs[j], degrees[j]))
        else:
            free.append(j)

    cap = min(s[j] for j in desired)
    hi = cap * (1.0 - 1e-12)
    tol_t = tol_br * max(1.0, cap)

    def build_row(t: float, forced_positive: set[int]) -> tuple[dict[int, float], list[int]]:
        amounts: dict[int, float] = {}
        beta: list[int] = []
        anchored = t > 0 and bool(paid)
        if anchored:
            for j, (B_j, s_j, _, _) in zip(paid, paid_terms):
                amount = t * B_j / (s_j - t)
                if amount > TOL_BID:
                    amounts[j] = amount
        for j in free:
            if j in forced_positive:
                amounts[j] = _MIN_POSITIVE
                anchored = True
            else:
                beta.append(j)
        if free and not anchored:
            # Beta needs a positively-bid good to copy from.
            amounts[free[0]] = _MIN_POSITIVE
            beta.remove(free[0])
        return amounts, beta

    best_row: tuple[dict[int, float], list[int]] = ({}, [])
    best_util = 0.0
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
        totals = {
            j: reduce(add, below, above + row[0][j]) if j in row[0] else B_j
            for j, (above, below, B_j) in splits.items()
        }
        got, over = _local_utility(inst, bids, i, *row, totals)
        if got > best_util:
            best_util = got
            best_row = row
        if got + tol_t >= t_star:
            break
        # A beta claim got penalized or under-delivered: force a positive bid
        # on every free good whose step-2 claims broke the supply constraint.
        newly = {j for j in row[1] if j in over}
        if not newly:
            newly = {j for j in free if j not in forced}
            if not newly:
                break
        forced |= newly

    incumbent = _incumbent_utility(inst, bids, i)
    if best_util <= incumbent and _row_costs(f, bids)[i] <= 1.0 + TOL_FEAS:
        best_row, best_util = bids._row(i), incumbent
        amounts, beta = bids.amounts[i].copy(), bids.beta[i].copy()
    else:
        amounts, beta = _row_arrays(inst.m, *best_row)
    bids._handoff = (amounts, beta, best_row)
    return (amounts, beta), best_util
