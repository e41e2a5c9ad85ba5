"""Problem instances, allocations, and welfare evaluation.

An instance describes agents competing for divisible goods (links): each agent
has a set of goods she needs simultaneously, and her utility for a bundle is
the minimum quantity she receives across that set.  Social welfare over the
resulting utility vector is measured by a constant-elasticity family that
interpolates between the minimum (maxmin), geometric mean, and sum of
utilities.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

#: Absolute slack allowed when checking supply constraints (solver outputs
#: are floating-point).
TOL_FEAS = 1e-9


def _supply(j: int, s: object) -> float:
    """A supply must be a real number; booleans and strings are not."""
    if isinstance(s, bool) or not isinstance(s, numbers.Real):
        raise TypeError(f"supply of good {j} must be a real number, got {s!r}")
    return float(s)


def _good_index(i: int, j: object) -> int:
    """A good index must be an integer, numpy integers included; booleans,
    floats and strings are not."""
    if not isinstance(j, bool):
        try:
            return operator.index(j)
        except TypeError:
            pass
    raise TypeError(f"agent {i} desires good {j!r}, which is not an integer index")


@dataclass(frozen=True)
class Instance:
    """Agents' desired good sets plus per-good supplies.

    Every agent must desire at least one good, and every good must be desired
    by at least one agent; violating either is rejected at construction.
    """

    supplies: tuple[float, ...]
    desired: tuple[frozenset[int], ...]

    def __init__(self, supplies: Sequence[float], desired: Sequence[Iterable[int]]):
        object.__setattr__(self, "supplies", tuple(_supply(j, s) for j, s in enumerate(supplies)))
        object.__setattr__(
            self, "desired", tuple(frozenset(_good_index(i, j) for j in r) for i, r in enumerate(desired))
        )
        self._validate()

    @classmethod
    def _from_checked(cls, supplies: tuple[float, ...], desired: tuple[frozenset[int], ...]) -> "Instance":
        """An instance from fields its caller has already checked as ``__init__`` and ``_validate`` would."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "supplies", supplies)
        object.__setattr__(inst, "desired", desired)
        return inst

    def _validate(self) -> None:
        if len(self.supplies) < 1:
            raise ValueError("need at least one good")
        if len(self.desired) < 1:
            raise ValueError("need at least one agent")
        for j, s in enumerate(self.supplies):
            if not (s > 0) or not math.isfinite(s):
                raise ValueError(f"supply of good {j} must be positive and finite, got {s}")
        m = len(self.supplies)
        covered: set[int] = set()
        for i, r in enumerate(self.desired):
            if not r:
                raise ValueError(f"agent {i} must desire at least one good")
            for j in r:
                if not 0 <= j < m:
                    raise ValueError(f"agent {i} desires good {j}, out of range 0..{m - 1}")
            covered |= r
        if covered != set(range(m)):
            missing = sorted(set(range(m)) - covered)
            raise ValueError(f"goods {missing} are desired by no agent")

    @property
    def n(self) -> int:
        return len(self.desired)

    @property
    def m(self) -> int:
        return len(self.supplies)

    @cached_property
    def weights(self) -> np.ndarray:
        """Binary n-by-m matrix with 1 where agent i desires good j."""
        w = np.zeros((self.n, self.m))
        sizes = [len(r) for r in self.desired]
        w[np.repeat(np.arange(self.n), sizes), list(itertools.chain.from_iterable(self.desired))] = 1.0
        w.setflags(write=False)
        return w

    @cached_property
    def supply_array(self) -> np.ndarray:
        s = np.array(self.supplies, dtype=float)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class Rho:
    """Elasticity parameter of the welfare family.

    ``value`` is ``-inf`` for maxmin welfare, a finite real below 1 (0 meaning
    the geometric-mean objective), or exactly 1 for the sum of utilities.
    Finite values at or above 1 are rejected; the sum objective must be
    requested explicitly through :meth:`one`.
    """

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if math.isnan(v):
            raise ValueError("rho cannot be NaN")
        if v == math.inf:
            raise ValueError("rho = +inf is not a welfare objective")
        if v != -math.inf and v >= 1.0 and v != 1.0:
            raise ValueError(f"finite rho must be < 1, got {v}")

    @classmethod
    def maxmin(cls) -> "Rho":
        return cls(-math.inf)

    @classmethod
    def finite(cls, value: float) -> "Rho":
        value = float(value)
        if not math.isfinite(value) or value >= 1.0:
            raise ValueError(f"finite rho must be a real < 1, got {value}")
        return cls(value)

    @classmethod
    def nash(cls) -> "Rho":
        return cls(0.0)

    @classmethod
    def one(cls) -> "Rho":
        return cls(1.0)

    @classmethod
    def parse(cls, text: str) -> "Rho":
        t = text.strip().lower()
        if t in ("-inf", "maxmin", "-infinity"):
            return cls.maxmin()
        value = float(t)
        if value == 1.0:
            return cls.one()
        return cls.finite(value)

    @property
    def is_maxmin(self) -> bool:
        return self.value == -math.inf

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_finite(self) -> bool:
        return not self.is_maxmin and not self.is_one

    def __str__(self) -> str:
        if self.is_maxmin:
            return "-inf"
        return repr(self.value)


@dataclass(frozen=True)
class Allocation:
    """Nonnegative n-by-m quantity matrix."""

    x: np.ndarray

    def __init__(self, x: np.ndarray):
        arr = np.array(x, dtype=float)
        if arr.ndim != 2:
            raise ValueError("allocation must be a 2-D matrix")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("allocation entries must be finite and nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    @classmethod
    def checked(cls, inst: Instance, x: np.ndarray, tol: float = TOL_FEAS) -> "Allocation":
        """Construct and verify the supply constraint against ``inst``."""
        alloc = cls(x)
        if alloc.x.shape != (inst.n, inst.m):
            raise ValueError(f"allocation shape {alloc.x.shape} != ({inst.n}, {inst.m})")
        totals = alloc.x.sum(axis=0)
        over = totals - inst.supply_array
        if np.any(over > tol):
            j = int(np.argmax(over))
            raise ValueError(
                f"good {j} oversubscribed: allocated {float(totals[j])!r} > supply {inst.supplies[j]!r}"
            )
        return alloc

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


def require_positive(**values: float) -> None:
    """Reject a tolerance or iteration budget that is not a finite real number > 0, naming it.

    A bool, although a number in Python, is rejected too.
    """
    for name, value in values.items():
        # float and int go first: the numbers.Real check is slow, and every best_response call runs this.
        real = not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))
        if not (real and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def utility(inst: Instance, i: int, x_i: Sequence[float]) -> float:
    """Utility of agent ``i`` for bundle ``x_i``: min quantity over her desired goods."""
    if not 0 <= i < inst.n:
        raise IndexError(f"agent index {i} out of range")
    v = np.asarray(x_i, dtype=float)
    if v.shape != (inst.m,):
        raise ValueError(f"bundle must have {inst.m} entries")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("bundle entries must be finite and nonnegative")
    return float(min(v[j] for j in inst.desired[i]))


def utilities(inst: Instance, x: np.ndarray | Allocation) -> np.ndarray:
    """Per-agent utilities for an allocation matrix."""
    arr = x.x if isinstance(x, Allocation) else np.asarray(x, dtype=float)
    masked = np.where(inst.weights > 0, arr, np.inf)
    return masked.min(axis=1)


def ces_welfare(rho: Rho, u: Sequence[float]) -> float:
    """Welfare of a nonnegative utility vector under elasticity ``rho``.

    For finite nonzero rho this is ``(sum u_i^rho)^(1/rho)``; rho = 0 is the
    geometric mean, computed through logarithms; rho = 1 is the sum; maxmin is
    the minimum.  Negative rho with a zero utility returns 0, the limiting
    value, so comparisons remain well defined.
    """
    v = np.asarray(u, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("utility vector must be 1-D and nonempty")
    if np.any(v < 0):
        raise ValueError("utilities must be nonnegative")
    if rho.is_maxmin:
        return float(v.min())
    if rho.is_one:
        return float(v.sum())
    r = rho.value
    if r == 0.0:
        if np.any(v == 0):
            return 0.0
        return float(np.exp(np.log(v).mean()))
    if r < 0 and np.any(v == 0):
        return 0.0
    # The value itself can exceed float range for rho near 0+ (it scales
    # like n**(1/rho)); overflow maps to inf rather than raising.
    with np.errstate(divide="ignore", over="ignore"):
        total = np.float64(np.sum(v**r))
        return float(total ** np.float64(1.0 / r))
