"""JSON file formats for instances, bids, allocations, and curve families."""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core import Allocation, Instance
from .trading_post import BidMatrix, CurveFamily, PowerCurve


class ParseError(ValueError):
    """An input file could not be parsed; message carries location detail."""


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _is_number(cell: Any) -> bool:
    """A JSON number; booleans, although ints in Python, are not."""
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def load_instance(path: str | Path) -> Instance:
    """Read ``{"supplies": [...], "agents": [{"desired": [...]}, ...]}``."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    supplies = data.get("supplies")
    agents = data.get("agents")
    if not isinstance(supplies, list) or not supplies:
        raise ParseError(f"{path}: field 'supplies' must be a nonempty array")
    if not isinstance(agents, list) or not agents:
        raise ParseError(f"{path}: field 'agents' must be a nonempty array")
    for j, cell in enumerate(supplies):
        if not _is_number(cell) or not 0 < cell <= sys.float_info.max:
            raise ParseError(f"{path}: supplies[{j}]: expected a finite number > 0, got {cell!r}")
    desired = []
    for i, agent in enumerate(agents):
        if not isinstance(agent, dict) or "desired" not in agent:
            raise ParseError(f"{path}: agents[{i}] must be an object with field 'desired'")
        goods = agent["desired"]
        if not isinstance(goods, list):
            raise ParseError(f"{path}: agents[{i}].desired must be an array of good indices")
        for k, cell in enumerate(goods):
            if not isinstance(cell, int) or isinstance(cell, bool):
                raise ParseError(f"{path}: agents[{i}].desired[{k}]: expected a good index, got {cell!r}")
        desired.append(goods)
    try:
        return Instance(supplies, desired)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_instance(inst: Instance, path: str | Path) -> None:
    payload = {
        "supplies": list(inst.supplies),
        "agents": [{"desired": sorted(r)} for r in inst.desired],
    }
    Path(path).write_text(dumps(payload), encoding="utf-8")


def load_bids(path: str | Path) -> BidMatrix:
    """Read an n-by-m array whose cells are numbers or the string "beta"."""
    data = _load_json(path)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: bids must be a nonempty 2-D array")
    try:
        return BidMatrix.from_lists(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_allocation(path: str | Path) -> Allocation:
    """Read an n-by-m array of finite nonnegative numbers."""
    data = _load_json(path)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: allocation must be a nonempty 2-D array")
    m, largest = len(data[0]), sys.float_info.max

    def bad_cell(i: int, j: int) -> ParseError:
        return ParseError(f"{path}: allocation[{i}][{j}]: expected a finite number >= 0, got {data[i][j]!r}")

    for i, row in enumerate(data):
        if len(row) != m:
            raise ParseError(f"{path}: allocation[{i}]: expected a row of {m} cells")
        # Rows of JSON floats are range-checked below in one array pass; a
        # row holding anything else is checked here, cell by cell.
        if set(map(type, row)) != {float}:
            for j, cell in enumerate(row):
                if not _is_number(cell) or not 0 <= cell <= largest:
                    raise bad_cell(i, j)
    x = np.array(data, dtype=float)
    ok = (x >= 0) & (x <= largest)
    if not ok.all():
        raise bad_cell(*np.argwhere(~ok)[0].tolist())
    return Allocation(x)


def load_curves(path: str | Path) -> CurveFamily:
    """Read ``[[coeff, degree], ...]``, one pair per good."""
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: curves must be a nonempty array of [coeff, degree] pairs")
    curves = []
    for j, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise ParseError(f"{path}: curves[{j}]: expected a [coeff, degree] pair of numbers, got {pair!r}")
        try:
            curves.append(PowerCurve(float(pair[0]), float(pair[1])))
        except (OverflowError, ValueError) as exc:
            raise ParseError(f"{path}: curves[{j}]: {exc}") from exc
    return CurveFamily(curves)


def parse_curve_spec(spec: str, m: int) -> CurveFamily:
    """Parse ``atp_rho:<rho>``, ``linear``, or ``file:<path>``."""
    spec = spec.strip()
    if spec == "linear":
        return CurveFamily.linear(m)
    if spec.startswith("atp_rho:"):
        try:
            rho_value = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"curve spec {spec!r}: bad rho value") from exc
        if rho_value >= 1:
            raise ParseError(f"curve spec {spec!r}: rho must be < 1")
        return CurveFamily.atp(rho_value, m)
    if spec.startswith("file:"):
        family = load_curves(spec.split(":", 1)[1])
        if family.m != m:
            raise ParseError(f"curve file has {family.m} goods, instance has {m}")
        return family
    raise ParseError(f"unknown curve spec {spec!r} (expected atp_rho:<v>, linear, or file:<path>)")


def dumps(payload: Any) -> str:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline.

    The text is exactly ``json.dumps(plain, indent=2, sort_keys=True)`` plus
    a newline, which is the report format; ``plain`` is ``payload`` with each
    numpy array replaced by its ``tolist()`` and each ``BidMatrix`` by its
    ``to_lists()``.  That call runs ``json``'s pure-Python encoder, because
    the C encoder takes no indent; here each list of plain scalars, such as a
    row of a matrix, goes through the C encoder in one call instead, with the
    line break and indent in its item separator.

    A 1-D or 2-D float64 array, or a bid matrix's amounts, whose cells are
    finite and at most half nonzero is written straight from the array: every
    zero cell is the one string ``0.0``, only the nonzero cells (-0.0
    included) go through ``float.__repr__``, as the C encoder's do, and beta
    cells are ``"beta"``.  Any other array (another dtype, an empty
    dimension, more dimensions, a NaN or infinite cell, or mostly nonzero
    cells, which the C encoder writes faster) is laid out from its list form.
    """
    return _layout(payload, "\n") + "\n"


#: Cell types the C encoder writes exactly as the indenting encoder does:
#: both use ``float.__repr__`` (and NaN/Infinity) for floats.
_PLAIN = frozenset((float, int, str, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _row_encoder(newline: str) -> Callable[[Any], str]:
    """One encoder per depth; building one per row would slow small reports."""
    return json.JSONEncoder(separators=("," + newline, ": ")).encode


def _plain(obj: Any) -> Any:
    """``json``'s ``default`` hook: an array or bid matrix as its list form."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, BidMatrix):
        return obj.to_lists()
    return json.JSONEncoder().default(obj)  # raises json's own TypeError


def _layout_array(obj: np.ndarray | BidMatrix, newline: str) -> str:
    """An array or bid matrix laid out as its list form is (see ``dumps``)."""
    values, beta = (obj.amounts, obj.beta) if isinstance(obj, BidMatrix) else (obj, None)
    # Subclasses such as masked arrays have list forms of their own.
    exact = type(values) is np.ndarray and values.dtype == np.float64
    if not exact or values.ndim not in (1, 2) or not values.size:
        return _layout(_plain(obj), newline)
    flat = values.ravel()
    nonzero = (flat != 0) | np.signbit(flat)
    cells = flat[nonzero]
    if 2 * cells.size > flat.size or not np.isfinite(cells).all():
        return _layout(_plain(obj), newline)
    text = ["0.0"] * flat.size
    for k, number in zip(np.flatnonzero(nonzero).tolist(), map(float.__repr__, cells.tolist())):
        text[k] = number
    if beta is not None:
        for k in np.flatnonzero(beta).tolist():
            text[k] = '"beta"'
    inner = newline + "  "
    if values.ndim == 1:
        body = ("," + inner).join(text)
        return f"[{inner}{body}{newline}]"
    m, row_inner = values.shape[1], inner + "  "
    rows = [("," + row_inner).join(text[k : k + m]) for k in range(0, flat.size, m)]
    body = f"{inner}],{inner}[{row_inner}".join(rows)
    return f"[{inner}[{row_inner}{body}{inner}]{newline}]"


def _layout(obj: Any, newline: str) -> str:
    """``obj`` laid out as by ``json.dumps(indent=2, sort_keys=True)``, at the
    depth whose line break plus indent is ``newline``."""
    inner = newline + "  "
    if isinstance(obj, (np.ndarray, BidMatrix)):
        return _layout_array(obj, newline)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _PLAIN:
            body = _row_encoder(inner)(obj)[1:-1]
        else:
            body = ("," + inner).join([_layout(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(k, str) for k in obj):
            # json converts and sorts non-string keys its own way; JSON text
            # holds no raw newline, so re-indenting its lines is exact.
            return json.dumps(obj, indent=2, sort_keys=True, default=_plain).replace("\n", newline)
        body = ("," + inner).join([f"{json.dumps(k)}: {_layout(obj[k], inner)}" for k in sorted(obj)])
        return f"{{{inner}{body}{newline}}}"
    return json.dumps(obj)
