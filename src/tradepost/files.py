"""JSON file formats for instances, bids, allocations, and curve families."""
from __future__ import annotations

import contextlib
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


def _load_json(path: str | Path) -> tuple[Any, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text), text
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _is_number(cell: Any) -> bool:
    """A JSON number; booleans, although ints in Python, are not."""
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def load_instance(path: str | Path) -> Instance:
    """Read ``{"supplies": [...], "agents": [{"desired": [...]}, ...]}``."""
    data, _ = _load_json(path)
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
    data, _ = _load_json(path)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: bids must be a nonempty 2-D array")
    try:
        return BidMatrix.from_lists(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_allocation(path: str | Path) -> Allocation:
    """Read an n-by-m array of finite nonnegative numbers."""
    data, text = _load_json(path)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: allocation must be a nonempty 2-D array")
    m, largest = len(data[0]), sys.float_info.max
    # With no '"', true or false the text holds only numbers, nulls and arrays, so one conversion
    # and Allocation's own check screen it ("<": an int just above the bound converts to it).
    if '"' not in text and "true" not in text and "false" not in text:
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            x = np.array(data, dtype=float)
            if (x < largest).all():
                return Allocation(x)

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
    data, _ = _load_json(path)
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
    ``to_lists()``.  Its pieces are appended to one list, joined once; each
    list of plain scalars, such as a row of a matrix, is one call of the C
    encoder (which takes no indent) with the line break and indent in its
    item separator.

    A 1-D or 2-D float64 array, or a bid matrix's amounts, whose cells are
    finite and at most half nonzero is written from the array as runs of one
    zero-cell string between its marked cells: the nonzero ones (-0.0
    included), through ``float.__repr__`` as the C encoder's, and the beta
    cells, as ``"beta"``.  Any other array (another dtype, an empty
    dimension, more dimensions, a NaN or infinite cell, or mostly nonzero
    cells, which the C encoder writes faster) is laid out from its list form.
    """
    out: list[str] = []
    _emit(payload, "\n", out)
    out.append("\n")
    return "".join(out)


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


def _emit(obj: Any, newline: str, out: list[str]) -> None:
    """Append ``obj`` laid out as by ``json.dumps(indent=2, sort_keys=True)``,
    at the depth whose line break plus indent is ``newline``."""
    inner = newline + "  "
    if isinstance(obj, (np.ndarray, BidMatrix)):
        if not _emit_runs(obj, newline, out):
            _emit(_plain(obj), newline, out)
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _PLAIN:
            out += ("[" + inner, _row_encoder(inner)(obj)[1:-1])
        else:
            for k, value in enumerate(obj):
                out.append("," + inner if k else "[" + inner)
                _emit(value, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        for k, key in enumerate(sorted(obj)):
            out.append(f"{',' if k else '{'}{inner}{json.dumps(key)}: ")
            _emit(obj[key], inner, out)
        out.append(newline + "}")
    elif isinstance(obj, dict) and obj:
        # json converts and sorts non-string keys its own way; JSON text
        # holds no raw newline, so re-indenting its lines is exact.
        out.append(json.dumps(obj, indent=2, sort_keys=True, default=_plain).replace("\n", newline))
    else:
        out.append(json.dumps(obj))


def _emit_runs(obj: np.ndarray | BidMatrix, newline: str, out: list[str]) -> bool:
    """Append a mostly zero array or bid matrix as runs of zero cells (see ``dumps``); False if it is not one."""
    values, beta = (obj.amounts, obj.beta.ravel()) if isinstance(obj, BidMatrix) else (obj, np.zeros(obj.size, bool))
    # Subclasses such as masked arrays have list forms of their own.
    if type(values) is not np.ndarray or values.dtype != np.float64 or values.ndim not in (1, 2) or not values.size:
        return False
    flat = values.ravel()
    nonzero = (flat != 0) | np.signbit(flat)
    cells = flat[nonzero]
    if 2 * cells.size > flat.size or not np.isfinite(cells).all():
        return False
    # The events are the marked cells and the row starts; a run of zero cells follows each.
    inner = newline + "  "
    m, item = (flat.size, inner) if values.ndim == 1 else (values.shape[1], inner + "  ")
    head, tail = ("[" + inner, newline + "]") if values.ndim == 1 else (f"[{inner}[{item}", f"{inner}]{newline}]")
    event = nonzero | beta
    event[::m] = True
    at = np.flatnonzero(event)
    pieces = np.full((at.size, 3), ["," + item, "0.0", ""], dtype=object)
    pieces[at % m == 0, 0] = f"{inner}],{inner}[{item}"
    pieces[0, 0] = head
    pieces[beta[at], 1] = '"beta"'
    pieces[nonzero[at], 1] = list(map(float.__repr__, cells.tolist()))
    gaps, run = np.unique(np.diff(at, append=flat.size) - 1, return_inverse=True)
    pieces[:, 2] = np.array([("," + item + "0.0") * g for g in gaps.tolist()], dtype=object)[run]
    out += pieces.ravel().tolist()
    out.append(tail)
    return True
