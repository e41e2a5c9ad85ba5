"""JSON file formats for instances, bids, allocations, and curve families."""
from __future__ import annotations

import functools
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core import Allocation, Instance
from .trading_post import BidMatrix, CurveFamily, PowerCurve


class ParseError(ValueError):
    """An input file could not be parsed; message carries location detail."""


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_json(path: str | Path, text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load_json(path: str | Path) -> Any:
    return _parse_json(path, _read_text(path))


def _is_number(cell: Any) -> bool:
    """A JSON number; booleans, although ints in Python, are not."""
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


#: Byte tables of ``_number_matrix``: JSON's four whitespace bytes; every
#: byte but the separators ``,[]``, deleted to leave the separators; and
#: maps to 1 of the separators, and of the token bytes (neither separators
#: nor whitespace).
_WHITESPACE = b" \t\n\r"
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b",[]")
_SEPARATOR = bytes(c in b",[]" for c in range(256))
_TOKEN = bytes(c not in b",[]" + _WHITESPACE for c in range(256))
#: A JSON number, but not a negative int: ``json`` reads ``-0`` as the int 0, which has no sign bit.
_NUMBER = re.compile(rb"(?:-(?=[0-9]+[.eE]))?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def _number_matrix(text: str, beta_allowed: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The cells of a mostly zero n-by-m JSON array of numbers, read in one pass: ``(values, beta)``.

    ``beta`` marks the ``"beta"`` cells (value 0), taken only if
    ``beta_allowed``.  The result is given only where ``json.loads`` would
    read the same numbers, and the loader's own checks accept them: ASCII
    text whose separators, with JSON whitespace deleted, are exactly those
    of ``[[c,...,c],...,[c,...,c]]``, no whitespace inside a cell, and cells
    that are exact ``"beta"`` tokens or JSON numbers other than negative
    ints, each finite, ``>= 0`` and ``< sys.float_info.max`` (an int just
    above it converts to it).  At most one cell in 8 may be other than
    ``0.0``; only those are converted, each by ``float`` as ``json``
    converts them.  Anything else gives None, and the caller takes the
    ``json`` route, which names the fault.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    packed = raw.translate(None, _WHITESPACE)
    separators = packed.translate(None, _NOT_SEPARATOR)
    m = separators.find(b"]") - 1
    if m < 1:
        return None
    n, rest = divmod(len(separators) - 1, m + 2)
    if rest or n < 1 or separators != b"[" + b",".join([b"[" + b"," * (m - 1) + b"]"] * n) + b"]":
        return None
    # Row i's separators are number 1 + i * (m + 2) on: its "[", m - 1 commas, "]", and a comma (or the final "]").
    at = np.flatnonzero(np.frombuffer(packed.translate(_SEPARATOR), dtype=bool))[1:].reshape(n, m + 2)
    start = at[:, :m] + 1
    size = at[:, 1 : m + 1] - start
    if size.min() < 1:
        return None
    b = np.frombuffer(packed, dtype=np.uint8)
    zero = (size == 3) & (b[start] == ord("0")) & (b[start + 1] == ord(".")) & (b[start + 2] == ord("0"))
    cells = np.flatnonzero(~zero)
    if 8 * cells.size > n * m:
        return None  # json reads the other cells faster than the checks and float below
    # With every cell nonempty, n * m runs of token bytes in the text mean that
    # no whitespace splits a cell and that nothing stands outside the cells.
    token = np.frombuffer(raw.translate(_TOKEN), dtype=np.uint8)
    if np.count_nonzero(token[1:] > token[:-1]) + token[0] != n * m:
        return None
    words = [packed[i : i + k] for i, k in zip(start.ravel()[cells].tolist(), size.ravel()[cells].tolist())]
    values, beta = np.zeros(n * m), np.zeros(n * m, dtype=bool)
    if beta_allowed:
        marked = np.array([w == b'"beta"' for w in words], dtype=bool)
        beta[cells[marked]] = True
        cells, words = cells[~marked], [w for w in words if w != b'"beta"']
    if words:
        if not all(map(_NUMBER.fullmatch, words)):
            return None
        numbers = np.array(list(map(float, words)))
        if not ((numbers >= 0) & (numbers < sys.float_info.max)).all():
            return None
        values[cells] = numbers
    return values.reshape(n, m), beta.reshape(n, m)


def load_instance(path: str | Path) -> Instance:
    """Read ``{"supplies": [...], "agents": [{"desired": [...]}, ...]}``.

    Each cell is checked once, here; if a good set is empty, out of range, or
    leaves a good undesired, ``Instance`` names the fault.
    """
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
        if not set(map(type, goods)) <= {int}:
            for k, cell in enumerate(goods):
                if type(cell) is not int:
                    raise ParseError(f"{path}: agents[{i}].desired[{k}]: expected a good index, got {cell!r}")
        desired.append(goods)
    flat = list(itertools.chain.from_iterable(desired))
    if all(desired) and 0 <= min(flat) and max(flat) < len(supplies) and len(set(flat)) == len(supplies):
        return Instance._from_checked(tuple(map(float, supplies)), tuple(map(frozenset, desired)))
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
    text = _read_text(path)
    cells = _number_matrix(text, beta_allowed=True)
    return BidMatrix(*cells) if cells is not None else _bids_from_json(path, text)


def _bids_from_json(path: str | Path, text: str) -> BidMatrix:
    """``load_bids`` through ``json.loads``: any valid JSON, and the one source of its messages."""
    data = _parse_json(path, text)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: bids must be a nonempty 2-D array")
    try:
        return BidMatrix.from_lists(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_allocation(path: str | Path) -> Allocation:
    """Read an n-by-m array of finite nonnegative numbers."""
    text = _read_text(path)
    cells = _number_matrix(text, beta_allowed=False)
    return Allocation(cells[0]) if cells is not None else _allocation_from_json(path, text)


def _allocation_from_json(path: str | Path, text: str) -> Allocation:
    """``load_allocation`` through ``json.loads``: any valid JSON, and the one source of its messages."""
    data = _parse_json(path, text)
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
    """Read ``[[coeff, degree], ...]``, one pair per good.

    The pairs are checked as two arrays, in one pass; a fault is reported at
    the first pair that has one, as a pair-by-pair reading would report it.
    """
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: curves must be a nonempty array of [coeff, degree] pairs")
    shaped = (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair)) for pair in data)
    count = next((j for j, ok in enumerate(shaped) if not ok), len(data))

    def name_first_fault(pairs: list) -> None:
        for j, (coeff, degree) in enumerate(pairs):
            try:
                PowerCurve(float(coeff), float(degree))
            except (OverflowError, ValueError) as exc:
                raise ParseError(f"{path}: curves[{j}]: {exc}") from exc

    if count < len(data):
        name_first_fault(data[:count])
        raise ParseError(f"{path}: curves[{count}]: expected a [coeff, degree] pair of numbers, got {data[count]!r}")
    try:
        pairs = np.array(data, dtype=float)
        return CurveFamily._from_arrays(pairs[:, 0], pairs[:, 1])
    except (OverflowError, ValueError):
        name_first_fault(data)
        raise


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

    A 1-D or 2-D float64 array, or a bid matrix's amounts, of at least
    ``_RUN_CELLS`` cells that are finite and at most half nonzero is written
    from the array as runs of one zero-cell string between its marked cells:
    the nonzero ones (-0.0 included), through ``float.__repr__`` as the C
    encoder's, and the beta cells, as ``"beta"``.  Any other array (a smaller
    one, another dtype, more dimensions, a NaN or infinite cell, or mostly
    nonzero cells, which the C encoder writes faster) is laid out from its
    list form.
    """
    out: list[str] = []
    _emit(payload, "\n", out)
    out.append("\n")
    return "".join(out)


#: Fewest cells an array must have to be written as runs: below about 128
#: cells the run layout's fixed numpy cost exceeds the list form's.
_RUN_CELLS = 128

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
        if getattr(obj, "amounts", obj).size < _RUN_CELLS or not _emit_runs(obj, newline, out):
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
