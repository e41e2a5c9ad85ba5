"""The report writer and the loaders of ``tradepost.files``.

``files.dumps`` must give exactly ``json.dumps(indent=2, sort_keys=True)``
text plus a newline: that is the report format the golden reports pin.  The
bid loader must name the first bad cell in row-major order, whichever of its
paths a row takes.  The bid and allocation loaders must give the bits, or
the error text, of their ``json`` routes, whether or not the one-pass reader
takes the file; the instance and curve loaders, those of a cell-by-cell
reading.
"""
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradepost import files
from tradepost.core import Allocation, Instance
from tradepost.trading_post import BidMatrix, CurveFamily, PowerCurve


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_EDGE_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**53 + 1, -(2**64) - 3, 10**30]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(_EDGE_NUMBERS),
    st.floats().map(np.float64),
    st.text(max_size=6),
    st.sampled_from(["é", "☃", "\x00\x1f\n\t\"\\", "퟿\U0001f600"]),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(scalars, max_size=8),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=40,
)


class TestDumps:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(payloads)
    def test_matches_indented_json(self, payload):
        assert files.dumps(payload) == _reference(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            [[], {}, [[]], [{}], {"a": {}}],
            (1.0, (), ("x", None)),
            {"row": [np.float64(0.1), np.float64(-0.0), 1.5], "x": np.float64(math.nan)},
            {"mixed": [1.0, [2.0, 3.0], {"k": "v"}, None]},
        ],
    )
    def test_fixed_shapes(self, payload):
        assert files.dumps(payload) == _reference(payload)

    def test_non_string_keys(self):
        payload = {
            "outer": {2: [1.0, 2.0], 1: {"k": [], "j": {10: None}}},
            "list": [{True: 1, False: None}],
            "floats": {0.5: "a", -1.0: ["b"]},
        }
        assert files.dumps(payload) == _reference(payload)

    @pytest.mark.parametrize(
        "payload",
        [np.int64(3), {1, 2}, [1.0, np.int64(3)], {"a": {"b": {1, 2}}}, {1: 1, "a": 2}],
    )
    def test_unserializable_raises_as_json_does(self, payload):
        with pytest.raises(TypeError) as expected:
            _reference(payload)
        with pytest.raises(TypeError) as got:
            files.dumps(payload)
        assert str(got.value) == str(expected.value)


def _plain(payload):
    """``payload`` with arrays and bid matrices in the list forms json takes."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, BidMatrix):
        return payload.to_lists()
    if isinstance(payload, dict):
        return {k: _plain(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_plain(v) for v in payload]
    return payload


_ARRAY_EDGES = [-0.0, 5e-324, 1e-120, sys.float_info.max, -sys.float_info.max, 0.1, 1.0, 2.0 / 3.0]
_NON_FINITE = [math.nan, math.inf, -math.inf]

#: Row-vector, column-vector, empty and general shapes, 1-D and 2-D.
shapes = st.one_of(
    st.integers(0, 8).map(lambda k: (k,)),
    st.just((1, 1)),
    st.integers(1, 8).map(lambda m: (1, m)),
    st.integers(1, 8).map(lambda n: (n, 1)),
    st.integers(0, 4).map(lambda k: (0, k)),
    st.integers(0, 4).map(lambda k: (k, 0)),
    st.tuples(st.integers(1, 6), st.integers(1, 8)),
)


@st.composite
def float_arrays(draw, finite=True):
    """Float64 arrays that are mostly zeros, sometimes mostly not."""
    shape = draw(shapes)
    nonzero = st.one_of(st.sampled_from(_ARRAY_EDGES), st.floats(allow_nan=False, allow_infinity=False))
    if not finite:
        nonzero = st.one_of(nonzero, st.sampled_from(_NON_FINITE))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0]))
    size = math.prod(shape)
    cells = [draw(nonzero) if draw(st.floats(0, 1)) >= zero_share else 0.0 for _ in range(size)]
    return np.array(cells, dtype=float).reshape(shape)


@st.composite
def bid_matrices(draw):
    amounts = np.abs(draw(float_arrays().filter(lambda a: a.ndim == 2)))
    amounts = BidMatrix(amounts, np.zeros(amounts.shape, dtype=bool)).amounts
    mask = np.array(draw(st.lists(st.booleans(), min_size=amounts.size, max_size=amounts.size)), dtype=bool)
    return BidMatrix(amounts, mask.reshape(amounts.shape) & (amounts == 0))


def _arrays_of(cells, dtype):
    def fill(shape):
        size = math.prod(shape)
        lists = st.lists(cells, min_size=size, max_size=size)
        return lists.map(lambda v: np.array(v, dtype=dtype).reshape(shape))

    return shapes.flatmap(fill)


def _float32(a):
    with np.errstate(over="ignore"):
        return a.astype(np.float32)


other_arrays = st.one_of(
    _arrays_of(st.integers(-(2**63), 2**63 - 1), np.int64),
    _arrays_of(st.booleans(), bool),
    float_arrays(finite=False).map(_float32),
)

arrays = st.one_of(float_arrays(), float_arrays(finite=False), bid_matrices(), other_arrays)


def _nest(value, depth):
    if depth == 0:
        return value
    if depth == 1:
        return {"allocation": value, "objective": 0.5}
    return {"outer": {"bids": value, "n": 3}, "rows": [value, "beta", None]}


class TestDumpsArrays:
    """Arrays and bid matrices are written as their list forms would be."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays, arrays, st.sampled_from([0, 1, 2]))
    def test_matches_list_forms(self, value, other, depth):
        payload = _nest(value, depth)
        if depth:
            payload["other"] = other
        assert files.dumps(payload) == _reference(_plain(payload))

    @pytest.mark.parametrize(
        "value",
        [
            np.array([0.0, math.nan, 0.0, 0.0]),
            np.array([[0.0, 0.0, math.inf], [0.0, 0.0, 0.0]]),
            np.array([[-math.inf, 0.0, 0.0, 0.0]]),
            np.array([[math.nan]]),
        ],
    )
    def test_non_finite_cells_are_written_as_json_does(self, value):
        text = files.dumps({"x": value})
        assert text == _reference({"x": value.tolist()})
        assert "NaN" in text or "Infinity" in text

    def test_mostly_zero_rows_and_beta_cells(self):
        amounts = np.zeros((3, 50))
        amounts[0, 7], amounts[2, 49] = 0.25, sys.float_info.max
        beta = np.zeros((3, 50), dtype=bool)
        beta[1, 0] = beta[2, 3] = True
        bids = BidMatrix(amounts, beta)
        x = np.zeros((2, 60))
        x[1, 0], x[0, 59] = -0.0, 5e-324
        payload = {"bids": bids, "allocation": x, "curves": np.stack([np.ones(3), np.full(3, 0.5)], axis=1)}
        assert files.dumps(payload) == _reference(_plain(payload))

    def test_arrays_under_non_string_keys(self):
        payload = {"a": {1: np.array([[0.0, 1.5]]), 0: BidMatrix([[0.0]], [[True]])}}
        assert files.dumps(payload) == _reference(_plain(payload))

    def test_array_subclass_uses_its_own_list_form(self):
        masked = np.ma.masked_array([0.0, 2.0, 0.0, 0.0], mask=[False, True, False, False])
        assert files.dumps({"m": masked}) == _reference({"m": masked.tolist()})


def _cells(shape, marks):
    """A float64 array of ``shape`` holding ``marks``, a {index: value} map, in zeros."""
    value = np.zeros(shape)
    for index, cell in marks.items():
        value[index] = cell
    return value


def _bids(shape, amounts, betas):
    beta = np.zeros(shape, dtype=bool)
    for index in betas:
        beta[index] = True
    return BidMatrix(_cells(shape, amounts), beta)


class TestDumpsRuns:
    """Edges of the run layout: where runs of zero cells start and end, and where it hands over to the list form."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize(
        "value",
        [
            np.zeros((3, 4)),
            np.zeros(5),
            _cells((5, 6), {(0, 2): 1.5, (4, 5): 2.0}),
            _cells((4, 5), {(0, 0): 0.25, (0, 4): 3.0, (2, 0): 1.0, (2, 4): 7.0, (3, 4): 9.5}),
            _cells((3, 4), {(0, 0): 1.0}),
            _cells((3, 4), {(2, 3): 1.0}),
            _cells((5, 1), {(2, 0): 4.0}),
            _cells((5, 1), {(0, 0): 4.0, (4, 0): 0.5}),
            _cells((1, 7), {(0, 0): 0.1, (0, 6): 0.2}),
            _cells((1, 7), {(0, 3): 0.1}),
            _cells((7,), {0: 0.1, 6: 0.2}),
            _cells((7,), {3: 0.1}),
            np.zeros(1),
            np.zeros((1, 1)),
            _cells((2,), {1: 2.5}),
            _cells((2, 6), {(0, 1): -0.0, (1, 5): 5e-324, (1, 0): -5e-324}),
            _cells((8,), {0: -0.0, 7: 5e-324}),
            _bids((3, 5), {(1, 0): 1.0}, [(0, 0), (1, 4), (2, 0), (2, 4)]),
            _bids((2, 4), {}, [(0, 0), (1, 3)]),
            _bids((4, 1), {(3, 0): 2.0}, [(0, 0), (2, 0)]),
            _bids((1, 6), {(0, 2): 1.0}, [(0, 0), (0, 5)]),
        ],
        ids=lambda v: str(getattr(v, "shape", None) or v.amounts.shape),
    )
    def test_runs_match_list_form(self, value, depth):
        assert files._emit_runs(value, "\n", [])
        payload = _nest(value, depth)
        assert files.dumps(payload) == _reference(_plain(payload))

    @pytest.mark.parametrize(
        "value, runs",
        [
            (_cells((2, 4), {(0, 0): 1.0, (0, 3): 2.0, (1, 1): 3.0, (1, 2): 4.0}), True),
            (_cells((2, 4), {(0, 0): 1.0, (0, 3): 2.0, (1, 1): 3.0, (1, 2): 4.0, (1, 3): 5.0}), False),
            (_cells((4,), {1: -0.0, 2: 1.0}), True),
            (_cells((3,), {1: -0.0, 2: 1.0}), False),
            (_bids((2, 2), {(0, 1): 1.0}, [(0, 0), (1, 0)]), True),
            (_bids((2, 2), {(0, 1): 1.0, (1, 1): 2.0, (0, 0): 3.0}, [(1, 0)]), False),
        ],
    )
    def test_half_nonzero_is_the_last_run_layout(self, value, runs):
        # Beta cells count as zero cells here: only nonzero amounts make an array dense.
        assert files._emit_runs(value, "\n", []) is runs
        for depth in (0, 1, 2):
            payload = _nest(value, depth)
            assert files.dumps(payload) == _reference(_plain(payload))

    # ``dumps`` writes arrays of fewer than ``_RUN_CELLS`` cells from their list
    # form, so the run layout of small arrays is checked here directly.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays, st.sampled_from(["\n", "\n  ", "\n      "]))
    def test_run_layout_is_the_list_form(self, value, newline):
        out = []
        if files._emit_runs(value, newline, out):
            assert "".join(out) == json.dumps(_plain(value), indent=2).replace("\n", newline)

    @pytest.mark.parametrize(
        "value, runs",
        [
            (np.zeros(127), False),
            (np.zeros(128), True),
            (np.zeros((1, 127)), False),
            (_cells((8, 16), {(3, 5): 2.5}), True),
            (_bids((7, 18), {(0, 0): 1.0}, [(6, 17)]), False),
            (_bids((8, 16), {(0, 0): 1.0}, [(7, 15)]), True),
        ],
    )
    def test_small_arrays_take_the_list_form(self, monkeypatch, value, runs):
        seen = []

        def emit_runs(obj, newline, out):
            seen.append(obj)
            return real(obj, newline, out)

        real = files._emit_runs
        monkeypatch.setattr(files, "_emit_runs", emit_runs)
        payload = _nest(value, 2)
        assert files.dumps(payload) == _reference(_plain(payload))
        assert bool(seen) is runs


class TestLoadAllocation:
    _HUGE = "1" + "0" * 400
    _ABOVE_LARGEST = str(int(sys.float_info.max) + 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[1.0, true], [0.5, 2.0]]", "allocation[0][1]: expected a finite number >= 0, got True"),
            ("[[1.0, false]]", "allocation[0][1]: expected a finite number >= 0, got False"),
            ("[[0.5, 1.0], [null, 2.0]]", "allocation[1][0]: expected a finite number >= 0, got None"),
            ('[[0.5, "x"]]', "allocation[0][1]: expected a finite number >= 0, got 'x'"),
            ('[[0.5, "1.5"]]', "allocation[0][1]: expected a finite number >= 0, got '1.5'"),
            ("[[1.0, [2.0]]]", "allocation[0][1]: expected a finite number >= 0, got [2.0]"),
            ("[[[1.0]]]", "allocation[0][0]: expected a finite number >= 0, got [1.0]"),
            ("[[{}]]", "allocation[0][0]: expected a finite number >= 0, got {}"),
            ("[[0.5, 1.0], [1e400, 2.0]]", "allocation[1][0]: expected a finite number >= 0, got inf"),
            ("[[0.5, NaN]]", "allocation[0][1]: expected a finite number >= 0, got nan"),
            ("[[1.0, -5e-324]]", "allocation[0][1]: expected a finite number >= 0, got -5e-324"),
            ("[[1.0, 2.0], [3.0]]", "allocation[1]: expected a row of 2 cells"),
            (f"[[1.0, 2.0], [3.0, {_HUGE}]]", f"allocation[1][1]: expected a finite number >= 0, got {_HUGE}"),
            (f"[[1.0, {_ABOVE_LARGEST}]]", f"allocation[0][1]: expected a finite number >= 0, got {_ABOVE_LARGEST}"),
            # A row holding a non-float cell is checked before the rows of floats.
            ("[[NaN, 1.0], [1, -1]]", "allocation[1][1]: expected a finite number >= 0, got -1"),
            ("[[-1.0, 0.5], [null, 1.0]]", "allocation[1][0]: expected a finite number >= 0, got None"),
        ],
    )
    def test_bad_cell_messages(self, tmp_path, text, message):
        path = tmp_path / "allocation.json"
        path.write_text(text)
        with pytest.raises(files.ParseError) as got:
            files.load_allocation(path)
        assert str(got.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, cells",
        [
            ("[[1.0, 2], [3, -0.0]]", [[1.0, 2.0], [3.0, -0.0]]),
            (f"[[{sys.float_info.max!r}, 1]]", [[sys.float_info.max, 1.0]]),
            ("[[0.0]]", [[0.0]]),
        ],
    )
    def test_numbers_load_as_floats(self, tmp_path, text, cells):
        path = tmp_path / "allocation.json"
        path.write_text(text)
        x = files.load_allocation(path).x
        assert x.dtype == np.float64
        assert x.tolist() == cells
        assert np.array_equal(np.signbit(x), np.signbit(cells))


class TestLoadBids:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[0.5, NaN], [1.0, 2.0]]", "bids[0][1]: bid must be finite and >= 0, got nan"),
            ("[[0.5, 1.0], [Infinity, 2.0]]", "bids[1][0]: bid must be finite and >= 0, got inf"),
            ("[[0.5, 1.0], [2.0, -Infinity]]", "bids[1][1]: bid must be finite and >= 0, got -inf"),
            ("[[0.5, 1e400]]", "bids[0][1]: bid must be finite and >= 0, got inf"),
            ('[[0.5, "beta", "gamma"]]', "bids[0][2]: unknown token 'gamma'"),
            ('[[0.5, " Beta "], [1.0, "betas"]]', "bids[1][1]: unknown token 'betas'"),
            ('[[0.5, -1.0], [0.5, "gamma"]]', "bids[0][1]: bid must be finite and >= 0, got -1.0"),
            ("[[NaN, 1.0], [0.5]]", "bids[0][0]: bid must be finite and >= 0, got nan"),
            ("[[1, 2.0], [1.0, NaN], [true, 1.0]]", "bids[1][1]: bid must be finite and >= 0, got nan"),
            ("[[1.0, 2.0], [3, -1]]", "bids[1][1]: bid must be finite and >= 0, got -1"),
        ],
    )
    def test_first_bad_cell_is_named(self, tmp_path, text, message):
        path = tmp_path / "bids.json"
        path.write_text(text)
        with pytest.raises(files.ParseError) as got:
            files.load_bids(path)
        assert str(got.value) == f"{path}: {message}"

    def test_rows_of_every_kind(self, tmp_path):
        path = tmp_path / "bids.json"
        path.write_text('[[0.5, " Beta "], [1, 0.0], [2.5, "beta"], [0.0, 4.0]]')
        got = files.load_bids(path)
        assert got == BidMatrix(
            [[0.5, 0.0], [1.0, 0.0], [2.5, 0.0], [0.0, 4.0]],
            [[False, True], [False, False], [False, True], [False, False]],
        )


_LARGEST = sys.float_info.max

#: Cells of valid matrices as JSON text: ints, floats in repr and in other
#: exponent forms, -0.0, the smallest subnormal, float max and its int.
_GOOD_TOKENS = st.one_of(
    st.just("0.0"),
    st.floats(min_value=0, allow_infinity=False).map(repr),
    st.integers(0, 10**30).map(str),
    st.sampled_from(
        ["0", "-0.0", "-0e0", "0e0", "0.0e0", "0.0625", "1E5", "2.5e-3", "1e+2", "5e-324", "1e-130"]
        + [repr(_LARGEST), str(int(_LARGEST))]
    ),
)

#: Cells that no loader takes as they stand, or whose value json reads its own way ("-0" is the int 0).
_BAD_TOKENS = [
    "NaN", "Infinity", "-Infinity", "true", "false", "null", '" Beta "', '"beta "', '"Beta"', '"gamma"',
    '"be ta"', '"bétà"', "[1.0]", "[]", "{}", "-1", "-2.5", "-5e-324", "1" + "0" * 400, str(int(_LARGEST) + 1),
    "1e400", "-0", "0. 0", "1 2", "01", "1.", ".5", "+1", "1e", "0x1", "\u00e9",
]


_FAULTS = ["cell", "ragged", "extra", "empty row", "nested", "trailing comma", "bom", "non-ascii space", "form feed"]


@st.composite
def matrix_texts(draw):
    """JSON texts of n-by-m matrices, as ``json.dumps`` writes them or with other whitespace, some of them broken."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    # Mostly "0.0" cells, as in the files the one-pass reader is for.
    zero_share = draw(st.sampled_from([0.5, 0.9, 0.97, 1.0]))
    cell = st.one_of(_GOOD_TOKENS, st.just('"beta"'))
    tokens = [draw(cell) if draw(st.floats(0, 1)) >= zero_share else "0.0" for _ in range(n * m)]
    grid: list = [list(range(i * m, i * m + m)) for i in range(n)]
    fault = draw(st.sampled_from([None, None, *_FAULTS, "empty"]))
    if fault == "cell":
        tokens[draw(st.integers(0, n * m - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "ragged":
        grid[draw(st.integers(0, n - 1))].pop()
    elif fault == "extra":
        grid[draw(st.integers(0, n - 1))].append(0)
    elif fault == "empty row":
        grid.insert(draw(st.integers(0, n)), [])
    elif fault == "nested":
        grid = [grid]
    elif fault == "empty":
        grid = []
    # json.dumps lays out the cells' indices, which are then replaced by the cells' text.
    style = draw(st.sampled_from(["default", "indent", "compact", "spaces"]))
    compact = (",", ":") if style != "default" else None
    layout = json.dumps(grid, indent=2 if style == "indent" else None, separators=compact)
    if style == "spaces":
        blanks = st.text(alphabet=" \t\n\r", max_size=3)
        layout = re.sub(r"[\[\],]", lambda c: draw(blanks) + c.group() + draw(blanks), layout)
    text = re.sub(r"\d+", lambda k: tokens[int(k.group())], layout)
    if fault == "trailing comma":
        text = text.replace("]", ",]", 1)
    elif fault == "bom":
        text = "\ufeff" + text
    elif fault == "non-ascii space":
        text = text.replace(",", ",\u00a0", 1)
    elif fault == "form feed":
        text = text.replace(",", ",\f", 1)
    return text


def _outcome(read):
    """The arrays a loader gives, as (shape, dtype, bits) so -0.0 and 0.0 differ, or its error text."""
    try:
        got = read()
    except files.ParseError as exc:
        return str(exc)
    arrays = (got.amounts, got.beta) if isinstance(got, BidMatrix) else (got.x,)
    return [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


class TestNumberMatrix:
    """The one-pass reader of bid and allocation files against the ``json`` route."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(matrix_texts())
    def test_loaders_match_json_route(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("matrix") / "cells.json"
        path.write_bytes(text.encode("utf-8"))
        text = path.read_text(encoding="utf-8")  # as the loaders read it: "\r" becomes "\n"
        for load, json_route, build, beta_allowed in [
            (files.load_bids, files._bids_from_json, lambda cells: BidMatrix(*cells), True),
            (files.load_allocation, files._allocation_from_json, lambda cells: Allocation(cells[0]), False),
        ]:
            expected = _outcome(lambda: json_route(path, text))
            assert _outcome(lambda: load(path)) == expected
            # The reader answers only where the json route accepts the text, and with its bits.
            cells = files._number_matrix(text, beta_allowed)
            assert cells is None or _outcome(lambda: build(cells)) == expected

    def test_json_route_is_the_from_lists_route(self, tmp_path):
        text = '[[0.5, "beta"], [1, 0.0]]'
        path = tmp_path / "bids.json"
        path.write_text(text)
        assert files._bids_from_json(path, text) == BidMatrix.from_lists(json.loads(text))

    @pytest.mark.parametrize("indent", [None, 2])
    def test_dumps_layouts_take_the_one_pass(self, indent):
        values = np.zeros((6, 8))
        values[0, 1], values[2, 0], values[3, 7], values[4, 4], values[5, 5] = 0.25, 1e-5, 3, -0.0, 5e-324
        x, beta = files._number_matrix(json.dumps(values.tolist(), indent=indent), beta_allowed=False)
        assert x.tobytes() == values.tobytes()
        assert not beta.any()
        cells = [["beta", 2.0] + [0.0] * 14]
        x, beta = files._number_matrix(json.dumps(cells, indent=indent), beta_allowed=True)
        assert x.tolist() == [[0.0, 2.0] + [0.0] * 14]
        assert beta.tolist() == [[True] + [False] * 15]

    @pytest.mark.parametrize(
        "text",
        ["[[1.0, 2.0], [3.0]]", "[[1.0 2.0]]", "[[0. 0]]", '[["be ta"]]', "[[1.0,]]", "[[]]", "[]", "[[[1.0]]]",
         "\ufeff[[1.0]]", "[[1.0]]x", "x[[1.0]]", "[[-0]]", f"[[{_LARGEST!r}]]", "[[1e400]]", '[["beta"]]'],
    )
    def test_other_texts_take_the_json_route(self, text):
        # Cells of the exact zero 0.0 pad each text so that the one-pass reader would take it if it were valid.
        padded = text.replace("]]", "," + ", ".join(["0.0"] * 16) + "]]", 1) if "]]" in text else text
        assert files._number_matrix(padded, beta_allowed=False) is None

    @pytest.mark.parametrize(
        "cell",
        ["0.0625", "0.0e0", "0.00", "0.01", "00.0", "0e0", "0", "-0.0", "-0e5", "1E5", "2.5e-3", "1e+2", "7", "5e-324"],
    )
    def test_cells_near_zero_take_their_json_value(self, tmp_path, cell):
        text = f"[[{cell}, " + ", ".join(["0.0"] * 15) + "]]"
        path = tmp_path / "cells.json"
        path.write_text(text)
        expected = _outcome(lambda: files._allocation_from_json(path, text))
        assert _outcome(lambda: files.load_allocation(path)) == expected

    def test_dense_matrices_take_the_json_route(self):
        # More than one cell in 8 other than 0.0: json converts them faster.
        assert files._number_matrix(json.dumps([[1.0] * 2 + [0.0] * 14]), beta_allowed=False) is not None
        assert files._number_matrix(json.dumps([[1.0] * 3 + [0.0] * 14]), beta_allowed=False) is None


def _instance_json_route(data):
    """What the instance loader must give: its cell-type message, else the public constructor's result or message."""
    for i, agent in enumerate(data["agents"]):
        for k, cell in enumerate(agent["desired"]):
            if not isinstance(cell, int) or isinstance(cell, bool):
                return f"agents[{i}].desired[{k}]: expected a good index, got {cell!r}"
    try:
        return Instance(data["supplies"], [agent["desired"] for agent in data["agents"]])
    except (TypeError, ValueError) as exc:
        return str(exc)


@st.composite
def instance_payloads(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    supplies = draw(st.lists(st.sampled_from([1.0, 2, 0.5, 1e300, 3]), min_size=m, max_size=m))
    index = st.one_of(st.integers(0, m - 1), st.integers(-2, m + 1), st.sampled_from([10**30, True, 1.0, "1", None]))
    weights = draw(st.sampled_from([(1, 0, 0), (4, 1, 0), (8, 1, 1)]))
    cells = st.one_of(*[s for s, w in zip(index.original_strategies, weights) for _ in range(w)])
    return {"supplies": supplies, "agents": [{"desired": draw(st.lists(cells, max_size=4))} for _ in range(n)]}


class TestLoadInstance:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(instance_payloads())
    def test_matches_cell_by_cell_reading(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("instance") / "instance.json"
        path.write_text(json.dumps(data))
        expected = _instance_json_route(data)
        try:
            got = files.load_instance(path)
        except files.ParseError as exc:
            assert str(exc) == f"{path}: {expected}"
            return
        assert got == expected
        assert [type(s) for s in got.supplies] == [float] * got.m
        assert [list(r) for r in got.desired] == [list(r) for r in expected.desired]

    def test_type_fault_of_a_later_agent_comes_first(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"supplies": [1.0], "agents": [{"desired": [5]}, {"desired": [0, True]}]}))
        with pytest.raises(files.ParseError, match=r"agents\[1\]\.desired\[1\]: expected a good index, got True"):
            files.load_instance(path)


def _curves_json_route(data):
    """What the curve loader must give: pair by pair, the first fault's message, else the family."""
    curves = []
    for j, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(files._is_number, pair))):
            return f"curves[{j}]: expected a [coeff, degree] pair of numbers, got {pair!r}"
        try:
            curves.append(PowerCurve(float(pair[0]), float(pair[1])))
        except (OverflowError, ValueError) as exc:
            return f"curves[{j}]: {exc}"
    return CurveFamily(curves)


_CURVE_NUMBERS = [0.0, 1.0, 2, 0.5, 1e-300, 2**80 + 1, -1.0, 0, math.inf, math.nan, 10**400]


class TestLoadCurves:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.lists(st.sampled_from(_CURVE_NUMBERS[:6]), min_size=2, max_size=2),
                st.lists(st.sampled_from(_CURVE_NUMBERS), min_size=2, max_size=2),
                st.sampled_from([[1.0], [1.0, 2.0, 3.0], "x", [True, 1.0], [None, 1.0], {}]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_pair_by_pair_reading(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("curves") / "curves.json"
        path.write_text(json.dumps(data))
        expected = _curves_json_route(data)
        try:
            got = files.load_curves(path)
        except files.ParseError as exc:
            assert str(exc) == f"{path}: {expected}"
            return
        assert got.coeffs.tobytes() == expected.coeffs.tobytes()
        assert got.degrees.tobytes() == expected.degrees.tobytes()


@pytest.mark.parametrize(
    "load", [files.load_instance, files.load_bids, files.load_allocation, files.load_curves]
)
def test_non_utf8_file_is_named(tmp_path, load):
    path = tmp_path / "input.json"
    path.write_bytes(b"[[0.5, 1.0], [\xff]]")
    with pytest.raises(files.ParseError) as got:
        load(path)
    assert str(got.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff in position 14")
