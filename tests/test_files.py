"""The report writer and the bid loader of ``tradepost.files``.

``files.dumps`` must give exactly ``json.dumps(indent=2, sort_keys=True)``
text plus a newline: that is the report format the golden reports pin.  The
bid loader must name the first bad cell in row-major order, whichever of its
paths a row takes, and the allocation loader must give the same messages
whether or not its whole-file screen applies.
"""
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradepost import files
from tradepost.trading_post import BidMatrix


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
