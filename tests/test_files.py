"""The report writer and the bid loader of ``tradepost.files``.

``files.dumps`` must give exactly ``json.dumps(indent=2, sort_keys=True)``
text plus a newline: that is the report format the golden reports pin.  The
bid loader must name the first bad cell in row-major order, whichever of its
paths a row takes.
"""
import json
import math

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
