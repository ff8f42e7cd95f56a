import json
import math

from hypothesis import example, given
from hypothesis import strategies as st

from urllc_slice.cli import _json_indented

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(documents)
@example([])
@example({})
@example({"a": [], "b": {}})
@example([math.nan, math.inf, -math.inf, 0.1, -0.0, 10**30, 1e-300])
@example({"réseau, débit": ["ü, ß", "日本", 1.5], "\n": ['", "', True, None]})
@example([[1, 2.5], [True, False], [None], ["x, y"]])
@example([{"slot": 0, "iterations": [{"weights": [0.5, 1.0], "placement_feasible": True}]}])
@example([[1, 2], [1.0, 2.0]])
@example([[0.0], [-0.0]])
@example([[math.nan, 1.0], [math.nan, 1.0]])
@example([[True], [1]])
@example({"a": [0.5, 1.5], "b": {"c": [0.5, 1.5]}})
def test_matches_json_dumps_byte_for_byte(doc):
    assert _json_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_non_string_keys_fall_back_to_json_dumps():
    doc = {"outer": [{1: [1.0, 2.0], 2: {"x": None}}]}
    assert _json_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)
