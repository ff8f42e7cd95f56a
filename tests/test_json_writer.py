import json
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from urllc_slice.json_writer import _csv, _json_indented
from urllc_slice.simulator import RunMetrics

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


# Trace-shaped documents for ``_json_indented``: the slot dicts ``run_simulation``
# collects, with shapes and values that no answered slot's template holds.
numbers = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf])
    | st.integers(-3, 3)
)
scalar_values = numbers | st.booleans() | st.none() | st.text(max_size=3)
float_lists = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6)


def entry(iteration, weights, bandwidth, frac=1.5, rounded=-2.0, feasible=True):
    return {
        "iteration": iteration,
        "fractional_objective": frac,
        "rounded_objective": rounded,
        "weights": weights,
        "user_bandwidth": bandwidth,
        "placement_feasible": feasible,
    }


def slot(index, entries, converged=True, reason="tolerance"):
    return {"slot": index, "converged": converged, "reason": reason, "iterations": entries}


@st.composite
def list_like(draw, base):
    """A list with the floats of ``base`` (as a trace shares them), an equal
    list of fresh objects, or another list."""
    kind = draw(st.sampled_from(["shared", "fresh", "other"]))
    if kind == "shared":
        return list(base)
    if kind == "fresh":
        return json.loads(json.dumps(base))
    return draw(st.lists(numbers, max_size=6) | float_lists)


def mangle(draw, d):
    """Maybe add a key, drop one or give one an unusual value."""
    action = draw(st.sampled_from(["none", "none", "none", "extra", "drop", "retype"]))
    if action == "extra":
        d[draw(st.text(max_size=3))] = draw(scalar_values)
    elif action == "drop":
        del d[draw(st.sampled_from(sorted(d)))]
    elif action == "retype":
        d[draw(st.sampled_from(sorted(d)))] = draw(scalar_values | st.lists(scalar_values, max_size=2))
    return d


@st.composite
def traces(draw):
    bandwidth = draw(float_lists)
    out = []
    for index in range(draw(st.integers(0, 4))):
        weights = draw(float_lists)
        entries = [
            mangle(draw, entry(
                it,
                draw(list_like(weights)),
                draw(list_like(bandwidth)),
                draw(numbers),
                draw(numbers),
                draw(st.booleans()),
            ))
            for it in range(1, draw(st.sampled_from([2, 2, 2, 1, 3])) + 1)
        ]
        reason = draw(st.sampled_from(["tolerance", "max-iterations"]) | st.text(max_size=4))
        out.append(mangle(draw, slot(index, entries, draw(st.booleans()), reason)))
    return out


weights_a, weights_b, bandwidth = [0.25, 0.0, 1.0], [0.25, -0.0, 1.0], [2.5e5, 1e5, 3e5]


@given(traces())
@example([])
@example([slot(0, [entry(1, list(weights_a), list(bandwidth)), entry(2, list(weights_a), list(bandwidth))])])
# -0.0 next to 0.0, an int among floats: equal lists whose text differs
@example([slot(0, [entry(1, weights_a, bandwidth), entry(2, weights_b, list(bandwidth))])])
@example([slot(0, [entry(1, [0.5, 1.0], bandwidth), entry(2, [0.5, 1], bandwidth)])])
@example([slot(0, [entry(1, [], []), entry(2, [], [])]), slot(1, [entry(1, [1.0], [1.0]), entry(2, [], [])])])
@example([slot(0, [entry(1, [], bandwidth, math.nan, math.inf), entry(2, [], bandwidth, -math.inf, 0.0)])])
@example([slot(0, [entry(1, weights_a, bandwidth)]), slot(1, [entry(i, weights_a, bandwidth) for i in (1, 2, 3)])])
@example([slot(0, [entry(1, weights_a, bandwidth), entry(2, weights_a, bandwidth)], converged=False)])
@example([dict(slot(0, [entry(1, weights_a, bandwidth), entry(2, weights_a, bandwidth)]), extra=1)])
@example([slot(0, [entry(1, weights_a, bandwidth), {"iteration": 2}])])
@example([slot(0, [entry(1, weights_a, bandwidth), entry(2, weights_a, bandwidth)], reason="débit, 日本")])
# a list after a string with the same (interned) characters
@example([slot(0, [entry(1, "ab", bandwidth), entry(2, list("ab"), bandwidth)])])
@example([slot(0, [entry(1, weights_a, (0.5, 1.0)), entry(2, weights_a, [0.5, 1.0])])])
@example([slot(True, [entry(1, [None], [True]), entry(2, [None], [[1]])], converged=None, reason=3)])
def test_trace_writer_matches_json_dumps_byte_for_byte(sink):
    assert _json_indented(sink) == json.dumps(sink, indent=2, sort_keys=True)


def test_trace_writer_writes_other_documents_as_json_dumps():
    for doc in ([], {}, [[]], [1, 2], {"slot": 0}, "trace"):
        assert _json_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)


# -- the metrics files from one text per float ---------------------------------

# repr turns to exponent notation below 1e-4 and from 1e16 on
SWITCH_POINTS = [1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05, 9.999999999999999e-06,
                 1e16, 9999999999999998.0, 1.0000000000000002e16, 1e15]
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
           2.2250738585072014e-308, 1.7976931348623157e308, *SWITCH_POINTS]
metric_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)
metric_arrays = st.lists(metric_floats, min_size=1, max_size=8).map(np.array)


def run_metrics(values, probs, rates, thetas):
    return RunMetrics(
        policy="proposed", slots=len(values), seed=7, puncture_prob=0.5, urllc_outage_budget=0.1,
        risk_weight=1.0, embb_reliability=0.9, urllc_outage_rate=0.0, mean_sum_rate=-0.0,
        sum_rate_cvar_upper=math.inf, sum_rate_cvar_lower=math.nan, ecdf_values=values, ecdf_probs=probs,
        per_user_mean_rate=rates, per_user_mean_theta=thetas, n_infeasible_slots=0,
    )


def old_files(m):
    """The three files as the writers made them with a text per float per file."""
    ecdf = _csv(["value", "cum_prob"], zip(m.ecdf_values.tolist(), m.ecdf_probs.tolist()))
    rates, thetas = m.per_user_mean_rate.tolist(), m.per_user_mean_theta.tolist()
    users = _csv(["user", "mean_rate", "mean_theta"], zip(range(len(rates)), rates, thetas))
    return json.dumps(m.to_dict(), indent=2, sort_keys=True), ecdf, users


@given(metric_arrays, metric_arrays, metric_arrays)
# a one-value ECDF, and both halves of every pair of columns non-finite
@example(np.array([1.5]), np.array([1.0]), np.array([0.0]))
@example(np.array(SPECIAL), np.array(SPECIAL[::-1]), np.array(SWITCH_POINTS))
@example(np.array([math.nan, -math.inf]), np.array([math.inf, math.nan]), np.array([-0.0, 5e-324]))
def test_shared_float_texts_give_the_old_metrics_files_byte_for_byte(ecdf, users, thetas):
    m = run_metrics(ecdf, ecdf[::-1].copy(), users, np.resize(thetas, users.shape))
    assert (m.to_json(), m.ecdf_csv(), m.per_user_csv()) == old_files(m)


def test_non_finite_floats_keep_the_json_and_csv_spellings():
    special = np.array([math.nan, math.inf, -math.inf])
    m = run_metrics(special, special, special, special)
    document = m.to_json()
    assert '"values": [\n      NaN,\n      Infinity,\n      -Infinity\n    ]' in document
    assert m.ecdf_csv() == "value,cum_prob\nnan,nan\ninf,inf\n-inf,-inf\n"
    assert m.per_user_csv() == "user,mean_rate,mean_theta\n0,nan,nan\n1,inf,inf\n2,-inf,-inf\n"
