"""Property test of the config boundary: any JSON object given to
``urllc-slice validate`` exits 0 or 1, and every line it writes to stderr is
an ``error:`` line. Only ``validate`` is run, so no config here simulates."""

import contextlib
import io
import json
from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from urllc_slice.cli import main
from urllc_slice.model import SystemConfig

FIELD_NAMES = [f.name for f in fields(SystemConfig)]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
configs = st.dictionaries(
    st.sampled_from(FIELD_NAMES) | st.text(max_size=6), values, max_size=6
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs)
@example({"num_rbs": 10**10})
@example({"num_rbs": 100_000, "num_embb_users": 101})
@example({"demand_quantum": 10**400, "noise_power": -(10**400)})
@example({"rb_bandwidth": 10**400, "embb_tx_power": [10**400]})
@example({"snr_min_db": 1e300, "snr_max_db": 1e308})
@example({"puncture_prob": True, "l_max": None, "num_minislots": 0})
@example({"l_max": -(2**63) - 1})
@example({"\r0": None})
def test_validate_never_raises_and_reports_errors_only(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", "--config", str(path)])
    assert code in (0, 1)
    lines = err.getvalue().splitlines()
    assert all(line.startswith("error:") for line in lines)
    assert (code == 1) == bool(lines)
