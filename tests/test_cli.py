import json
import warnings

import numpy as np
import pytest

from urllc_slice import simulator
from urllc_slice.cli import main
from urllc_slice.model import SystemConfig


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "error: config" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"num_embb_users": 4, "what_is_this": 1}')
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: config" in capsys.readouterr().err


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 1
    assert "error: config" in capsys.readouterr().err


def test_run_is_deterministic(tmp_path):
    args = ["run", "--policy", "proposed", "--slots", "10", "--seed", "7", "--threads", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert tree1.keys() == tree2.keys()
    assert tree1 == tree2


def test_run_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--policy", "baseline2", "--slots", "5", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "metrics_baseline2.json",
        "ecdf_baseline2.csv",
        "users_baseline2.csv",
        "comparison.csv",
    }
    summary = capsys.readouterr().out
    assert "policy=baseline2" in summary and "reliability=" in summary
    header = (out / "comparison.csv").read_text().splitlines()[0]
    assert header.startswith("policy,sweep_param,sweep_value,")
    ecdf_header = (out / "ecdf_baseline2.csv").read_text().splitlines()[0]
    assert ecdf_header == "value,cum_prob"
    users_header = (out / "users_baseline2.csv").read_text().splitlines()[0]
    assert users_header == "user,mean_rate,mean_theta"


def test_run_all_policies_writes_comparison(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--policy", "all", "--slots", "5", "--seed", "3", "--out", str(out)])
    assert code == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header plus one row per policy
    assert [r.split(",")[0] for r in rows[1:]] == ["proposed", "baseline1", "baseline2"]


def test_sweep_rows_follow_trend(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--policy",
            "proposed",
            "--sweep",
            "p",
            "--values",
            "0.1,0.5,0.9",
            "--slots",
            "150",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    mean_idx = header.index("mean_sum_rate")
    means = [float(r.split(",")[mean_idx]) for r in rows[1:]]
    assert len(means) == 3
    assert means[0] >= means[1] >= means[2]


def test_sweep_requires_values(tmp_path, capsys):
    assert main(["run", "--sweep", "p", "--out", str(tmp_path)]) == 1
    assert "error: config" in capsys.readouterr().err


def test_trace_incompatible_with_sweep(tmp_path, capsys):
    code = main(
        ["run", "--sweep", "p", "--values", "0.5", "--trace", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error: config" in capsys.readouterr().err


def test_nonpositive_threads_rejected(tmp_path, capsys):
    assert main(["run", "--threads", "0", "--out", str(tmp_path)]) == 1
    assert "error: config" in capsys.readouterr().err


def test_bad_values_rejected(tmp_path, capsys):
    code = main(
        ["run", "--sweep", "p", "--values", "0.1,oops", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error: config" in capsys.readouterr().err


def test_out_of_domain_sweep_value_rejected(tmp_path, capsys):
    code = main(
        ["run", "--sweep", "epsilon", "--values", "0.0", "--slots", "5", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error: config" in capsys.readouterr().err


def test_io_failure_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(
        ["run", "--policy", "baseline2", "--slots", "2", "--out", str(blocker / "sub")]
    )
    assert code == 2
    assert "error: io" in capsys.readouterr().err


def test_unwritable_trace_file_gives_one_io_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "trace_proposed.json").mkdir(parents=True)  # a directory where the trace goes
    argv = ["run", "--policy", "proposed", "--slots", "3", "--seed", "7", "--threads", "1", "--trace"]
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: io cannot write {out / 'trace_proposed.json'}: ")


@pytest.mark.parametrize("extra", [[], ["--sweep", "p", "--values", "0.2"]])
def test_internal_failure_exits_three_without_a_traceback(tmp_path, capsys, monkeypatch, extra):
    def broken(*args):
        raise RuntimeError("solver state lost")

    monkeypatch.setattr(simulator, "_simulate_range", broken)
    argv = ["run", "--slots", "4", "--seed", "7", "--threads", "1", "--out", str(tmp_path), *extra]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: internal RuntimeError: solver state lost"]
    assert "Traceback" not in err


def test_a_solver_value_error_is_internal_not_config(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ValueError("zero-size array to reduction operation")

    monkeypatch.setattr(simulator, "_simulate_range", broken)
    argv = ["run", "--policy", "baseline2", "--slots", "4", "--seed", "7", "--threads", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: internal ValueError: zero-size array to reduction operation"]
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--post-round", "--trace"]])
def test_vanishing_load_fraction_runs_without_numpy_warnings(tmp_path, capsys, extra):
    # a load fraction of 5e-324 with the penalty off: the water-filling meets
    # 1/0, an overflow to inf and inf - inf, none of which may warn
    cfg = {
        "num_embb_users": 1,
        "num_rbs": 5,
        "num_minislots": 1,
        "num_urllc_users": 1,
        "snr_min_db": 3,
        "snr_max_db": 3,
        "puncture_prob": 5e-324,
        "risk_weight": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["run", "--config", str(path), "--policy", "all", "--slots", "1", "--seed", "0", "--threads", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning raised inside the run exits 3
        assert main(argv + ["--out", str(tmp_path / "out"), *extra]) == 0
    assert capsys.readouterr().err == ""
    metrics = json.loads((tmp_path / "out" / "metrics_baseline1.json").read_text())
    assert metrics["n_infeasible_slots"] == 0


def test_trace_flag_dumps_alternation(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", "--policy", "proposed", "--slots", "3", "--trace", "--out", str(out)]
    )
    assert code == 0
    traces = json.loads((out / "trace_proposed.json").read_text())
    assert len(traces) == 3
    assert all("iterations" in t for t in traces)


def test_post_round_flag_runs(tmp_path):
    out = tmp_path / "out"
    assert (
        main(["run", "--policy", "proposed", "--slots", "3", "--post-round", "--out", str(out)])
        == 0
    )


def test_validate_default_config_passes(capsys):
    assert main(["validate"]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_names_bad_field(tmp_path, capsys):
    cfg = SystemConfig().to_dict()
    cfg["urllc_outage_budget"] = 0.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    assert "urllc_outage_budget" in capsys.readouterr().err


def test_validate_warns_when_floor_unreachable(tmp_path, capsys):
    cfg = SystemConfig().to_dict()
    cfg["urllc_outage_budget"] = 1e-4  # reliability floor far above capacity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    assert "infeasible-at-expectation" in capsys.readouterr().out


def test_seed_env_var_is_default(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC_SLICE_SEED", "99")
    out1 = tmp_path / "env"
    assert main(["run", "--policy", "baseline2", "--slots", "4", "--out", str(out1)]) == 0
    out2 = tmp_path / "explicit"
    assert (
        main(
            [
                "run",
                "--policy",
                "baseline2",
                "--slots",
                "4",
                "--seed",
                "99",
                "--out",
                str(out2),
            ]
        )
        == 0
    )
    assert read_tree(out1) == read_tree(out2)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_config_value_rejected(tmp_path, capsys, command, value):
    path = tmp_path / "cfg.json"
    path.write_text('{"snr_min_db": %s}' % value)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--slots", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "snr_min_db" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "text, line",
    [
        ('{"snr_min_db": NaN}', "error: config invalid: snr_min_db: must be a finite number, got nan"),
        ('{"puncture_prob": null}', "error: config invalid: puncture_prob: must be a finite number, got None"),
        ('{"bogus": 1}', "error: config has unknown keys: bogus"),
    ],
)
def test_config_error_prefix_printed_once(tmp_path, capsys, command, text, line):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--slots", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "text, field",
    [
        ('{"num_rbs": 2.5}', "num_rbs"),
        ('{"num_rbs": -1}', "num_rbs"),
        ('{"num_embb_users": true}', "num_embb_users"),
        ('{"rb_bandwidth": "abc"}', "rb_bandwidth"),
        ('{"rb_bandwidth": [1,2]}', "rb_bandwidth"),
        ('{"embb_tx_power": [1,2]}', "embb_tx_power"),
    ],
)
def test_malformed_field_gives_one_config_error(tmp_path, capsys, command, text, field):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--slots", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config invalid: {field}: ")


@pytest.mark.parametrize(
    "config, extra",
    [
        ({}, []),
        ({"num_embb_users": 40, "num_rbs": 200}, ["--post-round"]),
        # a user at zero spectral efficiency: every slot runs the alternation loop
        ({"snr_min_db": -400, "snr_max_db": 30}, []),
        # slots of both kinds within one run
        ({"num_embb_users": 3, "snr_min_db": -165, "snr_max_db": -150}, ["--post-round"]),
    ],
)
def test_trace_file_is_canonical_indented_json(tmp_path, config, extra):
    out = tmp_path / "out"
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["run", "--policy", "proposed", "--slots", "4", "--seed", "5", "--threads", "1", *extra]
    assert main(argv + ["--config", str(tmp_path / "cfg.json"), "--trace", "--out", str(out)]) == 0
    text = (out / "trace_proposed.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "text, line",
    [
        ('{"num_rbs": 10000000000}', "num_rbs: must be at most 100000, got 10000000000"),
        ('{"num_embb_users": 100001}', "num_embb_users: must be at most 100000, got 100001"),
        ('{"num_urllc_users": 10000000000}', "num_urllc_users: must be at most 100000, got 10000000000"),
        (
            '{"num_rbs": 100000, "num_embb_users": 101}',
            "num_rbs: num_rbs * num_embb_users must be at most 10000000, got 10100000",
        ),
    ],
)
def test_oversized_count_gives_one_config_error(tmp_path, capsys, command, text, line):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--slots", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: config invalid: {line}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"demand_quantum": 1%s}' % ("0" * 400),
        '{"l_max": -9223372036854775809}',
        '{"rb_bandwidth": [1%s]}' % ("0" * 400),
        '{"num_rbs": 1%s}' % ("0" * 5000),
        "[" * 100000 + "]" * 100000,
    ],
)
def test_out_of_range_numbers_give_one_config_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config ")


def test_unknown_key_with_line_break_stays_on_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bad\nkey": 1}))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: config has unknown keys: 'bad\\nkey'\n"


def test_validate_rejects_snr_beyond_float_range(tmp_path, capsys):
    # 10 ** (1e300 / 10) is no float: rejected as above MAX_SNR_DB, not raised on
    path = tmp_path / "cfg.json"
    path.write_text('{"snr_max_db": 1e300}')
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config invalid: snr_max_db: must be at most 1000\n"


POWER_LINE = "{}: must lie within 2000 dB of noise_power"
NOISE_LINE = "noise_power: must lie in [1e-100, 1e100]"
MIN_BANDWIDTH_LINE = "rb_bandwidth: every entry must be at least 1e-100 Hz, got {}"
FLOOR_LINE = (
    "demand_quantum: the URLLC rate floor num_minislots * puncture_prob * "
    "demand_quantum / (urllc_outage_budget * 1 ms) must be finite"
)
LOAD_LINE = (
    "l_max: the expected load fraction num_minislots * puncture_prob * demand_quantum / l_max "
    "must be at most 1e+100, got {}"
)


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "text, line",
    [
        # at 3000-4000 dB a mean SNR or its faded gain overflows to inf; the run
        # used to exit 0 with a NaN mean sum rate and thousands of NumPy warnings
        (
            '{"num_embb_users": 12, "num_rbs": 5, "snr_min_db": 3000, "snr_max_db": 4000}',
            "snr_min_db: must be at most 1000; snr_max_db: must be at most 1000",
        ),
        # a power-to-noise ratio of 1e600 left every gain 0 (all users
        # degenerate, a mean sum rate of 0); one of 1e-600 an infinite gain
        # (NaN rates and NumPy warnings). A noise power of 1e300 overflowed
        # the gain's product mean SNR * fading * noise_power at any ratio.
        ('{"embb_tx_power": 1e300, "noise_power": 1e-300}', NOISE_LINE),
        ('{"embb_tx_power": 1e-300, "noise_power": 1e300}', NOISE_LINE),
        ('{"urllc_tx_power": 1e-300, "noise_power": 1e300}', NOISE_LINE),
        (
            '{"noise_power": 1e300, "embb_tx_power": 1e300, "urllc_tx_power": 1e300, "snr_max_db": 100}',
            NOISE_LINE,
        ),
        (
            '{"embb_tx_power": 1e101, "urllc_tx_power": 1e-101, "noise_power": 1e-100}',
            POWER_LINE.format("embb_tx_power"),
        ),
        ('{"urllc_tx_power": 1e-301, "noise_power": 1e-100}', POWER_LINE.format("urllc_tx_power")),
        # 50 RBs of 1e306 Hz overflowed the sum rates, and a load fraction of
        # 9e302 the placement's floor coefficients: the run exited 0 with
        # inf or NaN sum rates and NumPy warnings
        (
            '{"rb_bandwidth": 1e306}',
            "rb_bandwidth: must sum to at most 1e+100 Hz, got 5.000000000000001e+307",
        ),
        ('{"l_max": 1e-300}', LOAD_LINE.format("8.96e+302")),
        # RBs of 1e-200 Hz underflowed the floor multiplier's Newton slope:
        # validate passed and the run exited 3 with a ZeroDivisionError
        ('{"rb_bandwidth": 1e-200, "demand_quantum": 1e-205}', MIN_BANDWIDTH_LINE.format("1e-200")),
        ('{"rb_bandwidth": 1e-290, "demand_quantum": 1e-300}', MIN_BANDWIDTH_LINE.format("1e-290")),
        # a rate floor of inf bit/s: the run exited 0 with outage 1.0, and a
        # budget whose seconds underflow to 0 raised ZeroDivisionError
        ('{"demand_quantum": 1e306}', FLOOR_LINE),
        ('{"urllc_outage_budget": 5e-324}', FLOOR_LINE),
        # a demand_quantum that fails its own rule was also reported as the
        # l_max derived from it, and one whose derived l_max overflows as
        # l_max alone
        ('{"demand_quantum": -5}', "demand_quantum: must be > 0"),
        ('{"demand_quantum": NaN}', "demand_quantum: must be a finite number, got nan"),
        ('{"demand_quantum": 1e308}', "demand_quantum: num_minislots * demand_quantum must be a finite number, got inf"),
        # a floor of 3.5e-318 bit/s: baseline 2's greedy shares underflowed to
        # 0, and the run exited 0 with no infeasible slot and outage 0.99
        (
            '{"demand_quantum": 1e-322}',
            "demand_quantum: num_minislots * demand_quantum / (urllc_outage_budget * 1 ms * total bandwidth "
            "* 338) must be at least 2.2250738585072014e-308 where the URLLC rate floor is positive, got 0.0",
        ),
    ],
)
def test_snr_that_would_overflow_is_one_config_error(tmp_path, capsys, command, text, line):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--policy", "all", "--slots", "300", "--seed", "7", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config invalid: {line}\n"
    assert not (tmp_path / "out").exists()


def test_snr_of_1000_db_runs_without_numpy_warnings(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"num_embb_users": 12, "num_rbs": 5, "snr_min_db": 900, "snr_max_db": 1000}')
    argv = ["run", "--config", str(path), "--policy", "all", "--slots", "100", "--seed", "7"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--threads", "1", "--out", str(tmp_path / "out")]) == 0
    for policy in ("proposed", "baseline1", "baseline2"):
        metrics = json.loads((tmp_path / "out" / f"metrics_{policy}.json").read_text())
        assert np.isfinite(metrics["mean_sum_rate"]) and metrics["mean_sum_rate"] > 0


def test_a_sweep_value_that_lifts_the_load_fraction_over_its_bound_is_one_config_error(tmp_path, capsys):
    # 8.96e99 at the config's p = 0.5, twice that at p = 1: the value that
    # breaks the rule is named, though the rule's error is l_max's
    path = tmp_path / "cfg.json"
    path.write_text('{"l_max": 1e-97}')
    argv = ["run", "--config", str(path), "--sweep", "p", "--values", "0.5,1", "--slots", "5"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: config sweep value 1.0 rejected: {LOAD_LINE.format('1.792e+100')}\n"
    assert not (tmp_path / "out").exists()


def test_a_sweep_value_that_breaks_a_derived_l_max_rule_is_rejected_as_that_value(tmp_path, capsys):
    # l_max is derived from demand_quantum, not set: at epsilon 0.5 the floor
    # share falls below its bound, which names demand_quantum and the value
    path = tmp_path / "cfg.json"
    path.write_text('{"demand_quantum": 2e-303}')
    argv = ["run", "--config", str(path), "--sweep", "epsilon", "--values", "0.1,0.5", "--policy", "baseline2"]
    assert main(argv + ["--slots", "5", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config sweep value 0.5 rejected: demand_quantum: num_minislots * demand_quantum / "
        "(urllc_outage_budget * 1 ms * total bandwidth * 338) must be at least 2.2250738585072014e-308 "
        "where the URLLC rate floor is positive, got 4.602235371466143e-309\n"
    )
    assert not (tmp_path / "out").exists()
    # at 0.1 alone the derived l_max passes, as in the config itself
    assert main(argv[:6] + ["0.1", "--policy", "baseline2", "--slots", "5", "--out", str(tmp_path / "ok")]) == 0


def test_a_config_at_the_bandwidth_and_load_fraction_bounds_runs_without_numpy_warnings(tmp_path):
    # 50 RBs summing to 1e100 Hz and a load fraction of 896 / 8.96e-98 = 1e100;
    # every baseline-1 row needs the floor multiplier
    path = tmp_path / "cfg.json"
    path.write_text('{"rb_bandwidth": 1.9999999999999997e+98, "l_max": 8.96e-98}')
    assert main(["validate", "--config", str(path)]) == 0
    argv = ["run", "--config", str(path), "--policy", "all", "--trace", "--slots", "100", "--seed", "7"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--threads", "1", "--out", str(tmp_path / "out")]) == 0
    for policy in ("proposed", "baseline1", "baseline2"):
        metrics = json.loads((tmp_path / "out" / f"metrics_{policy}.json").read_text())
        assert np.isfinite(metrics["mean_sum_rate"]) and metrics["mean_sum_rate"] > 0


def test_validate_prints_two_violations_on_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"num_rbs": 0, "puncture_prob": 2.0}')
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config invalid: num_rbs: must be a positive integer, got 0; "
        "puncture_prob: must lie in [0, 1]\n"
    )


@pytest.mark.parametrize(
    "argv, env, line",
    [
        (["--seed", "-1"], None, "error: config --seed must be >= 0, got -1"),
        ([], "-5", "error: config URLLC_SLICE_SEED must be a non-negative integer, got '-5'"),
        ([], "abc", "error: config URLLC_SLICE_SEED must be a non-negative integer, got 'abc'"),
        (["--trace", "--policy", "baseline1"], None, "error: config --trace requires --policy proposed or all"),
        (["--trace", "--policy", "baseline2"], None, "error: config --trace requires --policy proposed or all"),
    ],
)
def test_bad_seed_or_trace_gives_one_config_error(tmp_path, capsys, monkeypatch, argv, env, line):
    if env is None:
        monkeypatch.delenv("URLLC_SLICE_SEED", raising=False)
    else:
        monkeypatch.setenv("URLLC_SLICE_SEED", env)
    out = tmp_path / "out"
    assert main(["run", "--slots", "2", "--threads", "1", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert not out.exists()


def test_seed_flag_overrides_a_bad_seed_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC_SLICE_SEED", "abc")
    argv = ["run", "--policy", "baseline2", "--slots", "2", "--seed", "4", "--threads", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_validate_ignores_the_seed_variable(capsys, monkeypatch):
    monkeypatch.setenv("URLLC_SLICE_SEED", "abc")
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == "config ok\n"


def test_comparison_writes_int_config_values_as_floats(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"puncture_prob": 1}')
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--policy", "baseline2", "--slots", "3", "--seed", "2"]
    assert main(argv + ["--threads", "1", "--out", str(out)]) == 0
    header, row = (out / "comparison.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["puncture_prob"] == "1.0"
    assert (cells["policy"], cells["sweep_param"], cells["sweep_value"]) == ("baseline2", "", "")
    assert (cells["slots"], cells["seed"], cells["n_infeasible_slots"]) == ("3", "2", "0")


@pytest.mark.parametrize("extra", [[], ["--post-round"]])
def test_trace_files_do_not_depend_on_threads(tmp_path, extra):
    argv = ["run", "--policy", "all", "--slots", "6", "--seed", "13", "--trace", *extra]
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        trees.append(read_tree(out))
    assert "trace_proposed.json" in trees[0]
    assert trees[0] == trees[1]


@pytest.mark.parametrize(
    "extra",
    [[], ["--policy", "all", "--threads", "2"], ["--sweep", "beta", "--values", "0.2,0.8"]],
)
def test_oversized_slot_count_gives_one_config_error(tmp_path, capsys, monkeypatch, extra):
    from urllc_slice import simulator

    def no_slot_may_run(*args):
        raise AssertionError("an oversized run reached the slot loop")

    monkeypatch.setattr(simulator, "_simulate_range", no_slot_may_run)
    out = tmp_path / "out"
    argv = ["run", "--slots", "1000000000000", "--seed", "1", *extra, "--out", str(out)]
    assert main(argv) == 1
    users = SystemConfig().num_embb_users
    assert capsys.readouterr().err == (
        "error: config num_slots * num_embb_users must be at most 10000000, "
        f"got {10**12 * users}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--sweep", "p", "--values", "0,0.5"]])
def test_csv_cells_are_plain_numbers_equal_to_the_metrics(tmp_path, extra):
    out = tmp_path / "out"
    argv = ["run", "--policy", "all", "--slots", "50", "--seed", "7", "--threads", "1"]
    assert main(argv + ["--out", str(out), *extra]) == 0
    tags = sorted(p.name[len("metrics_") : -len(".json")] for p in out.glob("metrics_*.json"))
    assert len(tags) == (6 if extra else 3)
    for tag in tags:
        metrics = json.loads((out / f"metrics_{tag}.json").read_text())
        header, *ecdf = (out / f"ecdf_{tag}.csv").read_text().splitlines()
        assert header == "value,cum_prob"
        ecdf_json = metrics["sum_rate_ecdf"]
        expected = list(zip(ecdf_json["values"], ecdf_json["cum_probs"]))
        assert [tuple(map(float, line.split(","))) for line in ecdf] == expected
        header, *users = (out / f"users_{tag}.csv").read_text().splitlines()
        assert header == "user,mean_rate,mean_theta"
        rates, thetas = metrics["per_user_mean_rate"], metrics["per_user_mean_theta"]
        rows = [line.split(",") for line in users]
        assert len(rows) == SystemConfig().num_embb_users
        assert [(int(u), float(r), float(t)) for u, r, t in rows] == list(
            zip(range(len(rates)), rates, thetas)
        )


@pytest.mark.parametrize(
    "argv, line",
    [
        (["run", "--slots", "abc"], "error: config argument --slots: invalid int value: 'abc'"),
        (["run", "--threads", "2.5"], "error: config argument --threads: invalid int value: '2.5'"),
        (
            ["run", "--policy", "nope"],
            "error: config argument --policy: invalid choice: 'nope' "
            "(choose from 'proposed', 'baseline1', 'baseline2', 'all')",
        ),
        (["nope"], "error: config argument command: invalid choice: 'nope' (choose from 'run', 'validate')"),
        ([], "error: config the following arguments are required: command"),
        (["run", "--seed"], "error: config argument --seed: expected one argument"),
        (["validate", "--bogus"], "error: config unrecognized arguments: --bogus"),
        (["run", "--x\ny"], "error: config unrecognized arguments: --x\\ny"),
    ],
)
def test_unparseable_flag_gives_one_config_error(tmp_path, capsys, monkeypatch, argv, line):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["validate", "-h"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: urllc-slice")
    assert captured.err == ""


def test_module_exits_one_on_an_unparseable_flag(tmp_path):
    import os
    import subprocess
    import sys

    import urllc_slice

    src = os.path.dirname(os.path.dirname(urllc_slice.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "urllc_slice.cli", "run", "--slots", "abc"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: config argument --slots: invalid int value: 'abc'\n"


def run_module(tmp_path, name, argv):
    """``python -m urllc_slice.cli run`` in a fresh interpreter, writing to
    ``tmp_path / name``: its exit code, stdout, stderr and files."""
    import os
    import subprocess
    import sys

    import urllc_slice

    src = os.path.dirname(os.path.dirname(urllc_slice.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "urllc_slice.cli", "run", *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr, read_tree(out)


def joined_runs(results, tags):
    """The output of separate runs as one batch run writes it: their
    stdout and stderr in turn, and their files, each run's renamed from its
    own tag to its tag in the batch, with one comparison.csv of all rows."""
    code, out, err, tree, rows = 0, "", "", {}, []
    for (run_code, run_out, run_err, run_tree), (own, tag) in zip(results, tags):
        code, out, err = max(code, run_code), out + run_out, err + run_err
        header, *run_rows = run_tree.pop("comparison.csv").decode().splitlines(keepends=True)
        rows += run_rows
        tree.update({name.replace(f"_{own}.", f"_{tag}."): text for name, text in run_tree.items()})
    tree["comparison.csv"] = (header + "".join(rows)).encode()
    return code, out, err, dict(sorted(tree.items()))


# at seed 7, 4 631 of the first 5 000 slots have one user degenerate, 362 two
# and 7 two others: three kinds of warning line, one per slot and policy
WARNS = {"snr_min_db": -200, "snr_max_db": 30}


@pytest.mark.parametrize(
    "config, argv, values, lines",
    [
        # -400 dB leaves users degenerate, so every policy warns on stderr
        ({"snr_min_db": -400, "snr_max_db": 30}, ["--slots", "60", "--seed", "20261", "--trace"], None, 180),
        # more slots than one chunk holds (3 120 at this size)
        (WARNS, ["--slots", "5000", "--seed", "7"], None, 15_000),
        (WARNS, ["--slots", "3200", "--seed", "7", "--sweep", "p"], ["0.1", "0.9"], 6 * 3200),
    ],
)
def test_pool_stderr_equals_sequential_stderr(tmp_path, config, argv, values, lines):
    # a --policy all run, sweep or not, draws every slot once for all its
    # runs, on one or two processes; its files, stdout and stderr (the
    # warnings in run order) are those of the separate single-policy,
    # single-value runs
    from concurrent.futures import ThreadPoolExecutor

    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["--config", str(tmp_path / "cfg.json"), *argv]
    jobs = {
        f"all_{threads}": [*argv, "--policy", "all", "--threads", threads]
        + (["--values", ",".join(values)] if values else [])
        for threads in ("1", "2")
    }
    tags = []
    for policy in ("proposed", "baseline1", "baseline2"):
        for idx, value in enumerate(values or [None]):
            name = f"{policy}_{idx}"
            traced = [a for a in argv if a != "--trace" or policy == "proposed"]
            jobs[name] = [*traced, "--policy", policy, "--threads", "1"]
            jobs[name] += ["--values", value] if values else []
            tags.append((f"{policy}_p0", f"{policy}_p{idx}") if values else (policy, policy))
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(jobs, pool.map(lambda name: run_module(tmp_path, name, jobs[name]), jobs)))
    batch = results["all_1"]
    assert batch[0] == 0
    stderr = batch[2].splitlines()
    assert len(stderr) == lines and all("degenerate" in line for line in stderr)
    if config == WARNS:
        assert len(set(stderr)) == 3
    assert results["all_2"] == batch
    separate = [results[name] for name in jobs if not name.startswith("all_")]
    assert joined_runs(separate, tags) == batch
