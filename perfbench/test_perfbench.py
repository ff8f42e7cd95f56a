"""Tests of the benchmark's own checks and tracing.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_checks  # noqa: E402
import bench_tracer  # noqa: E402
from run import REFERENCE_FILE, REFERENCE_SEEDS, WORKLOADS, Bench  # noqa: E402
from urllc_slice import simulator, urllc_placement  # noqa: E402
from urllc_slice.cli import main  # noqa: E402

SLOTS = 20


def run_cli(out: Path, policy: str, extra=()) -> dict:
    args = ["run", "--policy", policy, "--slots", str(SLOTS), "--seed", "7", "--threads", "1"]
    assert main([*args, "--out", str(out), *extra]) == 0
    return bench_checks.load_metrics(out)


@pytest.fixture(scope="module")
def proposed(tmp_path_factory):
    out = tmp_path_factory.mktemp("proposed")
    metrics = run_cli(out, "proposed", ["--sweep", "p", "--values", "0.1,0.5"])
    return metrics, bench_checks.fingerprints(out)


def test_solver_tolerance_change_passes(proposed, tmp_path, monkeypatch):
    if not hasattr(urllc_placement, "_REL_TOL"):
        pytest.skip("placement solver has no stopping tolerance")
    monkeypatch.setattr(urllc_placement, "_REL_TOL", 1e-7)
    metrics, fps = proposed
    loose = run_cli(tmp_path, "proposed", ["--sweep", "p", "--values", "0.1,0.5"])
    assert bench_checks.fingerprints(tmp_path) != fps  # the bytes did change
    for tag, expected in metrics.items():
        assert bench_checks.compare_to_reference(loose[tag], bench_checks.reference_entry(expected)) == []


@pytest.mark.parametrize("other", ["baseline1", "baseline2"])
def test_swapped_policy_fails(proposed, tmp_path, other):
    metrics, _ = proposed
    swapped = run_cli(tmp_path, other, ["--sweep", "p", "--values", "0.1,0.5"])
    for idx in range(2):
        expected = bench_checks.reference_entry(metrics[f"proposed_p{idx}"])
        assert bench_checks.compare_to_reference(swapped[f"{other}_p{idx}"], expected)


def test_invariants_hold_and_catch_damage(proposed):
    metrics, _ = proposed
    good = metrics["proposed_p0"]
    assert bench_checks.check_metrics(good, SLOTS, 7, 10) == []
    assert bench_checks.check_metrics(dict(good, embb_reliability=1.5), SLOTS, 7, 10)
    assert bench_checks.check_metrics(good, SLOTS + 1, 7, 10)
    assert bench_checks.compare_to_reference(dict(good, n_infeasible_slots=1), bench_checks.reference_entry(good))


def test_reference_covers_every_workload_and_seed():
    reference = json.loads(REFERENCE_FILE.read_text())
    for wl in WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            entries = reference[wl.name][str(seed)]
            assert sorted(entries) == sorted(wl.tags)
            for entry in entries.values():
                assert set(bench_checks.TOLERANCES) | {"sha256"} == set(entry)


def traced_counts(tmp_path: Path, call_sites=bench_tracer.CALL_SITES):
    tracer = bench_tracer.Tracer(call_sites)
    with tracer.installed(), tracer.span("cli.main"):
        run_cli(tmp_path, "proposed")
    return tracer, bench_tracer.counts_of(tracer.spans, bench_checks.bytes_written(tmp_path))


def test_traced_counts_repeat_exactly(tmp_path):
    _, first = traced_counts(tmp_path / "a")
    tracer, second = traced_counts(tmp_path / "b")
    assert first == second
    assert first["calls"]["alternating.run"] == SLOTS
    assert all(isinstance(i, int) for i in first["placement_iterations"])
    metrics = bench_tracer.layer_metrics(tracer.spans, second)
    # baseline2 never runs under the proposed policy: zero calls, no failure
    assert metrics["urllc_placement.baseline2_us.p50"] == (0.0, "us")
    assert metrics["alternating.calls"] == (SLOTS, "count")


def test_missing_call_site_is_skipped(tmp_path):
    sites = [*bench_tracer.CALL_SITES, ("urllc_slice.simulator", "no_such_function", "x.y", None)]
    sites.append(("urllc_slice.no_such_module", "f", "x.z", None))
    tracer, counts = traced_counts(tmp_path, sites)
    assert tracer.missing == ["urllc_slice.simulator.no_such_function", "urllc_slice.no_such_module.f"]
    assert "x.y" not in counts["calls"]
    assert not hasattr(simulator, "no_such_function")
    assert not hasattr(simulator.run_simulation, "__wrapped__")  # originals restored


def test_self_time_subtracts_children():
    spans = [
        bench_tracer.Span(0, None, "a", 0.0, 10.0),
        bench_tracer.Span(1, 0, "b", 1.0, 4.0),
        bench_tracer.Span(2, 1, "c", 2.0, 3.0),
    ]
    assert bench_tracer.self_seconds(spans, "a") == [7.0]
    assert bench_tracer.self_seconds(spans, "b") == [2.0]
    assert bench_tracer.pct([], 50) == 0.0
    assert bench_tracer.pct([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_cell_runs_make_at_least_one_and_cycle_the_cells():
    bench = object.__new__(Bench)
    bench.cells = [1, 2, 3]
    assert bench.cell_runs(0.0, lambda seed: seed, whole_passes=True) == [[1, 2, 3]]
    runs = bench.cell_runs(0.1, lambda seed: time.sleep(0.02) or seed, whole_passes=False)
    assert 1 <= len(runs) <= 6
    assert runs == [1, 2, 3, 1, 2, 3][: len(runs)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-default", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
