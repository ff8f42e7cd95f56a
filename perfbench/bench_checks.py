"""Output checks for the benchmark: invariants, reference comparison, fingerprints.

Every CLI invocation the benchmark makes is checked here. ``check_outputs``
applies the invariants that hold for any seed; ``compare_to_reference``
compares a run at a reference seed with the values stored in
``reference.json``. The tolerances accept a change at solver tolerance and
reject another policy's output. Measured over 100 slots at seed 7: loosening
the placement stopping tolerance from 1e-9 to 1e-7 moved the mean sum rate by
at most 2.2e-4 relative and the per-user puncturing by 8e-3 of its largest
entry (at p = 0.1, where the solver converges slowest); running a baseline
instead of the proposed policy moved the mean sum rate by 6.7 % or more and
the per-user puncturing by 0.64 of its largest entry or more.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# field -> (kind, tolerance); "exact", "abs" (absolute), "rel" (relative to
# the reference value), "vec" (max abs difference relative to the largest
# reference entry)
TOLERANCES = {
    "n_infeasible_slots": ("exact", 0),
    "embb_reliability": ("abs", 0.01),
    "urllc_outage_rate": ("abs", 0.02),
    "mean_sum_rate": ("rel", 1e-3),
    "sum_rate_cvar_upper": ("rel", 1e-3),
    "sum_rate_cvar_lower": ("rel", 1e-3),
    "per_user_mean_rate": ("vec", 1e-2),
    "per_user_mean_theta": ("vec", 5e-2),
}


def load_metrics(out_dir: Path) -> dict[str, dict]:
    """``metrics_<tag>.json`` files of one CLI invocation, keyed by tag."""
    return {
        p.name[len("metrics_") : -len(".json")]: json.loads(p.read_text())
        for p in sorted(out_dir.glob("metrics_*.json"))
    }


def fingerprints(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every metrics file, keyed by file name."""
    paths = sorted(out_dir.glob("metrics_*.json"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def reference_entry(metrics: dict) -> dict:
    """The fields of one metrics file that the reference keeps."""
    return {field: metrics[field] for field in TOLERANCES}


def _vec_error(actual, expected) -> float:
    if len(actual) != len(expected):
        return math.inf
    scale = max((abs(x) for x in expected), default=0.0) or 1.0
    return max((abs(a - e) for a, e in zip(actual, expected)), default=0.0) / scale


def compare_to_reference(metrics: dict, expected: dict) -> list[str]:
    """One line per field of ``metrics`` outside its tolerance of ``expected``."""
    bad = []
    for field, (kind, tol) in TOLERANCES.items():
        a, e = metrics.get(field), expected[field]
        if a is None:
            bad.append(f"{field}: missing")
            continue
        if kind == "exact":
            err = 0.0 if a == e else math.inf
        elif kind == "abs":
            err = abs(a - e)
        elif kind == "rel":
            err = abs(a - e) / abs(e) if e else abs(a)
        else:
            err = _vec_error(a, e)
        if not err <= tol:
            bad.append(f"{field}: {a!r} vs reference {e!r} (error {err:.3g} > {tol:g})")
    return bad


def check_metrics(metrics: dict, slots: int, seed: int, num_users: int) -> list[str]:
    """Invariants that every metrics file satisfies, whatever the seed."""
    bad = []
    if metrics.get("slots") != slots:
        bad.append(f"slots {metrics.get('slots')!r} != {slots}")
    if metrics.get("seed") != seed:
        bad.append(f"seed {metrics.get('seed')!r} != {seed}")
    for field in ("embb_reliability", "urllc_outage_rate"):
        if not 0.0 <= metrics[field] <= 1.0:
            bad.append(f"{field} {metrics[field]!r} outside [0, 1]")
    if not 0 <= metrics["n_infeasible_slots"] <= slots:
        bad.append(f"n_infeasible_slots {metrics['n_infeasible_slots']!r} outside [0, {slots}]")
    mean = metrics["mean_sum_rate"]
    if not (math.isfinite(mean) and mean > 0.0):
        bad.append(f"mean_sum_rate {mean!r} is not a positive number")
    slack = 1e-9 * abs(mean)
    if not metrics["sum_rate_cvar_lower"] - slack <= mean <= metrics["sum_rate_cvar_upper"] + slack:
        bad.append("mean_sum_rate lies outside its two tail means")
    probs = metrics["sum_rate_ecdf"]["cum_probs"]
    if not probs or abs(probs[-1] - 1.0) > 1e-12 or any(b < a for a, b in zip(probs, probs[1:])):
        bad.append("sum_rate_ecdf cum_probs is not a distribution function")
    for field in ("per_user_mean_rate", "per_user_mean_theta"):
        vec = metrics[field]
        if len(vec) != num_users or any(not (math.isfinite(x) and x >= 0.0) for x in vec):
            bad.append(f"{field} is not {num_users} finite non-negative values")
    return bad


def check_outputs(
    out_dir: Path, tags: list[str], extra_files: list[str], slots: int, seed: int, num_users: int
) -> list[str]:
    """Check the files of one CLI invocation: every expected file exists and
    every metrics file meets the invariants."""
    bad = []
    expected = {"comparison.csv", *extra_files}
    for tag in tags:
        expected |= {f"metrics_{tag}.json", f"ecdf_{tag}.csv", f"users_{tag}.csv"}
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if expected - present:
        bad.append(f"output files missing: {sorted(expected - present)}")
    rows = (out_dir / "comparison.csv").read_text().splitlines() if "comparison.csv" in present else []
    if len(rows) != len(tags) + 1:
        bad.append(f"comparison.csv has {len(rows)} lines, expected {len(tags) + 1}")
    metrics = load_metrics(out_dir)
    for tag in tags:
        if tag in metrics:
            bad += [f"{tag}: {b}" for b in check_metrics(metrics[tag], slots, seed, num_users)]
    return bad
