"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.installed()`` replaces each function named in ``CALL_SITES`` at the
module attribute that its caller looks up at call time, records one span per
call (name, start, end, parent span) and restores the originals on exit.
Nothing under ``src/`` is edited. Counts come from public return values:
``PlacementSolution.iterations`` and ``.feasible``, and the
``AlternationTrace`` of ``alternating.run``.

Call sites that no longer exist are skipped and report zero calls, so the
benchmark keeps working when a later change removes or merges a function.
Spans are only recorded in the calling process: trace with ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import time
from dataclasses import dataclass, field


def _placement_counts(result) -> dict:
    return {
        "iterations": getattr(result, "iterations", None),
        "feasible": getattr(result, "feasible", None),
    }


def _alternation_counts(result) -> dict:
    trace = result[2] if isinstance(result, tuple) and len(result) == 3 else None
    rounds = getattr(trace, "iterations", None)
    return {
        "rounds": len(rounds) if rounds is not None else None,
        "converged": getattr(trace, "converged", None),
        "reason": getattr(trace, "reason", None),
    }


# (module, attribute, span name, counts taken from the return value). The
# attribute is the one the caller resolves at call time: ``simulator`` and
# ``alternating`` bind their solver names at import, ``simulator`` reaches
# ``alternating.run`` through the module and imports the baselines inside the
# slot function, ``solve_baseline1`` calls ``solve_placement`` through its own
# module, and ``cli`` binds ``run_simulation`` and ``sweep`` at import.
CALL_SITES = [
    ("urllc_slice.cli", "run_simulation", "simulator.run_simulation", None),
    ("urllc_slice.cli", "sweep", "simulator.sweep", None),
    ("urllc_slice.simulator", "run_simulation", "simulator.run_simulation", None),
    ("urllc_slice.simulator", "sample_mean_snr", "model.sample_mean_snr", None),
    ("urllc_slice.simulator", "slot_rng", "model.slot_rng", None),
    ("urllc_slice.simulator", "sample_channel", "model.sample_channel", None),
    ("urllc_slice.simulator", "sample_urllc_load", "model.sample_urllc_load", None),
    ("urllc_slice.simulator", "evaluate_slot", "model.evaluate_slot", None),
    ("urllc_slice.simulator", "solve_fractional", "embb_scheduler.solve_fractional", None),
    ("urllc_slice.simulator", "round_to_binary", "embb_scheduler.round_to_binary", None),
    ("urllc_slice.simulator", "cvar_alpha", "risk.cvar_alpha", None),
    ("urllc_slice.simulator", "cvar_alpha_lower", "risk.cvar_alpha_lower", None),
    ("urllc_slice.alternating", "run", "alternating.run", _alternation_counts),
    ("urllc_slice.alternating", "solve_fractional", "embb_scheduler.solve_fractional", None),
    ("urllc_slice.alternating", "round_to_binary", "embb_scheduler.round_to_binary", None),
    ("urllc_slice.alternating", "solve_placement", "urllc_placement.solve_placement", _placement_counts),
    ("urllc_slice.alternating", "placement_objective", "urllc_placement.placement_objective", None),
    ("urllc_slice.urllc_placement", "solve_placement", "urllc_placement.solve_placement", _placement_counts),
    ("urllc_slice.urllc_placement", "solve_baseline1", "urllc_placement.solve_baseline1", _placement_counts),
    ("urllc_slice.urllc_placement", "solve_baseline2", "urllc_placement.solve_baseline2", _placement_counts),
]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory. Single-threaded: the open spans form a stack."""

    def __init__(self, call_sites=CALL_SITES):
        self.call_sites = call_sites
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def open(self, name: str) -> Span:
        span = Span(next(self._ids), self._stack[-1] if self._stack else None, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name, counts_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts_of is not None:
                span.counts = counts_of(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site that exists; restore all of them on exit."""
        restore = []
        self.missing = []
        try:
            for module_name, attr, name, counts_of in self.call_sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(fn, name, counts_of))
                restore.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(restore):
                setattr(module, attr, fn)


# -- per-layer metrics ---------------------------------------------------------

# Which end-to-end metric a change in each layer should move, and on which
# workload, written down before any optimisation is measured.
MOVES = {
    "model.": "slots_per_ref_s on both workloads once the solvers are closed-form (the draws become the floor)",
    "embb_scheduler.": "slots_per_ref_s and cpu_ref_ms_per_slot, most on wide-cell-trace",
    "urllc_placement.": "slots_per_ref_s, most on paper-default, little on wide-cell-trace",
    "alternating.": "slots_per_ref_s on every run of the proposed policy",
    "risk.": "peak_rss_mb and slots_per_ref_s once per-slot work is vectorised",
    "simulator.self_ms": "peak_rss_mb and slots_per_ref_s once per-slot work is vectorised",
    "simulator.pool_": "none of the sequential timed runs: the wall time of a user's run with --threads 2",
    "cli.": "slots_per_ref_s on wide-cell-trace",
    "trace.": "none: the cost of tracing itself",
}


def moves(metric: str) -> str:
    return next((text for prefix, text in MOVES.items() if metric.startswith(prefix)), "")


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _children(spans):
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_seconds(spans, name) -> list[float]:
    """Duration of each ``name`` span minus the time its direct children cover."""
    kids = _children(spans)
    return [s.seconds - sum(c.seconds for c in kids.get(s.id, [])) for s in _named(spans, name)]


def child_seconds(spans, name, child_names) -> list[float]:
    """For each ``name`` span, the time spent in its direct children named
    ``child_names``."""
    kids = _children(spans)
    return [
        sum(c.seconds for c in kids.get(s.id, []) if c.name in child_names)
        for s in _named(spans, name)
    ]


def sample_seconds(spans) -> list[float]:
    """Per-slot time of the random draws: the i-th ``slot_rng``,
    ``sample_channel`` and ``sample_urllc_load`` spans under one parent belong
    to slot i."""
    by_parent: dict[int | None, dict[str, list[float]]] = {}
    for s in spans:
        if s.name in ("model.slot_rng", "model.sample_channel", "model.sample_urllc_load"):
            by_parent.setdefault(s.parent, {}).setdefault(s.name, []).append(s.seconds)
    out = []
    for groups in by_parent.values():
        out += [sum(t) for t in itertools.zip_longest(*groups.values(), fillvalue=0.0)]
    return out


def pct(values, q) -> float:
    """Percentile with linear interpolation between order statistics (numpy's
    default); 0.0 when nothing was recorded."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def ms(seconds) -> list[float]:
    return [x * 1e3 for x in seconds]


def us(seconds) -> list[float]:
    return [x * 1e6 for x in seconds]


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def counts_of(spans, bytes_out: int) -> dict:
    """Exact work counts of one traced CLI invocation. These repeat exactly for
    the same seed and code, so two traced runs can be compared for equality."""
    calls = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    placement = _named(spans, "urllc_placement.solve_placement")
    alternation = _named(spans, "alternating.run")
    reasons: dict[str, int] = {}
    for s in alternation:
        reason = str(s.counts.get("reason"))
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "calls": dict(sorted(calls.items())),
        "placement_iterations": [s.counts.get("iterations") for s in placement],
        "placement_feasible": [s.counts.get("feasible") for s in placement],
        "alternation_rounds": [s.counts.get("rounds") for s in alternation],
        "alternation_converged": [s.counts.get("converged") for s in alternation],
        "alternation_reasons": dict(sorted(reasons.items())),
        "bytes_written": bytes_out,
    }


def layer_metrics(spans, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``. Timings come from the
    spans of every traced invocation of a run; counts, ratios and iteration
    percentiles from ``counts`` of one pass over the run's cells, so they
    repeat exactly. Times are per call, except the self times (per
    ``run_simulation`` or CLI call) and ``risk.cvar_ms`` (per
    ``run_simulation``)."""
    sample = us(sample_seconds(spans))
    evaluate = us(s.seconds for s in _named(spans, "model.evaluate_slot"))
    frac = ms(s.seconds for s in _named(spans, "embb_scheduler.solve_fractional"))
    rounding = ms(s.seconds for s in _named(spans, "embb_scheduler.round_to_binary"))
    placement = ms(s.seconds for s in _named(spans, "urllc_placement.solve_placement"))
    baseline2 = us(s.seconds for s in _named(spans, "urllc_placement.solve_baseline2"))
    alternation = ms(s.seconds for s in _named(spans, "alternating.run"))
    cvar = ms(child_seconds(spans, "simulator.run_simulation", ("risk.cvar_alpha", "risk.cvar_alpha_lower")))
    iterations = [i for i in counts["placement_iterations"] if i is not None]
    feasible = [f for f in counts["placement_feasible"] if f is not None]
    rounds = [r for r in counts["alternation_rounds"] if r is not None]
    converged = [c for c in counts["alternation_converged"] if c is not None]
    calls = counts["calls"]
    return {
        "model.sample_us.p50": (pct(sample, 50), "us"),
        "model.sample_us.p99": (pct(sample, 99), "us"),
        "model.evaluate_us.p50": (pct(evaluate, 50), "us"),
        "model.evaluate_us.p99": (pct(evaluate, 99), "us"),
        "embb_scheduler.solve_fractional_ms.p50": (pct(frac, 50), "ms"),
        "embb_scheduler.solve_fractional_ms.p99": (pct(frac, 99), "ms"),
        "embb_scheduler.round_to_binary_ms.p50": (pct(rounding, 50), "ms"),
        "embb_scheduler.round_to_binary_ms.p99": (pct(rounding, 99), "ms"),
        "embb_scheduler.calls": (calls.get("embb_scheduler.solve_fractional", 0), "count"),
        "urllc_placement.solve_ms.p50": (pct(placement, 50), "ms"),
        "urllc_placement.solve_ms.p99": (pct(placement, 99), "ms"),
        "urllc_placement.baseline2_us.p50": (pct(baseline2, 50), "us"),
        "urllc_placement.iterations.p50": (pct(iterations, 50), "count"),
        "urllc_placement.iterations.p99": (pct(iterations, 99), "count"),
        "urllc_placement.iterations.max": (max(iterations, default=0), "count"),
        "urllc_placement.iterations.total": (sum(iterations), "count"),
        "urllc_placement.feasible_ratio": (mean(feasible), "ratio"),
        "urllc_placement.calls": (calls.get("urllc_placement.solve_placement", 0), "count"),
        "alternating.run_ms.p50": (pct(alternation, 50), "ms"),
        "alternating.run_ms.p99": (pct(alternation, 99), "ms"),
        "alternating.rounds.mean": (mean(rounds), "count"),
        "alternating.converged_ratio": (mean(converged), "ratio"),
        "alternating.calls": (calls.get("alternating.run", 0), "count"),
        "risk.cvar_ms": (pct(cvar, 50), "ms"),
        "simulator.self_ms": (pct(ms(self_seconds(spans, "simulator.run_simulation")), 50), "ms"),
        "cli.self_ms": (pct(ms(self_seconds(spans, "cli.main")), 50), "ms"),
        "cli.bytes_written": (counts["bytes_written"], "B"),
    }
