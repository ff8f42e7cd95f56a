"""Benchmark of the urllc-slice command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-default --seed 7 --seconds 30 --trace 0

Each workload is a fixed ``urllc-slice run`` command line, called in-process
through ``urllc_slice.cli.main`` with an explicit ``--seed`` and
``--threads 1``. A run

1. times fresh interpreters that import the CLI and validate the workload
   config (``setup_s``, untraced runs only);
2. runs the workload at ``REFERENCE_SLOTS`` slots at the two reference seeds,
   7 (the default) and 20261 (held out: nothing was tuned on it), and
   compares the metrics files with ``reference.json``; these short calls also
   warm the interpreter up;
3. runs the workload's cells at its full slot count. Cell k runs the CLI with
   ``--seed`` + ``CELL_STRIDE`` * k. Every invocation is checked: exit code
   0, no ``error:`` line, the expected files, the invariants of
   ``bench_checks`` and the same metrics-file SHA-256 as the first invocation
   at that seed and slot count.

The slot counts are close to the CLI default of 1000 (paper-default runs
exactly that), so per-call costs weigh as little as in a user's run. Measured
at seed 7 on a 2-vCPU host: the CLI's own work, the mean-SNR draw and the
CVaR take 0.2 to 0.8 % of a 1000-slot call, and the pool runs the sweep 1.72
times faster than one worker, against 1.65 times at 20 slots. The CLI seed
also fixes every user's mean SNR, which sets how hard the solvers work, so a
run spreads its slots over several cells.

The timed runs are sequential. On that host, over ten runs each, the
throughput of the p sweep (0.1, 0.5, 0.9) moved by 27 % (quartile distance
over median) with two workers and by 23 % with one, more than any bound may
allow, so neither is a workload. The process pool is timed in the traced run
of paper-default instead (``simulator.pool_speedup``,
``simulator.pool_util``).

With ``--trace 0`` it makes complete passes over the cells while another
pass fits in ``--seconds`` (at least one) and reports the end-to-end metrics
of BENCHMARK.json as medians over passes. Their times are in reference
seconds: each call's wall and CPU time, and the set-up time, scaled by the
host's speed around it (``host_speed``), so a drifting host does not swamp a
change in the program. ``setup_s`` keeps the unit s: it is the set-up time
at the reference speed. It also prints the unscaled ``slots_per_s``,
``cpu_ms_per_slot`` and set-up time. With ``--trace 1`` it runs cells in
turn on the same rule (at least the first), each untraced and traced at
``--threads 1`` and, for paper-default, untraced with the pool, and
reports the per-layer metrics of ``bench_tracer``. Their work counts come
from the first cell alone, so they repeat exactly for a seed; a short call
traced twice must give identical counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, and 2 when the working directory
holds no ``src/urllc_slice``. ``--write-reference`` reruns every workload at
the reference seeds and rewrites ``reference.json``; use it only when a change
is meant to alter results, and say why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import bench_checks
import bench_tracer

DEFAULT_SEED = 7
HELD_OUT_SEED = 20261
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# OpenBLAS otherwise starts one thread per core in every pool worker.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Fixed rather than nproc so the workload is the same on every machine; two
# workers are what the pool was measured with.
POOL_WORKERS = 2
SETUP_REPEATS = 21
# Slots of the reference calls; the full-size cells are checked by invariants
# and by the fingerprints of repeated seeds.
REFERENCE_SLOTS = 20
CELL_STRIDE = 1000
WORK_DIR = ".perfbench_work"
# A calibration loop is timed before and after every timed call; see
# ``host_speed``. CAL_REF_PER_S is its speed on the host the bounds were set
# on, so one reference second is one second there.
CAL_LOOPS = 300
CAL_REF_PER_S = 1600.0

SETUP_CODE = """\
import contextlib, io, sys
from urllc_slice import cli
args = cli.build_parser().parse_args(sys.argv[1:])
config = ["--config", str(args.config)] if args.config else []
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(cli.main(["validate", *config]))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    slots: int
    cells: int
    config: dict | None = None
    cli_trace: bool = False
    pool_probe: bool = False  # the traced run also times the pool

    @property
    def tags(self) -> list[str]:
        return ["proposed", "baseline1", "baseline2"] if self.policy == "all" else [self.policy]

    @property
    def evaluations(self) -> int:
        """Slot x policy evaluations per invocation."""
        return self.slots * len(self.tags)

    @property
    def num_users(self) -> int:
        return (self.config or {}).get("num_embb_users", 10)

    @property
    def extra_files(self) -> list[str]:
        return ["trace_proposed.json"] if self.cli_trace else []

    def argv(self, seed: int, slots: int, threads: int, out: Path, config_path: Path | None) -> list[str]:
        argv = ["run", "--policy", self.policy, "--slots", str(slots), "--seed", str(seed)]
        argv += ["--threads", str(threads), "--out", str(out)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        if self.cli_trace:
            argv.append("--trace")
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-default", "all", slots=1000, cells=2, pool_probe=True),
        Workload(
            "wide-cell-trace",
            "proposed",
            slots=250,
            cells=3,
            config={"num_embb_users": 40, "num_rbs": 200},
            cli_trace=True,
        ),
    )
}


@dataclass
class Invocation:
    wall: float
    cpu: float
    child_cpu: float
    host_speed: float = CAL_REF_PER_S  # calibration loops per second around the call
    metrics: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    bytes_written: int = 0


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class Bench:
    """Runs one workload through the CLI and keeps the tally of checks."""

    def __init__(self, cli, workload: Workload, root: Path, work: Path, seed: int):
        self.cli = cli
        self.wl = workload
        self.root = root
        self.work = work
        self.cells = [seed + CELL_STRIDE * k for k in range(workload.cells)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seed_fingerprints: dict[tuple[int, int], dict] = {}  # keyed by (seed, slots)
        self._n = 0
        self.config_path = None
        if workload.config is not None:
            self.config_path = work / "config.json"
            self.config_path.write_text(json.dumps(workload.config))

    def _tally(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def invoke(self, seed: int, threads: int, tracer=None, check=None, slots=None) -> Invocation:
        """One checked CLI invocation, at the workload's slot count unless
        ``slots`` is given; its outputs are removed afterwards.

        ``check(inv)`` may return further problems, which fail this run.
        """
        self._n += 1
        slots = slots or self.wl.slots
        out = self.work / f"out{self._n}"
        argv = self.wl.argv(seed, slots, threads, out, self.config_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        child_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.installed(), tracer.span("cli.main"):
                        code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - a crash is a failed run, not a crashed benchmark
                code = None
                problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
        wall = time.perf_counter() - t0
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        child_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        child_cpu = _cpu(child_1) - _cpu(child_0)
        inv = Invocation(wall, _cpu(self_1) - _cpu(self_0) + child_cpu, child_cpu)

        if code != 0:
            problems.append(f"exit code {code!r}")
        problems += [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        try:
            problems += bench_checks.check_outputs(
                out, self.wl.tags, self.wl.extra_files, slots, seed, self.wl.num_users
            )
            inv.metrics = bench_checks.load_metrics(out)
            inv.fingerprints = bench_checks.fingerprints(out)
            inv.bytes_written = bench_checks.bytes_written(out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable outputs: {exc!r}")
        first = self.seed_fingerprints.setdefault((seed, slots), inv.fingerprints)
        if inv.fingerprints != first:
            problems.append("metrics files differ from the first run at this seed")
        shutil.rmtree(out, ignore_errors=True)
        if check is not None:
            problems += check(inv)
        self._tally(f"run {self._n} (seed {seed}, slots {slots}, threads {threads})", problems)
        return inv

    def check_references(self, reference: dict) -> None:
        """Run at each reference seed and compare with the stored metrics."""

        def against(expected):
            def check(inv):
                if expected is None:
                    return ["no reference stored for this seed"]
                bad = []
                for tag in self.wl.tags:
                    if tag not in inv.metrics or tag not in expected:
                        bad.append(f"{tag}: missing")
                    else:
                        errors = bench_checks.compare_to_reference(inv.metrics[tag], expected[tag])
                        bad += [f"{tag}: {e}" for e in errors]
                return bad

            return check

        for seed in REFERENCE_SEEDS:
            expected = reference.get(self.wl.name, {}).get(str(seed))
            self.invoke(seed, 1, check=against(expected), slots=REFERENCE_SLOTS)

    def measure_setup(self) -> float:
        """Median wall time of a fresh interpreter that imports the CLI, parses
        the workload's arguments and validates its config; the first, which
        may compile bytecode, is not counted."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        argv = self.wl.argv(self.cells[0], self.wl.slots, 1, self.work / "setup", self.config_path)
        times = []
        for _ in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, *argv],
                cwd=self.root,
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            times.append(time.perf_counter() - t0)
            bad = proc.returncode != 0 or "error:" in proc.stderr
            self._tally("setup", [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"] if bad else [])
        return statistics.median(times[1:])

    def cell_runs(self, seconds: float, run_cell, whole_passes: bool) -> list:
        """``run_cell`` over the cells in turn. It starts another pass over
        every cell (or, if not ``whole_passes``, the next cell) while one more
        is expected to end within ``seconds``; it makes at least one."""
        done = []
        t0 = time.perf_counter()
        for k in itertools.count():
            elapsed = time.perf_counter() - t0
            if done and elapsed * (len(done) + 1) / len(done) > seconds:
                return done
            if whole_passes:
                done.append([run_cell(seed) for seed in self.cells])
            else:
                done.append(run_cell(self.cells[k % len(self.cells)]))


def host_speed(np) -> float:
    """Calibration loops per second, now. A loop is the program's mix of
    interpreted arithmetic and small matrix products.

    On a 2-vCPU host the speed of a fixed single-threaded loop drifted
    between 0.8 and 1.4 times its median over minutes. Over ten runs of each
    workload, the quartile distance of the unscaled throughput was 0.29
    (paper-default) and 0.18 (wide-cell-trace) of its median, and 0.11 and
    0.10 once scaled by this loop."""
    a = np.linspace(0.0, 1.0, 3600).reshape(60, 60)
    t0 = time.perf_counter()
    for _ in range(CAL_LOOPS):
        total = 0
        for i in range(5000):
            total += i * i
        for _ in range(10):
            a @ a
    return CAL_LOOPS / (time.perf_counter() - t0)


def end_to_end(bench: Bench, seconds: float, np) -> dict:
    speeds = [host_speed(np)]
    setup = bench.measure_setup()
    speeds.append(host_speed(np))
    setup_speed = (speeds[0] + speeds[1]) / 2

    def run_cell(seed) -> Invocation:
        inv = bench.invoke(seed, 1)
        speeds.append(host_speed(np))
        inv.host_speed = (speeds[-2] + speeds[-1]) / 2
        return inv

    passes = bench.cell_runs(seconds, run_cell, whole_passes=True)
    n = bench.wl.evaluations * len(bench.cells)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    def ref(t, inv):
        """``t`` seconds of ``inv`` in reference seconds."""
        return t * inv.host_speed / CAL_REF_PER_S

    print(f"timed passes {len(passes)} x {len(bench.cells)} cells x {bench.wl.evaluations} slot evaluations")
    print(f"host speed {min(speeds):.1f} to {max(speeds):.1f} calibration loops/s (reference {CAL_REF_PER_S})")
    print(f"setup {setup!r} s unscaled")
    for i, p in enumerate(passes):
        print(f"pass {i}: slots_per_s {n / sum(r.wall for r in p)!r} 1/s, cpu_ms_per_slot {sum(r.cpu for r in p) * 1e3 / n!r} ms")
    return {
        "slots_per_ref_s": (statistics.median(n / sum(ref(r.wall, r) for r in p) for p in passes), "1/ref_s"),
        "cpu_ref_ms_per_slot": (statistics.median(sum(ref(r.cpu, r) for r in p) * 1e3 / n for p in passes), "ref_ms"),
        "setup_s": (setup * setup_speed / CAL_REF_PER_S, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


class CellRun(NamedTuple):
    untraced: Invocation
    traced: Invocation
    pooled: Invocation | None
    span_end: int  # len(tracer.spans) after the traced invocation


def per_layer(bench: Bench, seconds: float) -> dict:
    first_counts: dict[tuple, dict] = {}

    def run_traced(tracer, seed, slots=None) -> Invocation:
        """A traced call whose work counts must equal those of the first
        traced call with the same seed and slots."""
        start = len(tracer.spans)

        def same_counts(inv):
            counts = bench_tracer.counts_of(tracer.spans[start:], inv.bytes_written)
            first = first_counts.setdefault((seed, slots), counts)
            return [] if counts == first else ["work counts differ from the first traced run"]

        return bench.invoke(seed, 1, tracer, check=same_counts, slots=slots)

    short = bench_tracer.Tracer()
    for _ in range(2):
        run_traced(short, bench.cells[0], REFERENCE_SLOTS)

    tracer = bench_tracer.Tracer()

    def run_cell(seed) -> CellRun:
        untraced = bench.invoke(seed, 1)
        traced = run_traced(tracer, seed)
        pooled = bench.invoke(seed, POOL_WORKERS) if bench.wl.pool_probe else None
        return CellRun(untraced, traced, pooled, len(tracer.spans))

    cells = bench.cell_runs(seconds, run_cell, whole_passes=False)
    first = cells[0]
    counts = bench_tracer.counts_of(tracer.spans[: first.span_end], first.traced.bytes_written)
    metrics = bench_tracer.layer_metrics(tracer.spans, counts)
    pooled = [c for c in cells if c.pooled]
    pool_util = sum(c.pooled.child_cpu for c in pooled) / (POOL_WORKERS * sum(c.pooled.wall for c in pooled) or 1)
    pool_speedup = sum(c.untraced.wall for c in pooled) / (sum(c.pooled.wall for c in pooled) or 1)
    overhead = sum(c.traced.wall for c in cells) / sum(c.untraced.wall for c in cells)
    metrics["simulator.pool_speedup"] = (pool_speedup, "ratio")
    metrics["simulator.pool_util"] = (pool_util, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"traced cells {len(cells)} x {bench.wl.evaluations} slot evaluations; spans {len(tracer.spans)}")
    if tracer.missing:
        print("call sites not found (reported as 0 calls): " + ", ".join(tracer.missing))
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    print(f"work counts of the first cell sha256={digest}")
    print(f"calls {json.dumps(counts['calls'])}")
    print(f"alternation stop reasons {json.dumps(counts['alternation_reasons'])}")
    return metrics


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(root: Path, np, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
        "env": PINNED_ENV,
    }


def load_program(root: Path):
    """Pin the environment, then import the CLI from ``root/src``."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("URLLC_SLICE_SEED", None)
    src = root / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("urllc_slice.cli")
    if Path(cli.__file__).resolve().parent != (src / "urllc_slice").resolve():
        raise ImportError(f"urllc_slice was imported from {cli.__file__}, not from {src}")
    return cli, importlib.import_module("numpy")


def write_reference(cli, root: Path, work: Path) -> None:
    reference = {}
    for wl in WORKLOADS.values():
        bench = Bench(cli, wl, root, work, DEFAULT_SEED)
        for seed in REFERENCE_SEEDS:
            inv = bench.invoke(seed, 1, slots=REFERENCE_SLOTS)
            if bench.problems:
                raise SystemExit("error: " + "; ".join(bench.problems))
            reference.setdefault(wl.name, {})[str(seed)] = {
                tag: {
                    **bench_checks.reference_entry(inv.metrics[tag]),
                    "sha256": inv.fingerprints[f"metrics_{tag}.json"],
                }
                for tag in wl.tags
            }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "urllc_slice" / "cli.py").is_file():
        print(f"error: no src/urllc_slice/cli.py under {root}; run from the repo root", file=sys.stderr)
        return 2
    try:
        cli, np = load_program(root)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / WORK_DIR))
    try:
        if args.write_reference:
            write_reference(cli, root, work)
            return 0
        wl = WORKLOADS[args.workload]
        print("provenance " + json.dumps(provenance(root, np, args.seed), sort_keys=True))
        bench = Bench(cli, wl, root, work, args.seed)
        reference = json.loads(REFERENCE_FILE.read_text())
        bench.check_references(reference)
        metrics = per_layer(bench, args.seconds) if args.trace else end_to_end(bench, args.seconds, np)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    for seed in REFERENCE_SEEDS:
        stored = reference.get(wl.name, {}).get(str(seed), {})
        for name, sha in bench.seed_fingerprints.get((seed, REFERENCE_SLOTS), {}).items():
            ref_sha = stored.get(name[len("metrics_") : -len(".json")], {}).get("sha256")
            same = "matches" if ref_sha == sha else "differs from"
            print(f"fingerprint seed={seed} {name} sha256={sha} ({same} reference)")
    cells = json.dumps([bench.seed_fingerprints.get((seed, wl.slots)) for seed in bench.cells], sort_keys=True)
    print(f"fingerprint of every cell's metrics files sha256={hashlib.sha256(cells.encode()).hexdigest()}")
    for problem in bench.problems:
        print("check failed: " + problem)
    failed = bench.failed
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f"  -> {bench_tracer.moves(name)}" if args.trace else ""))
    print(f"error_rate {failed / bench.attempted!r} ratio ({failed}/{bench.attempted} runs failed)")
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
