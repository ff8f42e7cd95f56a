"""Command line front end: experiment orchestration and file output.

Exit codes: 0 on success, 1 on configuration problems (a ``ConfigError``
or a flag argparse cannot parse), 2 on I/O failures, 3 on internal failures
(any other exception a run raises, a plain ``ValueError`` among them,
reported as ``error: internal <Type>: <message>`` without a traceback).
Every error goes to stderr with a machine-parsable ``error:`` prefix.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import fields
from itertools import chain
from pathlib import Path

from .json_writer import _csv, _trace_pieces, _TraceRecords
from .model import ConfigError, SystemConfig
from .simulator import (  # noqa: F401  (perfbench's tracer wraps run_simulation and sweep here)
    Policy,
    RunMetrics,
    run_simulation,
    run_simulations,
    sweep,
    sweep_configs,
)

logger = logging.getLogger(__name__)

_COMPARISON_COLUMNS = [
    "policy",
    "sweep_param",
    "sweep_value",
    "puncture_prob",
    "urllc_outage_budget",
    "risk_weight",
    "slots",
    "seed",
    "embb_reliability",
    "urllc_outage_rate",
    "mean_sum_rate",
    "sum_rate_cvar_upper",
    "sum_rate_cvar_lower",
    "n_infeasible_slots",
]


def _env_seed() -> int:
    """The seed given by ``URLLC_SLICE_SEED``, or 0 when it is unset."""
    env = os.environ.get("URLLC_SLICE_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ConfigError(f"URLLC_SLICE_SEED must be a non-negative integer, got {env!r}")
    return seed


class _UsageError(Exception):
    """A command line argparse cannot parse; reported as a config error."""


class _Parser(argparse.ArgumentParser):
    # argparse would print its usage and exit 2, the I/O failure code
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="urllc-slice",
        description="Risk-sensitive eMBB/URLLC downlink slicing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one or more policies, write JSON/CSV")
    run.add_argument("--config", type=Path, default=None, help="JSON config file")
    run.add_argument(
        "--policy",
        choices=["proposed", "baseline1", "baseline2", "all"],
        default="proposed",
    )
    run.add_argument("--slots", type=int, default=1000)
    run.add_argument("--seed", type=int, default=None, help="default: $URLLC_SLICE_SEED, else 0")
    run.add_argument("--sweep", choices=["p", "epsilon", "beta"], default=None)
    run.add_argument("--values", default=None, help="comma-separated sweep values")
    run.add_argument("--out", type=Path, default=Path("out"))
    run.add_argument("--trace", action="store_true", help="dump per-slot alternation traces")
    run.add_argument("--post-round", action="store_true", help="round RBs after convergence")
    run.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect")

    val = sub.add_parser("validate", help="check a config without simulating")
    val.add_argument("--config", type=Path, default=None, help="JSON config file")
    return parser


def _load_config(path: Path | None) -> SystemConfig:
    if path is None:
        return SystemConfig()
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return SystemConfig.from_json(text)


def _config_error(message: object) -> int:
    """Print a configuration failure under the ``error: config`` prefix, once
    even when the message itself starts with "config", and return exit code 1."""
    print(f"error: config {str(message).removeprefix('config ')}", file=sys.stderr)
    return 1


def _write(path: Path, text) -> None:
    """Write ``text``, a string or an iterable of strings written in turn."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _emit_run(out: Path, tag: str, metrics: RunMetrics) -> None:
    _write(out / f"metrics_{tag}.json", metrics.to_json() + "\n")
    _write(out / f"ecdf_{tag}.csv", metrics.ecdf_csv())
    _write(out / f"users_{tag}.csv", metrics.per_user_csv())


def _comparison_row(metrics: RunMetrics, sweep_param: str | None, sweep_value) -> list:
    """The ``_COMPARISON_COLUMNS`` cells of one run: str- and int-typed fields
    as they are, every other number as a float, which ``_csv`` writes by ``_fmt``."""
    kinds = {f.name: f.type for f in fields(RunMetrics)}
    cells = {
        "sweep_param": sweep_param or "",
        "sweep_value": "" if sweep_value is None else float(sweep_value),
    }
    for name in _COMPARISON_COLUMNS:
        if name not in cells:
            value = getattr(metrics, name)
            cells[name] = value if kinds[name] in ("str", "int") else float(value)
    return [cells[name] for name in _COMPARISON_COLUMNS]


def _summary_line(metrics: RunMetrics) -> str:
    return (
        f"policy={metrics.policy} p={metrics.puncture_prob:g} "
        f"eps={metrics.urllc_outage_budget:g} "
        f"reliability={metrics.embb_reliability:.4f} "
        f"outage={metrics.urllc_outage_rate:.4f} "
        f"mean_sum_rate={metrics.mean_sum_rate:.6g}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
        seed = _env_seed() if args.seed is None else args.seed
    except ConfigError as exc:
        return _config_error(exc)
    if args.slots < 1:
        return _config_error("--slots must be >= 1")
    if args.threads < 1:
        return _config_error("--threads must be >= 1")
    if seed < 0:
        return _config_error(f"--seed must be >= 0, got {seed}")
    if (args.sweep is None) != (args.values is None):
        return _config_error("--sweep and --values must be given together")
    if args.trace and args.sweep is not None:
        return _config_error("--trace requires a non-sweep run")
    if args.trace and args.policy not in ("proposed", "all"):
        return _config_error("--trace requires --policy proposed or all")

    policies = (
        [Policy.PROPOSED, Policy.BASELINE1, Policy.BASELINE2]
        if args.policy == "all"
        else [Policy(args.policy)]
    )
    values = None
    if args.sweep is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            return _config_error(f"cannot parse --values {args.values!r}")
        if not values:
            return _config_error("--values is empty")

    try:
        # (tag, sweep value, config, policy) of every run, policy by policy
        if values is None:
            runs = [(policy.value, None, cfg, policy) for policy in policies]
        else:
            cfgs = sweep_configs(cfg, args.sweep, values)
            runs = [
                (f"{policy.value}_{args.sweep}{idx}", value, swept, policy)
                for policy in policies
                for idx, (value, swept) in enumerate(zip(values, cfgs))
            ]
        sinks = [_TraceRecords() if args.trace and policy == Policy.PROPOSED else None for *_, policy in runs]
        results = run_simulations(
            [(swept, policy) for _, _, swept, policy in runs],
            args.slots,
            seed,
            workers=args.threads,
            post_round=args.post_round,
            trace_sinks=sinks,
        )
        rows = []
        for (tag, value, _, policy), metrics, sink in zip(runs, results, sinks):
            _emit_run(args.out, tag, metrics)
            print(_summary_line(metrics))
            rows.append(_comparison_row(metrics, args.sweep, value))
            if sink is not None:
                _write(args.out / f"trace_{policy.value}.json", chain(_trace_pieces(sink), ["\n"]))
        _write(args.out / "comparison.csv", _csv(_COMPARISON_COLUMNS, rows))
    except ConfigError as exc:
        return _config_error(exc)
    except IOError as exc:
        print(f"error: io {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a solver or writer fault, not the user's input
        logger.debug("internal failure", exc_info=True)
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        # from_dict joins every violation into this one message
        return _config_error(exc)

    # Feasibility probe of the reliability floor at full puncturing, with each
    # user at its expected linear SNR and bandwidth split evenly.
    if cfg.puncture_prob > 0:
        lo, hi = cfg.snr_min_db / 10.0, cfg.snr_max_db / 10.0
        try:
            if hi > lo:
                mean_snr = (10.0**hi - 10.0**lo) / ((hi - lo) * math.log(10.0))
            else:
                mean_snr = 10.0**lo
        except OverflowError:  # an SNR beyond the float range reaches any floor
            mean_snr = math.inf
        eff = math.log2(1.0 + mean_snr)
        best = cfg.total_bandwidth() * cfg.expected_load_fraction() * eff
        if best < cfg.markov_rate_floor():
            print(
                "warning: infeasible-at-expectation full puncturing reaches "
                f"{best:.6g} bit/s mean URLLC rate but the outage budget needs "
                f"{cfg.markov_rate_floor():.6g} bit/s"
            )
    print("config ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        # an unrecognized argument is quoted as given, line breaks included
        message = str(exc)
        return _config_error(message if message.isprintable() else repr(message)[1:-1])
    if args.command == "run":
        return cmd_run(args)
    if args.command == "validate":
        return cmd_validate(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
