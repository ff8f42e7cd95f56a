"""Command line front end: experiment orchestration and file output.

Exit codes: 0 on success, 1 on configuration problems, 2 on I/O failures.
Every error goes to stderr with a machine-parsable ``error:`` prefix.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import struct
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .model import ConfigError, SystemConfig
from .simulator import Policy, RunMetrics, run_simulation, sweep

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


def _default_seed() -> int:
    env = os.environ.get("URLLC_SLICE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    run.add_argument("--seed", type=int, default=_default_seed())
    run.add_argument("--sweep", choices=["p", "epsilon", "beta"], default=None)
    run.add_argument("--values", default=None, help="comma-separated sweep values")
    run.add_argument("--out", type=Path, default=Path("out"))
    run.add_argument("--trace", action="store_true", help="dump per-slot alternation traces")
    run.add_argument("--post-round", action="store_true", help="round RBs after convergence")
    run.add_argument("--threads", type=int, default=os.cpu_count() or 1)

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


_encode_flat = json.JSONEncoder(sort_keys=True).encode
_NUMBER_TYPES = {int, float}
# Distinct (float list, indentation) pairs whose text is kept; a trace repeats
# a slot's weights in its second entry and user_bandwidth across slots.
_FLOAT_LIST_CACHE_SIZE = 64


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# What json writes for a scalar of exactly these types; any other type goes
# through the flat encoder, which also raises json's errors.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: ("false", "true").__getitem__,
    type(None): lambda x: "null",
}


@functools.lru_cache(maxsize=_FLOAT_LIST_CACHE_SIZE)
def _float_list_text(packed: bytes, separator: str) -> str:
    floats = struct.unpack(f"{len(packed) // 8}d", packed)
    return _encode_flat(floats)[1:-1].replace(", ", separator)


def _json_indented(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)`` for acyclic data.

    ``indent`` switches ``json`` to its pure-Python encoder, which is slow on
    the long float lists of a trace. Here the dict and list layout is built in
    Python, and scalars are written by type as json writes them. A list of
    plain ints and floats goes through the C encoder of a flat
    ``JSONEncoder`` in one call; a number never contains ``", "``, so
    replacing it in the flat encoding lays the items out. Lists of floats
    alone are memoized on their exact bits (``-0.0`` and ``0.0`` differ,
    ``1`` and ``1.0`` never share a key). ``newline`` is the line break plus
    the indentation of the current depth. Dicts with non-string keys fall
    back to ``json.dumps``, re-indented (encoded strings hold no raw line
    breaks).
    """
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)
        # scalar values are written here rather than through a call each
        body = ("," + inner).join(
            [
                encode_basestring_ascii(k)
                + ": "
                + (_SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT else _json_indented(v, inner))
                for k, v in sorted(obj.items())
            ]
        )
        return "{" + inner + body + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types == {float}:
            body = _float_list_text(struct.pack(f"{len(obj)}d", *obj), "," + inner)
        elif types <= _NUMBER_TYPES:
            body = _encode_flat(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join([_json_indented(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    return _encode_flat(obj)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _emit_run(out: Path, tag: str, metrics: RunMetrics) -> None:
    _write(out / f"metrics_{tag}.json", metrics.to_json() + "\n")
    _write(out / f"ecdf_{tag}.csv", metrics.ecdf_csv())
    _write(out / f"users_{tag}.csv", metrics.per_user_csv())


def _comparison_row(metrics: RunMetrics, sweep_param: str | None, sweep_value) -> str:
    cells = [
        metrics.policy,
        sweep_param or "",
        "" if sweep_value is None else _fmt(sweep_value),
        _fmt(metrics.puncture_prob),
        _fmt(metrics.urllc_outage_budget),
        _fmt(metrics.risk_weight),
        str(metrics.slots),
        str(metrics.seed),
        _fmt(metrics.embb_reliability),
        _fmt(metrics.urllc_outage_rate),
        _fmt(metrics.mean_sum_rate),
        _fmt(metrics.sum_rate_cvar_upper),
        _fmt(metrics.sum_rate_cvar_lower),
        str(metrics.n_infeasible_slots),
    ]
    return ",".join(cells)


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
    except ConfigError as exc:
        return _config_error(exc)
    if args.slots < 1:
        return _config_error("--slots must be >= 1")
    if args.threads < 1:
        return _config_error("--threads must be >= 1")
    if (args.sweep is None) != (args.values is None):
        return _config_error("--sweep and --values must be given together")
    if args.trace and args.sweep is not None:
        return _config_error("--trace requires a non-sweep run")

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

    rows = []
    try:
        for policy in policies:
            trace_sink = [] if (args.trace and policy == Policy.PROPOSED) else None
            if values is None:
                metrics = run_simulation(
                    cfg,
                    policy,
                    args.slots,
                    args.seed,
                    workers=1 if trace_sink is not None else args.threads,
                    post_round=args.post_round,
                    trace_sink=trace_sink,
                )
                _emit_run(args.out, policy.value, metrics)
                print(_summary_line(metrics))
                rows.append(_comparison_row(metrics, None, None))
            else:
                results = sweep(
                    cfg,
                    policy,
                    args.sweep,
                    values,
                    args.slots,
                    args.seed,
                    workers=args.threads,
                    post_round=args.post_round,
                )
                for idx, metrics in enumerate(results):
                    _emit_run(args.out, f"{policy.value}_{args.sweep}{idx}", metrics)
                    print(_summary_line(metrics))
                    rows.append(_comparison_row(metrics, args.sweep, values[idx]))
            if trace_sink is not None:
                _write(
                    args.out / f"trace_{policy.value}.json",
                    _json_indented(trace_sink) + "\n",
                )
    except ValueError as exc:
        return _config_error(exc)
    except IOError as exc:
        print(f"error: io {exc}", file=sys.stderr)
        return 2

    try:
        _write(
            args.out / "comparison.csv",
            ",".join(_COMPARISON_COLUMNS) + "\n" + "\n".join(rows) + "\n",
        )
    except IOError as exc:
        print(f"error: io {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        # surface itemized violations if the config parsed but failed checks
        return _config_error(exc)
    violations = cfg.validate()
    if violations:
        for v in violations:
            _config_error(v)
        return 1

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
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "validate":
        return cmd_validate(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
