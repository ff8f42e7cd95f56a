"""Monte Carlo slot loop: draw channels and traffic, run a policy, aggregate.

All three policies of a comparison see identical per-slot random draws
(common random numbers): every random stream is derived deterministically
from ``(seed, slot_index)``, and per-user mean SNRs from ``(seed,)`` alone,
so runs are reproducible bit for bit and curves across parameter sweeps are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import alternating, urllc_placement
from .embb_scheduler import round_to_binary, solve_fractional
from .json_writer import _json_indented
from .model import (
    ChannelRealization,
    SystemConfig,
    evaluate_slot,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
)
from .risk import EmpiricalDistribution, cvar_alpha, cvar_alpha_lower

_MEANS_STREAM = 0
_SLOT_STREAM = 1


class Policy(str, Enum):
    PROPOSED = "proposed"
    BASELINE1 = "baseline1"
    BASELINE2 = "baseline2"


@dataclass
class RunMetrics:
    """Aggregated outcome of one simulation run."""

    policy: str
    slots: int
    seed: int
    puncture_prob: float
    urllc_outage_budget: float
    risk_weight: float
    embb_reliability: float
    urllc_outage_rate: float
    mean_sum_rate: float
    sum_rate_cvar_upper: float
    sum_rate_cvar_lower: float
    ecdf_values: np.ndarray
    ecdf_probs: np.ndarray
    per_user_mean_rate: np.ndarray
    per_user_mean_theta: np.ndarray
    n_infeasible_slots: int

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        out["sum_rate_ecdf"] = {"values": out.pop("ecdf_values"), "cum_probs": out.pop("ecdf_probs")}
        return out

    def to_json(self) -> str:
        return _json_indented(self.to_dict())

    def ecdf_csv(self) -> str:
        lines = ["value,cum_prob"]
        lines += [f"{v!r},{p!r}" for v, p in zip(self.ecdf_values, self.ecdf_probs)]
        return "\n".join(lines) + "\n"

    def per_user_csv(self) -> str:
        lines = ["user,mean_rate,mean_theta"]
        lines += [
            f"{u},{r!r},{t!r}"
            for u, (r, t) in enumerate(zip(self.per_user_mean_rate, self.per_user_mean_theta))
        ]
        return "\n".join(lines) + "\n"


def slot_rng(seed: int, slot: int) -> np.random.Generator:
    """Independent stream for one slot, identical across policies and sweeps."""
    return np.random.default_rng(np.random.SeedSequence((seed, _SLOT_STREAM, slot)))


def mean_snr_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _MEANS_STREAM)))


def _simulate_slot(cfg, policy, means, seed, slot, post_round, trace_sink):
    rng = slot_rng(seed, slot)
    chan = sample_channel(cfg, means[0], means[1], rng)
    load = sample_urllc_load(cfg, rng)
    if policy == Policy.PROPOSED:
        binary, placement, trace = alternating.run(cfg, chan, post_round=post_round)
        if trace_sink is not None:
            trace_sink.append({"slot": slot, **trace.to_dict()})
    else:
        frac = solve_fractional(cfg, chan, weights=None)
        binary = round_to_binary(frac, cfg)
        if policy == Policy.BASELINE1:
            placement = urllc_placement.solve_baseline1(cfg, chan, binary)
        else:
            placement = urllc_placement.solve_baseline2(cfg, chan, binary)
    outcome = evaluate_slot(cfg, chan, binary, placement.weights, load)
    return outcome, placement.feasible


def _simulate_range(cfg, policy, seed, start, stop, post_round, trace_sink=None):
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    rates = np.empty((stop - start, cfg.num_embb_users))
    thetas = np.empty_like(rates)
    outages = np.empty(stop - start, dtype=bool)
    feasible = np.empty(stop - start, dtype=bool)
    for i, slot in enumerate(range(start, stop)):
        outcome, ok = _simulate_slot(cfg, policy, means, seed, slot, post_round, trace_sink)
        rates[i] = outcome.embb_rate_per_user
        thetas[i] = outcome.punctured_bw
        outages[i] = outcome.outage
        feasible[i] = ok
    return rates, thetas, outages, feasible


def run_simulation(
    cfg: SystemConfig,
    policy: Policy | str,
    num_slots: int,
    seed: int,
    workers: int = 1,
    post_round: bool = False,
    trace_sink: list | None = None,
) -> RunMetrics:
    """Simulate ``num_slots`` independent slots under one policy.

    ``workers`` > 1 fans slot ranges out to a process pool; results are
    reduced in slot order, so the output is identical to a sequential run.
    ``trace_sink``, if given, collects one alternation-trace dict per slot
    (proposed policy only) and forces sequential execution.
    """
    policy = Policy(policy)
    if num_slots < 1:
        raise ValueError("num_slots must be >= 1")
    bad = cfg.validate()
    if bad:
        raise ValueError("config invalid: " + "; ".join(bad))

    if workers > 1 and trace_sink is None:
        # imported here: it loads multiprocessing, which sequential runs never use
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-num_slots // workers)
        spans = [(s, min(s + chunk, num_slots)) for s in range(0, num_slots, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _simulate_range,
                    *zip(*[(cfg, policy, seed, a, b, post_round) for a, b in spans]),
                )
            )
        rates = np.vstack([p[0] for p in parts])
        thetas = np.vstack([p[1] for p in parts])
        outages = np.concatenate([p[2] for p in parts])
        feasible = np.concatenate([p[3] for p in parts])
    else:
        rates, thetas, outages, feasible = _simulate_range(
            cfg, policy, seed, 0, num_slots, post_round, trace_sink
        )

    sum_rates = rates.sum(axis=1)
    values, counts = np.unique(sum_rates, return_counts=True)
    dist = EmpiricalDistribution(sum_rates)
    return RunMetrics(
        policy=policy.value,
        slots=num_slots,
        seed=seed,
        puncture_prob=cfg.puncture_prob,
        urllc_outage_budget=cfg.urllc_outage_budget,
        risk_weight=cfg.risk_weight,
        embb_reliability=float((rates >= cfg.target_rate).mean()),
        urllc_outage_rate=float(outages.mean()),
        mean_sum_rate=float(sum_rates.mean()),
        sum_rate_cvar_upper=cvar_alpha(dist, cfg.cvar_level),
        sum_rate_cvar_lower=cvar_alpha_lower(dist, cfg.cvar_level),
        ecdf_values=values,
        ecdf_probs=np.cumsum(counts) / num_slots,
        per_user_mean_rate=rates.mean(axis=0),
        per_user_mean_theta=thetas.mean(axis=0),
        n_infeasible_slots=int((~feasible).sum()),
    )


_SWEEP_FIELDS = {
    "p": "puncture_prob",
    "epsilon": "urllc_outage_budget",
    "beta": "risk_weight",
}


def sweep(
    cfg: SystemConfig,
    policy: Policy | str,
    parameter: str,
    values: list[float],
    num_slots: int,
    seed: int,
    workers: int = 1,
    post_round: bool = False,
) -> list[RunMetrics]:
    """One run per parameter value, sharing the same random draws so the
    resulting curves differ only through the parameter."""
    if parameter not in _SWEEP_FIELDS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; use p, epsilon, or beta")
    field_name = _SWEEP_FIELDS[parameter]
    cfgs = [replace(cfg, **{field_name: float(v)}) for v in values]
    for v, swept in zip(values, cfgs):
        bad = [b for b in swept.validate() if b.startswith(field_name)]
        if bad:
            raise ValueError(f"sweep value {v} rejected: " + "; ".join(bad))
    return [
        run_simulation(swept, policy, num_slots, seed, workers=workers, post_round=post_round)
        for swept in cfgs
    ]
