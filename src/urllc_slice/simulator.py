"""Monte Carlo slot loop: draw channels and traffic, run a policy, aggregate.

All three policies of a comparison see identical per-slot random draws
(common random numbers): every random stream is derived deterministically
from ``(seed, slot_index)``, and per-user mean SNRs from ``(seed,)`` alone,
so runs are reproducible bit for bit and curves across parameter sweeps are
directly comparable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import alternating, urllc_placement
from .embb_scheduler import round_to_binary, solve_fractional
from .json_writer import _csv, _fields_dict, _json_indented
from .model import (
    MAX_ASSIGNMENT_ENTRIES,
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
        out = _fields_dict(self)
        out["sum_rate_ecdf"] = {"values": out.pop("ecdf_values"), "cum_probs": out.pop("ecdf_probs")}
        return out

    def to_json(self) -> str:
        return _json_indented(self.to_dict())

    def ecdf_csv(self) -> str:
        return _csv(["value", "cum_prob"], zip(self.ecdf_values.tolist(), self.ecdf_probs.tolist()))

    def per_user_csv(self) -> str:
        rates, thetas = self.per_user_mean_rate.tolist(), self.per_user_mean_theta.tolist()
        return _csv(["user", "mean_rate", "mean_theta"], zip(range(len(rates)), rates, thetas))


def slot_rng(seed: int, slot: int) -> np.random.Generator:
    """Independent stream for one slot, identical across policies and sweeps."""
    return np.random.default_rng(np.random.SeedSequence((seed, _SLOT_STREAM, slot)))


def mean_snr_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _MEANS_STREAM)))


def _simulate_range(cfg, policy, seed, start, stop, post_round, trace):
    """Per-slot arrays of slots ``start`` to ``stop``, and their alternation
    traces if ``trace`` is set (proposed policy only). The proposed policy's
    all-active assignment is computed once per range."""
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    rates = np.empty((stop - start, cfg.num_embb_users))
    thetas = np.empty_like(rates)
    outages = np.empty(stop - start, dtype=bool)
    feasible = np.empty(stop - start, dtype=bool)
    traces = []
    all_active = alternating.all_active_assignment(cfg) if policy == Policy.PROPOSED else None
    for i, slot in enumerate(range(start, stop)):
        rng = slot_rng(seed, slot)
        chan = sample_channel(cfg, means[0], means[1], rng)
        load = sample_urllc_load(cfg, rng)
        if policy == Policy.PROPOSED:
            binary, placement, alternation = alternating.run(
                cfg, chan, post_round=post_round, all_active=all_active
            )
            if trace:
                traces.append({"slot": slot, **alternation.to_dict()})
        else:
            binary = round_to_binary(solve_fractional(cfg, chan, weights=None), cfg)
            if policy == Policy.BASELINE1:
                placement = urllc_placement.solve_baseline1(cfg, chan, binary)
            else:
                placement = urllc_placement.solve_baseline2(cfg, chan, binary)
        outcome = evaluate_slot(cfg, chan, binary, placement.weights, load)
        rates[i] = outcome.embb_rate_per_user
        thetas[i] = outcome.punctured_bw
        outages[i] = outcome.outage
        feasible[i] = placement.feasible
    return rates, thetas, outages, feasible, traces


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

    The slots are split into at most ``workers`` contiguous ranges, run on
    ``min(workers, ranges, os.cpu_count())`` processes: in this process when
    that is one, else on a process pool. Results, traces included, are joined
    in slot order, so the output is identical for every worker count.
    ``trace_sink``, if given, is extended with one alternation-trace dict per
    slot (proposed policy only). ``num_slots * cfg.num_embb_users`` may be at
    most ``MAX_ASSIGNMENT_ENTRIES``.
    """
    policy = Policy(policy)
    if num_slots < 1:
        raise ValueError("num_slots must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bad = cfg.validate()
    if bad:
        raise ValueError("config invalid: " + "; ".join(bad))
    if num_slots * cfg.num_embb_users > MAX_ASSIGNMENT_ENTRIES:
        raise ValueError(
            f"num_slots * num_embb_users must be at most {MAX_ASSIGNMENT_ENTRIES}, "
            f"got {num_slots * cfg.num_embb_users}"
        )

    chunk = -(-num_slots // workers)
    spans = [(s, min(s + chunk, num_slots)) for s in range(0, num_slots, chunk)]
    jobs = zip(*[(cfg, policy, seed, a, b, post_round, trace_sink is not None) for a, b in spans])
    # len(spans) <= workers; the pool starts all its processes at once
    procs = min(len(spans), os.cpu_count() or 1)
    if procs == 1:
        parts = list(map(_simulate_range, *jobs))
    else:
        # imported here: it loads multiprocessing, which one-process runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_simulate_range, *jobs))
    rates, thetas, outages, feasible, traces = zip(*parts)
    rates, thetas, outages, feasible = map(np.concatenate, (rates, thetas, outages, feasible))
    if trace_sink is not None:
        trace_sink.extend(t for part in traces for t in part)

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
