"""Monte Carlo slot loop: draw channels and traffic, run a policy, aggregate.

All three policies of a comparison see identical per-slot random draws
(common random numbers): every random stream is derived deterministically
from ``(seed, slot_index)``, and per-user mean SNRs from ``(seed,)`` alone,
so runs are reproducible bit for bit and curves across parameter sweeps are
directly comparable.

A range of slots is drawn, turned into channel terms and evaluated as arrays
over its slots, and both baselines are solved a chunk of slots at a time. The
rest of the policy step (``alternating.run`` and a baseline slot with a user
at zero spectral efficiency) runs slot by slot. Each slot's stream is NumPy's
``default_rng(SeedSequence((seed, 1, slot)))``: its SeedSequence hashing is
done for every slot of a range at once, and one reused ``PCG64`` is seeded
from each slot's words in turn, so the draws are those of ``slot_rng``, bit
for bit.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import alternating, urllc_placement
from .embb_scheduler import round_to_binary, solve_fractional
from .json_writer import _csv, _fields_dict, _json_indented, _TraceRecord, _TraceRecords
from .model import (  # noqa: F401  (perfbench's tracer wraps the per-slot names bound here)
    MAX_ASSIGNMENT_ENTRIES,
    ChannelRealization,
    ConfigError,
    SystemConfig,
    _efficiencies,
    _fading_gains,
    _minislot_loads,
    evaluate_slot,
    evaluate_slots,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
)
from .risk import EmpiricalDistribution, cvar_alpha, cvar_alpha_lower

_MEANS_STREAM = 0
_SLOT_STREAM = 1

# Entries drawn per chunk of slots, over its S x U, S x C and S x M draws
# together; bounds the working arrays of a range whatever its length.
_CHUNK_ENTRIES = 1 << 16

# NumPy's SeedSequence (O'Neill's seed_seq_fe, NEP 19) with its default pool
# of four 32-bit words, and the multiplier of PCG64's 128-bit LCG.
_MASK32 = np.uint64(0xFFFFFFFF)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[np.uint64, np.uint64]]:
    """The first ``n`` (before, after) values of a seed_seq_fe hash constant
    that starts at ``init`` and is multiplied by ``mult`` at every use. They
    do not depend on the entropy."""
    out = []
    for _ in range(n):
        after = (init * mult) & 0xFFFFFFFF
        out.append((np.uint64(init), np.uint64(after)))
        init = after
    return out


# mixing the pool takes 4 hashes of the entropy and 12 of the pool words;
# generate_state(4, uint64) takes 8
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value, consts):
    before, after = consts
    value = ((value ^ before) * after) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> _XSHIFT)


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence((seed, 1, slot)).generate_state(4, np.uint64)`` for
    every slot from ``start`` to ``stop``, one row each, for a seed and slots
    below 2**32 (one 32-bit entropy word each). The 32-bit arithmetic runs
    in uint64, masked after every product."""
    slots = np.arange(start, stop, dtype=np.uint64)
    entropy = (np.uint64(seed), np.uint64(_SLOT_STREAM), slots, np.uint64(0))
    hashes = iter(_POOL_HASHES)
    # every word an array: NumPy scalars warn on the wrap-around arrays do silently
    pool = [_hashmix(np.broadcast_to(word, slots.shape), next(hashes)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    half = [_hashmix(pool[i % 4], consts) for i, consts in enumerate(_STATE_HASHES)]
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(half[::2], half[1::2])], axis=-1)


def _pcg64_state(words: list[int]) -> dict:
    """The ``PCG64.state`` that seeding from ``generate_state(4, np.uint64)``
    words gives: ``pcg_setseq_128_srandom_r``'s two LCG steps."""
    initstate = (words[0] << 64) | words[1]
    inc = (((words[2] << 64) | words[3]) << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _slot_rngs(seed: int, start: int, stop: int):
    """A generator equal to ``slot_rng(seed, slot)`` for each slot from
    ``start`` to ``stop`` in turn. A seed and slots below 2**32 share one
    generator, re-seeded for every slot, so each is valid only until the next
    is taken; any other seed or slot (multi-word entropy, which SeedSequence
    hashes differently, or a seed SeedSequence rejects) gets ``slot_rng``."""
    if not (0 <= seed < 2**32 and stop <= 2**32):
        yield from (slot_rng(seed, slot) for slot in range(start, stop))
        return
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for words in _seed_words(int(seed), start, stop).tolist():
        bits.state = _pcg64_state(words)
        yield rng


def _slot_draws(cfg: SystemConfig, seed: int, start: int, stop: int):
    """The broadband and URLLC fading factors and minislot uniforms of slots
    ``start`` to ``stop``, as S x U, S x C and S x M arrays: row i holds what
    ``sample_channel`` and ``sample_urllc_load`` draw from
    ``slot_rng(seed, start + i)``."""
    slots = stop - start
    fading = np.empty((slots, cfg.num_embb_users))
    urllc_fading = np.empty((slots, cfg.num_urllc_users))
    uniforms = np.empty((slots, cfg.num_minislots))
    for i, rng in enumerate(_slot_rngs(seed, start, stop)):
        rng.standard_exponential(out=fading[i])
        rng.standard_exponential(out=urllc_fading[i])
        rng.random(out=uniforms[i])
    return fading, urllc_fading, uniforms


def _chunk_slots(cfg: SystemConfig) -> int:
    """Slots per chunk: as many as hold ``_CHUNK_ENTRIES`` draws, at least one."""
    return max(1, _CHUNK_ENTRIES // (cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots))


def _policy_step(cfg, policy, chan, post_round, all_active, row):
    """One slot's assignment matrix, placement and, for the proposed policy,
    alternation trace (None for the baselines). ``row`` is the slot's row of
    its chunk's all-active rounds (proposed policy only)."""
    if policy == Policy.PROPOSED:
        return alternating.run(cfg, chan, post_round=post_round, all_active=all_active, row=row)
    binary = round_to_binary(solve_fractional(cfg, chan, weights=None), cfg)
    if policy == Policy.BASELINE1:
        return binary, urllc_placement.solve_baseline1(cfg, chan, binary), None
    return binary, urllc_placement.solve_baseline2(cfg, chan, binary), None


def _simulate_range(cfg, policy, seed, start, stop, post_round, trace):
    """Per-slot arrays of slots ``start`` to ``stop``, and their alternation
    traces if ``trace`` is set (proposed policy only): one ``_TraceRecord``
    per chunk, whose rounds stand for the slots they answer and which holds
    the other slots' trace dicts (``_trace_dicts`` expands it). Chunks of
    slots are drawn, turned into spectral efficiencies and evaluated as
    arrays; the policy step runs in between. The all-active assignment, with
    the placement problem's configuration terms, is computed once per range.
    Proposed solves its two rounds once per chunk
    (``alternating._all_active_rounds``); each slot's ``alternating.run``
    takes its row of them, and a slot they answer takes the assignment's
    rounded bandwidths. A baseline solves the chunk at that assignment
    (``urllc_placement._baseline2_rows``, or ``_solve_rows`` with the
    penalty off), which every slot whose efficiencies are all positive
    keeps; a slot with a zero efficiency runs its own assignment and solve."""
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    all_active = alternating.all_active_assignment(cfg)
    rates = np.empty((stop - start, cfg.num_embb_users))
    thetas = np.empty_like(rates)
    outages = np.empty(stop - start, dtype=bool)
    feasible = np.empty(stop - start, dtype=bool)
    traces = []
    chunk = _chunk_slots(cfg)
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        fading, urllc_fading, uniforms = _slot_draws(cfg, seed, lo, hi)
        gains, urllc_gains = _fading_gains(cfg, *means, fading, urllc_fading)
        eff, urllc_eff = _efficiencies(cfg, gains, urllc_gains)
        phi, weights = np.empty_like(gains), np.empty_like(gains)
        rounds, fallback, answered = None, [], np.zeros(hi - lo, dtype=bool)
        if policy == Policy.PROPOSED:
            rounds = alternating._all_active_rounds(all_active, eff, urllc_eff, post_round)
            if trace:  # the slot loop fills in ``fallback``
                traces.append(_TraceRecord(lo, all_active, rounds, fallback))
        else:
            # a row without a zero efficiency keeps every user active
            answered = (eff > 0.0).all(axis=1)
            phi[:] = bandwidth = all_active.rounded_bandwidth
            terms = all_active.placement_terms
            if policy == Policy.BASELINE2:
                solved = urllc_placement._baseline2_rows(terms, bandwidth, eff, urllc_eff)
            else:
                solved = urllc_placement._solve_rows(terms._replace(penalty=0.0), bandwidth, eff, urllc_eff)
            weights[:], feasible[lo - start : hi - start] = solved[:2]
        for i in np.flatnonzero(~answered).tolist():
            slot = lo + i
            chan = ChannelRealization(gains[i], urllc_gains[i])
            row = None if rounds is None else (rounds, i)
            binary, placement, alternation = _policy_step(cfg, policy, chan, post_round, all_active, row)
            if binary is all_active.binary:
                phi[i] = all_active.rounded_bandwidth
            else:
                phi[i] = binary.user_bandwidth(cfg.rb_bandwidth)
                if trace and alternation is not None:
                    fallback.append({"slot": slot, **alternation.to_dict()})
            weights[i] = placement.weights.weights
            feasible[slot - start] = placement.feasible
        part = slice(lo - start, hi - start)
        rates[part], thetas[part], _, outages[part] = evaluate_slots(
            cfg,
            eff,
            urllc_eff,
            phi,
            weights,
            _minislot_loads(cfg, uniforms)[1],
        )
    return rates, thetas, outages, feasible, traces


def _trace_dicts(records):
    """The slot dicts of ``_TraceRecord``s, in slot order."""
    for record in records:
        fallback = iter(record.fallback)
        for i, answered in enumerate(record.rounds.answered.tolist()):
            if answered:
                trace = alternating._answered_run(record.all_active, record.rounds, i)[2]
                yield {"slot": record.start + i, **trace.to_dict()}
            else:
                yield next(fallback)


class _HeldRecords(logging.Handler):
    """Keeps every record it is handed, its message formatted so it pickles."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _pooled_range(*args):
    """``_simulate_range`` in a pool worker, with the package's log records
    it produced held back instead of emitted, so that the parent can emit them
    in slot order. An exception the range raises comes back in place of its
    results, with the records held before it."""
    package = logging.getLogger(__package__)
    held = _HeldRecords()
    propagate, package.propagate = package.propagate, False
    package.addHandler(held)
    try:
        return _simulate_range(*args), held.records
    except Exception as err:
        return err, held.records
    finally:
        package.removeHandler(held)
        package.propagate = propagate


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
    in slot order, so the output is identical for every worker count; so are
    the package's log records, which pool workers hand back with their
    results (or the exception a range raised) for this process to emit in
    slot order.
    ``trace_sink``, if given, is extended with one alternation-trace dict per
    slot (proposed policy only), or, if it is a ``json_writer._TraceRecords``,
    with the per-chunk ``_TraceRecord``s those dicts expand from.
    ``num_slots * cfg.num_embb_users`` may be at most ``MAX_ASSIGNMENT_ENTRIES``.
    """
    policy = Policy(policy)
    if num_slots < 1:
        raise ConfigError("num_slots must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    bad = cfg.validate()
    if bad:
        raise ConfigError("config invalid: " + "; ".join(bad))
    if num_slots * cfg.num_embb_users > MAX_ASSIGNMENT_ENTRIES:
        raise ConfigError(
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
            parts = []
            for part, records in pool.map(_pooled_range, *jobs):
                for record in records:
                    logger = logging.getLogger(record.name)
                    if logger.isEnabledFor(record.levelno):
                        logger.handle(record)
                if isinstance(part, Exception):
                    raise part
                parts.append(part)
    rates, thetas, outages, feasible, traces = zip(*parts)
    rates, thetas, outages, feasible = map(np.concatenate, (rates, thetas, outages, feasible))
    if trace_sink is not None:
        records = [r for part in traces for r in part]
        trace_sink.extend(records if isinstance(trace_sink, _TraceRecords) else _trace_dicts(records))

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
        raise ConfigError(f"unknown sweep parameter {parameter!r}; use p, epsilon, or beta")
    field_name = _SWEEP_FIELDS[parameter]
    cfgs = [replace(cfg, **{field_name: float(v)}) for v in values]
    for v, swept in zip(values, cfgs):
        bad = [b for b in swept.validate() if b.startswith(field_name)]
        if bad:
            raise ConfigError(f"sweep value {v} rejected: " + "; ".join(bad))
    return [
        run_simulation(swept, policy, num_slots, seed, workers=workers, post_round=post_round)
        for swept in cfgs
    ]
