"""Monte Carlo slot loop: draw channels and traffic, run a policy, aggregate.

All three policies of a comparison see identical per-slot random draws
(common random numbers): every random stream is derived deterministically
from ``(seed, slot_index)``, and per-user mean SNRs from ``(seed,)`` alone,
so runs are reproducible bit for bit and curves across parameter sweeps are
directly comparable. ``run_simulations`` makes those draws once for a whole
batch of runs (every policy and sweep value of a comparison): each chunk of
slots is drawn and turned into channel terms once, and every run takes its
policy step and evaluation on the same arrays. The slots of a batch run in
the calling process as one range, a chunk at a time.

A range of slots is drawn, turned into channel terms, solved and evaluated
as arrays, a chunk at a time, each slot at round 1's assignment of its own
active set, which a chunk builds once for all the runs; only
``alternating.run`` runs slot by slot, and enters its loop only for a
proposed slot its chunk's rounds do not answer. Each slot's
stream is NumPy's ``default_rng(SeedSequence((seed, 1, slot)))``: its
SeedSequence hashing is done for a whole range at once, and each slot's
``PCG64`` seeds itself from its words, bit for bit as in ``slot_rng``.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import alternating, urllc_placement
from .embb_scheduler import _log_excluded
from .embb_scheduler import round_to_binary, solve_fractional  # noqa: F401  (perfbench's tracer wraps them)
from .json_writer import (
    _csv_lines,
    _fields_dict,
    _float_texts,
    _json_indented,
    _repr_texts,
    _TraceRecord,
    _TraceRecords,
)
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

# NumPy's SeedSequence (O'Neill's seed_seq_fe, NEP 19), default pool of four 32-bit words.
_MASK32 = np.uint64(0xFFFFFFFF)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)


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
        return _metrics_document(_fields_dict(self))

    def to_json(self) -> str:
        return _json_indented(_metrics_document({**_fields_dict(self), **self._texts}))

    def ecdf_csv(self) -> str:
        values, probs = (_repr_texts(self._texts[name]) for name in ("ecdf_values", "ecdf_probs"))
        return _csv_lines(["value", "cum_prob"], zip(values, probs))

    def per_user_csv(self) -> str:
        rates, thetas = (_repr_texts(self._texts[name]) for name in ("per_user_mean_rate", "per_user_mean_theta"))
        return _csv_lines(["user", "mean_rate", "mean_theta"], zip(map(str, range(len(rates))), rates, thetas))

    @cached_property
    def _texts(self) -> dict:
        """The JSON texts of the array fields' floats, made once for the
        metrics JSON, ECDF CSV and per-user CSV (the arrays are final once a
        file is written)."""
        return {name: _float_texts(getattr(self, name).tolist()) for name in _ARRAY_FIELDS}


_ARRAY_FIELDS = ("ecdf_values", "ecdf_probs", "per_user_mean_rate", "per_user_mean_theta")


def _metrics_document(out: dict) -> dict:
    """``RunMetrics`` fields as its JSON document, the ECDF under one key."""
    out["sum_rate_ecdf"] = {"values": out.pop("ecdf_values"), "cum_probs": out.pop("ecdf_probs")}
    return out


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


class _SlotWords(ISeedSequence):
    """One slot's row of ``_seed_words`` as the seed sequence a ``PCG64``
    seeds itself from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a slot's seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def _slot_draws(cfg: SystemConfig, seed: int, start: int, stop: int):
    """The broadband and URLLC fading factors and minislot uniforms of slots
    ``start`` to ``stop``, as S x U, S x C and S x M arrays: row i holds what
    ``sample_channel`` and ``sample_urllc_load`` draw from
    ``slot_rng(seed, start + i)``. One ``standard_exponential`` call per slot
    fills both kinds of fading factor, the URLLC ones following on in the
    stream as they do after ``sample_channel``'s broadband call. A seed or
    slot of 2**32 or more (multi-word entropy, which SeedSequence hashes
    differently), or one SeedSequence rejects, gets ``slot_rng``."""
    slots, users = stop - start, cfg.num_embb_users
    fading = np.empty((slots, users + cfg.num_urllc_users))
    uniforms = np.empty((slots, cfg.num_minislots))
    if 0 <= seed < 2**32 and stop <= 2**32:
        words = _seed_words(int(seed), start, stop)
        rngs = (np.random.Generator(np.random.PCG64(_SlotWords(row))) for row in words)
    else:
        rngs = (slot_rng(seed, slot) for slot in range(start, stop))
    for i, rng in enumerate(rngs):
        rng.standard_exponential(out=fading[i])
        rng.random(out=uniforms[i])
    return fading[:, :users], fading[:, users:], uniforms


def _chunk_slots(cfg: SystemConfig) -> int:
    """Slots per chunk: as many as hold ``_CHUNK_ENTRIES`` draws, at least one."""
    return max(1, _CHUNK_ENTRIES // (cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots))


class _Chunk(NamedTuple):
    """What every run of a batch takes alike from the slots of one chunk,
    from slot ``start`` on: the S x U and S x C fading gains, the S x U
    broadband spectral efficiencies, the S mean URLLC spectral efficiencies
    and each slot's round 1 assignment, that of its own active set, as
    ``alternating._row_assignments`` returns them: one ``AllActive`` a slot
    and their stack."""

    start: int
    gains: np.ndarray
    urllc_gains: np.ndarray
    eff: np.ndarray
    urllc_eff: np.ndarray
    assignments: list
    stacked: alternating.AllActive


class _ChunkRows(NamedTuple):
    """One run's outcome on the slots of a chunk: the per-user rates and
    punctured bandwidths (S x U), the outage and feasibility flags (S), and
    its ``_TraceRecord``, or None when the run is not traced."""

    rates: np.ndarray
    thetas: np.ndarray
    outages: np.ndarray
    feasible: np.ndarray
    record: _TraceRecord | None


def _policy_rows(cfg, policy, terms, chunk: _Chunk, post_round, traced):
    """One run's user bandwidths and weights (S x U) and feasibility (S) on
    the slots of ``chunk``, under its configuration's
    ``urllc_placement._config_terms`` ``terms``, and, if ``traced`` (proposed
    policy only), its ``_TraceRecord``: its rounds stand for the slots they
    answer, each at its chunk assignment, its list holds the trace dicts of
    the slots the loop solved. Every slot is solved at its chunk assignment: proposed's
    two rounds (``alternating._all_active_rounds``), whose rows each slot's
    ``alternating.run`` takes, or a baseline's placement
    (``urllc_placement._baseline2_rows``, or ``_solve_rows`` with the penalty
    off), whose slots' excluded users are logged as ``solve_fractional`` does."""
    eff, urllc_eff, assignments, stacked = chunk.eff, chunk.urllc_eff, chunk.assignments, chunk.stacked
    phi = np.broadcast_to(stacked.rounded_bandwidth, eff.shape).copy()
    if policy != Policy.PROPOSED:
        for assignment in assignments:
            _log_excluded(assignment.excluded)
        if policy == Policy.BASELINE2:
            return (phi, *urllc_placement._baseline2_rows(terms, phi, eff, urllc_eff), None)
        return (phi, *urllc_placement._solve_rows(terms._replace(penalty=0.0), phi, eff, urllc_eff)[:2], None)
    rounds = alternating._all_active_rounds(stacked, terms, eff, urllc_eff, post_round)
    weights, feasible = rounds.placement.weights.copy(), rounds.placement.feasible.copy()
    record = _TraceRecord(chunk.start, assignments, rounds, []) if traced else None
    for i, assignment in enumerate(assignments):
        chan = ChannelRealization(chunk.gains[i], chunk.urllc_gains[i])
        binary, placement, alternation = alternating.run(
            cfg, chan, post_round=post_round, all_active=assignment, row=(rounds, i)
        )
        if binary is not assignment.binary:  # the loop ran
            phi[i] = binary.user_bandwidth(cfg.rb_bandwidth)
            weights[i], feasible[i] = placement.weights.weights, placement.feasible
            if record is not None:
                record.fallback.append({"slot": chunk.start + i, **alternation.to_dict()})
    return phi, weights, feasible, record


def _simulate_range(runs, seed, start, stop, post_round, held):
    """Yields, for each chunk of slots ``start`` to ``stop`` in turn, a list
    of one ``_ChunkRows`` per run of ``runs``: (config, policy, traced)
    triples whose configs differ at most in the swept fields. A chunk's
    draws, fading gains, spectral efficiencies and slot assignments
    (``_Chunk``) are computed once for all the runs, and its minislot loads
    once per distinct ``puncture_prob``; each run then takes its policy step
    (``_policy_rows``) and ``evaluate_slots`` on them. ``held``, a
    ``_HeldRecords``, receives the package's log records of a chunk, filed
    under the run whose step made them (the first run's when none did)."""
    cfg = runs[0][0]
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    all_active = alternating.all_active_assignment(cfg)
    terms = [urllc_placement._config_terms(run_cfg) for run_cfg, _, _ in runs]
    step = _chunk_slots(cfg)
    for lo in range(start, stop, step):
        rows, loads = [], {}
        held.run = 0
        with _holding(held):
            fading, urllc_fading, uniforms = _slot_draws(cfg, seed, lo, min(lo + step, stop))
            gains, urllc_gains = _fading_gains(cfg, *means, fading, urllc_fading)
            eff, urllc_eff = _efficiencies(cfg, gains, urllc_gains)
            assignments = alternating._row_assignments(cfg, all_active, eff)
            chunk = _Chunk(lo, gains, urllc_gains, eff, urllc_eff, *assignments)
            for i, (run_cfg, policy, traced) in enumerate(runs):
                held.run = i
                phi, weights, feasible, record = _policy_rows(run_cfg, policy, terms[i], chunk, post_round, traced)
                p = run_cfg.puncture_prob
                if p not in loads:
                    loads[p] = _minislot_loads(run_cfg, uniforms)[1]
                rates, thetas, _, outages = evaluate_slots(run_cfg, eff, urllc_eff, phi, weights, loads[p])
                rows.append(_ChunkRows(rates, thetas, outages, feasible, record))
        yield rows


def _trace_dicts(records):
    """The slot dicts of ``_TraceRecord``s, in slot order."""
    for record in records:
        fallback = iter(record.fallback)
        for i, answered in enumerate(record.rounds.answered.tolist()):
            if answered:
                trace = alternating._answered_run(record.assignments[i], record.rounds, i)[2]
                yield {"slot": record.start + i, **trace.to_dict()}
            else:
                yield next(fallback)


class _HeldRecords(logging.Handler):
    """Keeps what ``_emit`` needs to make every record it is handed again, in
    one list per run of a batch (the list of the run numbered ``run``): its
    logger, level, source line and formatted message, one string object per
    distinct message. A batch holds every later run's records until its
    last chunk, where a whole record would take about 0.5 kB; the record
    made again carries the time, thread and process of its emission."""

    def __init__(self, runs: int):
        super().__init__()
        self.records = [[] for _ in range(runs)]
        self.run = 0
        self.messages = {}

    def emit(self, record):
        message = record.getMessage()
        message = self.messages.setdefault(message, message)
        held = (record.name, record.levelno, record.pathname, record.lineno, message, record.funcName)
        self.records[self.run].append(held)

    def take(self, run: int) -> list:
        """The records held so far for run ``run``; its list starts afresh."""
        records, self.records[run] = self.records[run], []
        return records


@contextmanager
def _holding(held: _HeldRecords):
    """Hands the package's log records to ``held`` instead of emitting them."""
    package = logging.getLogger(__package__)
    propagate, package.propagate = package.propagate, False
    package.addHandler(held)
    try:
        yield
    finally:
        package.removeHandler(held)
        package.propagate = propagate


def _emit(records) -> None:
    """Emits ``_HeldRecords``' records through their loggers."""
    for name, level, path, line, message, func in records:
        logger = logging.getLogger(name)
        if logger.isEnabledFor(level):
            logger.handle(logger.makeRecord(name, level, path, line, message, None, None, func))


class _ColumnMeans:
    """``rows.mean(axis=0)`` of an S x U array handed over a chunk of rows at a
    time, in slot order, without keeping the rows. NumPy's axis-0 sum of more
    than one column adds the rows one after another, so each chunk is added to
    the running sum as the sum stacked on the chunk's rows: the same additions
    in the same order. A single column is summed pairwise, as a vector is, so
    its chunks (one value per slot) are kept and summed at the end."""

    def __init__(self):
        self.parts, self.count = [], 0

    def add(self, rows: np.ndarray) -> None:
        self.count += len(rows)
        self.parts.append(rows)
        if rows.shape[1] > 1:
            self.parts = [np.add.reduce(np.concatenate(self.parts), axis=0, keepdims=True)]

    def mean(self) -> np.ndarray:
        return np.add.reduce(np.concatenate(self.parts), axis=0) / self.count


class _RunTotals:
    """One run's outcome, folded a chunk at a time in slot order: each slot's
    sum rate, the counts behind its rates, the per-user means of its rates and
    punctured bandwidths, and its trace records."""

    def __init__(self, target_rate: float):
        self.target_rate = target_rate
        self.sum_rates, self.records = [], []
        self.rates, self.thetas = _ColumnMeans(), _ColumnMeans()
        self.reliable = self.outages = self.infeasible = 0

    def add(self, rows: _ChunkRows) -> None:
        self.sum_rates.append(rows.rates.sum(axis=1))
        self.reliable += int(np.count_nonzero(rows.rates >= self.target_rate))
        self.outages += int(np.count_nonzero(rows.outages))
        self.infeasible += int(np.count_nonzero(~rows.feasible))
        self.rates.add(rows.rates)
        self.thetas.add(rows.thetas)
        if rows.record is not None:
            self.records.append(rows.record)

    def metrics(self, cfg: SystemConfig, policy: Policy, num_slots: int, seed: int) -> RunMetrics:
        # the counts over their totals are the means of the boolean arrays, bit for bit
        sum_rates = np.concatenate(self.sum_rates)
        values, counts = np.unique(sum_rates, return_counts=True)
        dist = EmpiricalDistribution(sum_rates)
        return RunMetrics(
            policy=policy.value,
            slots=num_slots,
            seed=seed,
            puncture_prob=cfg.puncture_prob,
            urllc_outage_budget=cfg.urllc_outage_budget,
            risk_weight=cfg.risk_weight,
            embb_reliability=float(self.reliable / (num_slots * cfg.num_embb_users)),
            urllc_outage_rate=float(self.outages / num_slots),
            mean_sum_rate=float(sum_rates.mean()),
            sum_rate_cvar_upper=cvar_alpha(dist, cfg.cvar_level),
            sum_rate_cvar_lower=cvar_alpha_lower(dist, cfg.cvar_level),
            ecdf_values=values,
            ecdf_probs=np.cumsum(counts) / num_slots,
            per_user_mean_rate=self.rates.mean(),
            per_user_mean_theta=self.thetas.mean(),
            n_infeasible_slots=self.infeasible,
        )


_SWEEP_FIELDS = {
    "p": "puncture_prob",
    "epsilon": "urllc_outage_budget",
    "beta": "risk_weight",
}


def _draw_fields(cfg: SystemConfig) -> dict:
    """The fields of ``cfg`` that its draws, gains and efficiencies depend on:
    all but the swept ones."""
    return {k: v for k, v in cfg.to_dict().items() if k not in _SWEEP_FIELDS.values()}


def run_simulations(
    runs: list,
    num_slots: int,
    seed: int,
    workers: int = 1,
    post_round: bool = False,
    trace_sinks: list | None = None,
) -> list[RunMetrics]:
    """Simulate ``num_slots`` independent slots under each (config, policy)
    pair of ``runs``, all over one pass of draws.

    The configs may differ only in the swept fields (``_SWEEP_FIELDS``), so
    every run sees the same draws, fading gains and spectral efficiencies:
    each chunk of slots computes them once, and its minislot loads once per
    distinct ``puncture_prob``, for every run to take its policy step on
    (``_simulate_range``). Each run's rows are folded chunk by chunk in slot
    order (``_RunTotals``), so its metrics equal those of its own
    ``run_simulation`` call, bit for bit.

    Every run takes its chunks in this process; ``workers`` must be at
    least 1 and has no other effect. The package's log records come in run
    order: the first run's are emitted after each chunk, every later run's
    are held and emitted after them, also when a chunk raises.
    ``trace_sinks``, if given, holds a sink or None per run. A sink is
    extended with one alternation-trace dict per slot (proposed policy
    only), or, if it is a ``json_writer._TraceRecords``, with the per-chunk
    ``_TraceRecord``s those dicts expand from.
    ``num_slots * num_embb_users`` may be at most ``MAX_ASSIGNMENT_ENTRIES``.
    """
    runs = [(cfg, Policy(policy)) for cfg, policy in runs]
    sinks = [None] * len(runs) if trace_sinks is None else list(trace_sinks)
    if not runs or len(sinks) != len(runs):
        raise ConfigError("runs must be non-empty, with one trace_sinks entry per run")
    if num_slots < 1:
        raise ConfigError("num_slots must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    for cfg, _ in runs:
        bad = cfg.validate()
        if bad:
            raise ConfigError("config invalid: " + "; ".join(bad))
    cfg = runs[0][0]
    if num_slots * cfg.num_embb_users > MAX_ASSIGNMENT_ENTRIES:
        raise ConfigError(
            f"num_slots * num_embb_users must be at most {MAX_ASSIGNMENT_ENTRIES}, "
            f"got {num_slots * cfg.num_embb_users}"
        )
    shared = _draw_fields(cfg)
    if any(_draw_fields(other) != shared for other, _ in runs[1:]):
        raise ConfigError("the configs of one batch may differ only in " + ", ".join(_SWEEP_FIELDS.values()))

    batch = [(cfg, policy, sink is not None) for (cfg, policy), sink in zip(runs, sinks)]
    totals = [_RunTotals(cfg.target_rate) for cfg, _ in runs]
    held = _HeldRecords(len(runs))
    try:
        for rows in _simulate_range(batch, seed, 0, num_slots, post_round, held):
            _emit(held.take(0))
            for total, run_rows in zip(totals, rows):
                total.add(run_rows)
    finally:
        for run in range(len(runs)):
            _emit(held.take(run))
    for total, sink in zip(totals, sinks):
        if sink is not None:
            sink.extend(total.records if isinstance(sink, _TraceRecords) else _trace_dicts(total.records))
    return [total.metrics(cfg, policy, num_slots, seed) for total, (cfg, policy) in zip(totals, runs)]


def run_simulation(
    cfg: SystemConfig,
    policy: Policy | str,
    num_slots: int,
    seed: int,
    workers: int = 1,
    post_round: bool = False,
    trace_sink: list | None = None,
) -> RunMetrics:
    """Simulate ``num_slots`` independent slots under one policy: the one run
    of ``run_simulations``, whose ``trace_sinks`` entry is ``trace_sink``."""
    return run_simulations([(cfg, policy)], num_slots, seed, workers, post_round, [trace_sink])[0]


def sweep_configs(cfg: SystemConfig, parameter: str, values: list[float]) -> list[SystemConfig]:
    """``cfg`` with the field that ``parameter`` names set to each value in
    turn, a derived ``l_max`` derived again. ``cfg`` must be valid; then any
    rule a swept config breaks rejects its value, as a ``ConfigError``."""
    if parameter not in _SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; use p, epsilon, or beta")
    bad = cfg.validate()
    if bad:
        raise ConfigError("config invalid: " + "; ".join(bad))
    derived = {"l_max": None} if cfg._l_max_derived else {}
    cfgs = [replace(cfg, **derived, **{_SWEEP_FIELDS[parameter]: float(v)}) for v in values]
    for v, swept in zip(values, cfgs):
        bad = swept.validate()
        if bad:
            raise ConfigError(f"sweep value {v} rejected: " + "; ".join(bad))
    return cfgs


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
    """One run per parameter value, all over one pass of draws
    (``run_simulations``), so the resulting curves differ only through the
    parameter."""
    runs = [(swept, policy) for swept in sweep_configs(cfg, parameter, values)]
    return run_simulations(runs, num_slots, seed, workers, post_round)
