"""The proposed policy in ``simulator._simulate_range``, which solves each
chunk's first two rounds as arrays, every slot at round 1's assignment of its
own active set, and passes every slot's ``alternating.run`` its assignment and
its row of them, so slots skip the loop, against a reference loop over
the public per-slot API (``alternating.run`` without them, followed by
``evaluate_slot``): the same four arrays and the same traces, bit for bit."""

import dataclasses
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urllc_slice import alternating, simulator, urllc_placement
from urllc_slice.cli import main
from urllc_slice.json_writer import _json_indented, _trace_pieces, _TraceRecords
from urllc_slice.model import (
    ChannelRealization,
    SystemConfig,
    _efficiencies,
    _fading_gains,
    evaluate_slot,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
)
from urllc_slice.simulator import Policy, mean_snr_rng, slot_rng

# slots * num_rbs * num_embb_users stays at most this
MAX_WORK = 100_000


def reference_range(cfg, seed, start, stop, post_round):
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    rates, thetas, outages, feasible, traces = [], [], [], [], []
    for slot in range(start, stop):
        rng = slot_rng(seed, slot)
        chan = sample_channel(cfg, means[0], means[1], rng)
        load = sample_urllc_load(cfg, rng)
        binary, placement, alternation = alternating.run(cfg, chan, post_round=post_round)
        outcome = evaluate_slot(cfg, chan, binary, placement.weights, load)
        rates.append(outcome.embb_rate_per_user)
        thetas.append(outcome.punctured_bw)
        outages.append(outcome.outage)
        feasible.append(placement.feasible)
        traces.append({"slot": slot, **alternation.to_dict()})
    arrays = np.array(rates), np.array(thetas), np.array(outages), np.array(feasible)
    return (*arrays, traces)


def simulate_range(cfg, policy, seed, start, stop, post_round, trace):
    """One run's ``simulator._simulate_range``, its chunks' rows joined in
    slot order: the rates, punctured bandwidths, outage and feasibility flags
    of every slot, and the run's trace records."""
    runs = [(cfg, policy, trace)]
    held = simulator._HeldRecords(1)
    chunks = [rows for [rows] in simulator._simulate_range(runs, seed, start, stop, post_round, held)]
    arrays = [np.concatenate(parts) for parts in zip(*[chunk[:4] for chunk in chunks])]
    return (*arrays, [chunk.record for chunk in chunks if chunk.record is not None])


def outcome_of(fn, *args):
    """``fn(*args)``, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_range(cfg, seed, start, stop, post_round):
    """Checks the range against the reference loop; returns its trace records."""
    got = outcome_of(simulate_range, cfg, Policy.PROPOSED, seed, start, stop, post_round, True)
    want = outcome_of(reference_range, cfg, seed, start, stop, post_round)
    if isinstance(want, str):
        # a solver failure of the per-slot API must be the array path's too
        assert got == want
        return None
    for g, w in zip(got[:4], want[:4]):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()
    # one record per chunk, expanded into the dicts a list sink receives
    assert [r.start for r in got[4]] == list(range(start, stop, simulator._chunk_slots(cfg)))
    traces = list(simulator._trace_dicts(got[4]))
    assert traces == want[4]
    assert _json_indented(traces) == _json_indented(want[4])
    # and into the text the CLI writes from each slot's assignment's template
    assert "".join(_trace_pieces(got[4])) == _json_indented(want[4])
    lists = [t["iterations"] for t in traces]
    lists += [e[key] for t in traces for e in t["iterations"] for key in ("weights", "user_bandwidth")]
    assert len({id(x) for x in lists}) == len(lists)  # no list is shared
    return got[4]


@st.composite
def range_cases(draw):
    users = draw(st.integers(1, 40))
    rbs = draw(st.integers(1, 200))
    slots = draw(st.integers(1, max(1, min(20, MAX_WORK // (users * rbs)))))
    # near -156 dB a user is degenerate (zero efficiency) in some slots only
    snr_min = draw(st.floats(-400.0, 30.0) | st.floats(-170.0, -150.0))
    kw = {
        "num_embb_users": users,
        "num_rbs": rbs,
        "num_minislots": draw(st.integers(1, 10)),
        "num_urllc_users": draw(st.integers(1, 6)),
        "snr_min_db": snr_min,
        "snr_max_db": draw(st.floats(snr_min, 30.0)),
        "puncture_prob": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "urllc_outage_budget": draw(st.sampled_from([0.1, 0.01]) | st.floats(1e-6, 0.5)),
        "risk_weight": draw(st.floats(0.0, 1.0)),
    }
    if draw(st.booleans()):
        kw["rb_bandwidth"] = draw(st.lists(st.floats(1e4, 1e6), min_size=rbs, max_size=rbs))
    if draw(st.booleans()):
        # below the mean load at high arrival rates, so the caps fall under 1
        kw["l_max"] = draw(st.floats(256.0, 4096.0))
    start = draw(st.integers(0, 1000))
    return kw, draw(st.integers(0, 2**32 - 1)), start, start + slots, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(range_cases())
@example(({"snr_min_db": -400.0, "snr_max_db": 30.0}, 7, 0, 20, False))
@example(({"snr_min_db": -400.0, "snr_max_db": 30.0}, 20261, 3, 23, True))
@example(({"puncture_prob": 0.0}, 7, 0, 10, True))
@example(({"puncture_prob": 1.0}, 7, 0, 10, False))
@example(({"urllc_outage_budget": 0.01, "snr_min_db": -10.0, "snr_max_db": 5.0}, 7, 0, 20, False))
@example(({"urllc_outage_budget": 0.01, "snr_min_db": -10.0, "snr_max_db": 5.0}, 7, 0, 20, True))
@example(({"num_embb_users": 40, "num_rbs": 200}, 20261, 0, 12, True))
# a load fraction of 5e-324 with the penalty off: NaN weights at lam = 0, so
# the row goes on to the multiplier
@example(
    (
        {
            "num_embb_users": 1,
            "num_rbs": 5,
            "num_minislots": 1,
            "num_urllc_users": 1,
            "snr_min_db": 3.0,
            "snr_max_db": 3.0,
            "puncture_prob": 5e-324,
            "risk_weight": 0.0,
        },
        0,
        0,
        3,
        False,
    )
)
# a load fraction that underflows to 0 (5e-324 * 100 / 512) while the floor
# stays positive: every row's caps fall below the floor
@example(
    (
        {
            "num_embb_users": 1,
            "num_rbs": 1,
            "num_minislots": 1,
            "num_urllc_users": 1,
            "snr_min_db": 0.0,
            "snr_max_db": 0.0,
            "puncture_prob": 5e-324,
            "risk_weight": 0.0,
            "l_max": 512.0,
        },
        0,
        0,
        1,
        False,
    )
)
def test_array_path_equals_the_per_slot_loop(case):
    kw, seed, start, stop, post_round = case
    cfg = SystemConfig(**kw)
    assert cfg.validate() == []
    assert_same_range(cfg, seed, start, stop, post_round)


def record_calls(monkeypatch):
    """The assignment (``all_active``, None when not given) of every
    ``alternating.run`` call, and per slot of every chunk's rounds whether
    they answered the slot (True) or left it to the loop (False)."""
    calls, answered = [], []
    run, rounds_of = alternating.run, alternating._all_active_rounds

    def counting(*args, **kwargs):
        calls.append(kwargs.get("all_active"))
        return run(*args, **kwargs)

    def recording(*args):
        rounds = rounds_of(*args)
        answered.extend(rounds.answered.tolist())
        return rounds

    monkeypatch.setattr(alternating, "run", counting)
    monkeypatch.setattr(alternating, "_all_active_rounds", recording)
    return calls, answered


@pytest.mark.parametrize("post_round", [False, True])
def test_slots_with_degenerate_users_are_answered_at_their_own_active_set(monkeypatch, post_round):
    # near -156 dB a user's spectral efficiency rounds to 0 in some slots only:
    # at seed 7, 23 of these 40 slots have every user above it
    cfg = SystemConfig(num_embb_users=3, snr_min_db=-165.0, snr_max_db=-150.0)
    calls, answered = record_calls(monkeypatch)
    assert_same_range(cfg, 7, 0, 40, post_round)
    # every slot is one alternating.run call, in the range and in the reference loop
    assert len(calls) == 40 + 40
    given = calls[:40]
    assert calls[40:] == [None] * 40
    # each range slot is given round 1's assignment of its own active set,
    # which answers it: no slot enters the loop
    assert answered == [True] * 40
    assert sum(bool(a.mask.all()) for a in given) == 23
    assert all(a.excluded == np.flatnonzero(~a.mask).tolist() for a in given)


def test_a_user_degenerate_in_every_slot_leaves_no_slot_to_the_loop(monkeypatch):
    calls, answered = record_calls(monkeypatch)
    assert_same_range(SystemConfig(snr_min_db=-400.0, snr_max_db=30.0), 7, 0, 20, False)
    assert len(calls) == 20 + 20
    assert answered == [True] * 20
    assert not any(a.mask.all() for a in calls[:20])


@pytest.mark.parametrize("post_round", [False, True])
def test_slots_failing_the_round_two_check_fall_back_to_the_loop(monkeypatch, post_round):
    # valid weights always pass the check (caps keep every user active), so
    # make every other slot of the chunk fail it
    seen = []

    def every_other_fails(eff, w, load_fraction):
        seen.append(len(eff))
        coeff = eff * (1.0 - w * load_fraction)
        coeff[1::2] = 0.0
        return coeff

    monkeypatch.setattr(alternating, "_array_rate_coefficients", every_other_fails)
    calls, answered = record_calls(monkeypatch)
    [record] = assert_same_range(SystemConfig(), 11, 5, 15, post_round)
    assert seen == [10]  # one chunk of 10 slots
    assert answered == [True, False] * 5
    assert len(calls) == 10 + 10
    # the slots the loop solved, and only they, are the record's fallback dicts
    assert [trace["slot"] for trace in record.fallback] == [6, 8, 10, 12, 14]


def chunk_rows(all_active, keep):
    """The rounds' ``all_active`` of the chunk rows in ``keep``: a stacked
    one's rows, one assignment as it is."""
    if all_active.mask.ndim == 1:
        return all_active
    rows = {name: getattr(all_active, name)[keep] for name in ("mask", "fractional_bandwidth", "rounded_bandwidth")}
    return dataclasses.replace(all_active, **rows)


# _multiplier_step calls of the degenerate-user rows of the range below: they
# are solved at the fractional or the rounded bandwidths of their own active
# set, which differ
DEGENERATE_STEPS = {False: 10, True: 8}


@pytest.mark.parametrize("post_round", [False, True])
def test_a_range_of_many_chunks_mixing_every_kind_of_row(monkeypatch, post_round):
    # seed 153 draws one broadband user near -156 dB and one URLLC user whose
    # fading sometimes leaves the floor out of reach, so these 60 slots mix
    # degenerate-user rows with rows of every kind: lam = 0 weights, the
    # multiplier (through _multiplier_step) and caps below the floor. Every
    # row is solved once, at its own active set's assignment, and answered;
    # the rows with and without a zero efficiency are solved again apart to
    # count their steps, which add up to the chunk's
    cfg = SystemConfig(snr_min_db=-158.0, snr_max_db=30.0, num_urllc_users=1)
    per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * per_slot)
    solved, chunks = [], []
    step, rounds_of = urllc_placement._multiplier_step, alternating._all_active_rounds

    def counting(*args):
        solved.append(1)
        return step(*args)

    def steps_of(all_active, terms, eff, urllc_eff, keep):
        before = len(solved)
        if keep.any():
            rounds_of(chunk_rows(all_active, keep), terms, eff[keep], urllc_eff[keep], post_round)
        return len(solved) - before

    def recording(all_active, terms, eff, urllc_eff, post_round):
        before = len(solved)
        rounds = rounds_of(all_active, terms, eff, urllc_eff, post_round)
        steps = len(solved) - before
        ok = (eff > 0.0).all(axis=1)
        multiplier = steps_of(all_active, terms, eff, urllc_eff, ok)
        degenerate_steps = steps_of(all_active, terms, eff, urllc_eff, ~ok)
        infeasible = int((ok & ~rounds.placement.feasible).sum())
        lam_zero = int((ok & rounds.placement.feasible).sum()) - multiplier
        counts = (steps, multiplier, degenerate_steps, infeasible, lam_zero, int((~ok).sum()))
        chunks.append((len(eff), int(rounds.answered.sum()), *counts))
        return rounds

    monkeypatch.setattr(urllc_placement, "_multiplier_step", counting)
    monkeypatch.setattr(alternating, "_all_active_rounds", recording)
    assert_same_range(cfg, 153, 0, 60, post_round)
    sizes, answered, steps, multiplier, degenerate_steps, *kinds = map(list, zip(*chunks))
    assert sizes == [7] * 8 + [4]
    assert answered == sizes
    assert steps == [m + d for m, d in zip(multiplier, degenerate_steps)]
    assert (sum(steps), sum(multiplier), sum(degenerate_steps), *map(sum, kinds)) == (
        29 + DEGENERATE_STEPS[post_round], 29, DEGENERATE_STEPS[post_round], 2, 8, 21
    )


VANISHING_LOAD = {
    "num_embb_users": 1,
    "num_rbs": 5,
    "num_minislots": 1,
    "num_urllc_users": 1,
    "snr_min_db": 3.0,
    "snr_max_db": 3.0,
    "puncture_prob": 5e-324,
    "risk_weight": 0.0,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("post_round", [False, True])
@pytest.mark.parametrize(
    "kw, seed, slots",
    [
        # the range of the test above: answered rows of every kind and
        # degenerate-user rows, in chunks of 7 slots
        ({"snr_min_db": -158.0, "snr_max_db": 30.0, "num_urllc_users": 1}, 153, 60),
        (VANISHING_LOAD, 0, 20),
        # fewer RBs than users: some users get no bandwidth
        ({"num_embb_users": 12, "num_rbs": 5}, 7, 30),
    ],
)
def test_cli_trace_file_is_json_dumps_of_the_library_sink(
    tmp_path, monkeypatch, kw, seed, slots, post_round, workers
):
    # the CLI writes the trace from the chunks' records, the library sink
    # receives their slot dicts
    cfg = SystemConfig(**kw)
    per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * per_slot)
    sink = []
    simulator.run_simulation(
        cfg, "proposed", slots, seed, workers=workers, post_round=post_round, trace_sink=sink
    )
    assert [t["slot"] for t in sink] == list(range(slots))
    (tmp_path / "cfg.json").write_text(json.dumps(kw))
    argv = ["run", "--config", str(tmp_path / "cfg.json"), "--policy", "proposed", "--slots", str(slots)]
    argv += ["--seed", str(seed), "--threads", str(workers), "--trace", "--out", str(tmp_path / "out")]
    assert main(argv + (["--post-round"] if post_round else [])) == 0
    text = (tmp_path / "out" / "trace_proposed.json").read_text()
    assert text == json.dumps(sink, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("post_round", [False, True])
def test_trace_pieces_are_one_per_slot_across_records(monkeypatch, post_round):
    # chunks of 7 slots; near -156 dB a user is degenerate in some slots: every
    # slot is answered at its own active set's assignment, so no record has a
    # fallback dict, and the records mix the all-active assignment with others
    cfg = SystemConfig(num_embb_users=3, snr_min_db=-165.0, snr_max_db=-150.0)
    per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * per_slot)
    records = _TraceRecords()
    simulator.run_simulation(cfg, "proposed", 40, 7, post_round=post_round, trace_sink=records)
    assert [r.start for r in records] == list(range(0, 40, 7))
    assert all(r.rounds.answered.all() and r.fallback == [] for r in records)
    all_active = sum(bool(a.mask.all()) for r in records for a in r.assignments)
    assert all_active == 23 and len({id(a) for r in records for a in r.assignments}) > 2
    pieces = list(_trace_pieces(records))
    assert len(pieces) == 40 + 1 and pieces[-1] == "\n]"
    assert [p[:5] for p in pieces[:-1]] == ["[\n  {"] + [",\n  {"] * 39
    assert all(p.count('"slot": ') == 1 for p in pieces[:-1])
    assert "".join(pieces) == _json_indented(list(simulator._trace_dicts(records)))


def test_a_batch_builds_its_assignments_once_per_chunk_for_every_run(monkeypatch):
    # a three-policy beta sweep is nine runs over chunks of 7 slots: the
    # all-active assignment is built once, each chunk's row assignments once
    cfg = SystemConfig(snr_min_db=-400.0, snr_max_db=30.0)
    per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * per_slot)
    calls = {"all_active_assignment": 0, "_row_assignments": 0}
    for name in calls:
        def counting(*args, _fn=getattr(alternating, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(alternating, name, counting)
    runs = [(swept, policy) for policy in Policy for swept in simulator.sweep_configs(cfg, "beta", [0.0, 0.5, 1.0])]
    simulator.run_simulations(runs, 20, 153)
    assert calls == {"all_active_assignment": 1, "_row_assignments": 3}


@pytest.mark.parametrize("post_round", [False, True])
def test_a_traced_run_with_a_degenerate_user_in_every_slot_has_no_fallback(tmp_path, monkeypatch, post_round):
    # every slot at -400...30 dB has a user at zero spectral efficiency; at
    # seed 153 most rows need the floor multiplier. Each slot is answered at
    # its own assignment and written from that assignment's template
    kw = {"snr_min_db": -400.0, "snr_max_db": 30.0}
    cfg = SystemConfig(**kw)
    per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * per_slot)
    records, sink = _TraceRecords(), []
    for trace_sink in (records, sink):
        simulator.run_simulation(cfg, "proposed", 60, 153, post_round=post_round, trace_sink=trace_sink)
    assert len(records) == 9 and all(r.rounds.answered.all() and r.fallback == [] for r in records)
    assert not any(a.mask.all() for r in records for a in r.assignments)
    (tmp_path / "cfg.json").write_text(json.dumps(kw))
    argv = ["run", "--config", str(tmp_path / "cfg.json"), "--policy", "proposed", "--slots", "60"]
    argv += ["--seed", "153", "--trace", "--out", str(tmp_path / "out")]
    assert main(argv + (["--post-round"] if post_round else [])) == 0
    text = (tmp_path / "out" / "trace_proposed.json").read_text()
    assert text == json.dumps(sink, indent=2, sort_keys=True) + "\n"


def test_untraced_range_returns_no_traces():
    got = simulate_range(SystemConfig(), Policy.PROPOSED, 7, 0, 5, False, False)
    assert got[4] == []


def logged(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the (logger, level, message) of every
    package log record it made."""
    records = []
    handler = logging.Handler()
    handler.emit = lambda r: records.append((r.name, r.levelno, r.getMessage()))
    package = logging.getLogger("urllc_slice")
    package.addHandler(handler)
    try:
        return fn(*args, **kwargs), records
    finally:
        package.removeHandler(handler)


def assert_same_run(got, want):
    assert got[0].entries.tobytes() == want[0].entries.tobytes()
    assert got[1].weights.weights.tobytes() == want[1].weights.weights.tobytes()
    fields = ("objective", "feasible", "max_achievable_urllc_rate", "iterations")
    assert [getattr(got[1], f) for f in fields] == [getattr(want[1], f) for f in fields]
    assert got[1].weights.var_level == want[1].weights.var_level
    assert got[2].to_dict() == want[2].to_dict()
    assert _json_indented(got[2].to_dict()) == _json_indented(want[2].to_dict())


OWN = "own active set"


@pytest.mark.parametrize("post_round", [False, True])
@pytest.mark.parametrize(
    "kw, shortcut",
    [
        ({}, True),
        ({"num_embb_users": 40, "num_rbs": 200}, True),
        ({"urllc_outage_budget": 0.01, "snr_min_db": -10.0, "snr_max_db": 5.0}, True),
        # a user at zero spectral efficiency: the loop at the all-active assignment,
        ({"snr_min_db": -400.0, "snr_max_db": 30.0}, False),
        # and answered at the assignment of the slot's own active set
        ({"snr_min_db": -400.0, "snr_max_db": 30.0}, OWN),
    ],
)
def test_a_slot_given_its_chunk_row_equals_one_computing_it(kw, shortcut, post_round):
    own, shortcut = shortcut == OWN, bool(shortcut)
    cfg = SystemConfig(**kw)
    seed, slots = 7, 12
    all_active = alternating.all_active_assignment(cfg)
    fading, urllc_fading, _ = simulator._slot_draws(cfg, seed, 0, slots)
    gains, urllc_gains = _fading_gains(cfg, *sample_mean_snr(cfg, mean_snr_rng(seed)), fading, urllc_fading)
    eff, urllc_eff = _efficiencies(cfg, gains, urllc_gains)
    assignments, stacked = [all_active] * slots, all_active
    if own:
        assignments, stacked = alternating._row_assignments(cfg, all_active, eff)
        assert not any(a.mask.all() for a in assignments)
    rounds = alternating._all_active_rounds(stacked, urllc_placement._config_terms(cfg), eff, urllc_eff, post_round)
    assert rounds.answered.tolist() == [shortcut] * slots
    feasible = []
    for i, assignment in enumerate(assignments):
        chan = ChannelRealization(gains[i], urllc_gains[i])
        args = {"post_round": post_round, "all_active": assignment}
        given, given_log = logged(alternating.run, cfg, chan, row=(rounds, i), **args)
        alone, alone_log = logged(alternating.run, cfg, chan, **args)
        plain, plain_log = logged(alternating.run, cfg, chan, post_round=post_round)
        assert (given[0] is assignment.binary) == (alone[0] is assignment.binary) == shortcut
        assert_same_run(given, alone)
        assert_same_run(given, plain)
        # the degenerate-user warning included, answered or not
        assert given_log == alone_log == plain_log
        assert len(plain_log) == (0 if (eff[i] > 0.0).all() else 1)
        feasible.append(given[1].feasible)
    if cfg.urllc_outage_budget == 0.01:
        assert not any(feasible)
