"""The baseline policies in ``simulator._simulate_range``, which draws,
derives and evaluates a range of slots as arrays, against a reference loop
over the public per-slot API (``slot_rng``, ``sample_channel``,
``sample_urllc_load``, the scheduler, the baseline solver and
``evaluate_slot``): the same four arrays, bit for bit, and the same log
records. The proposed policy's counterpart is in ``test_simulator_arrays.py``,
whose config strategy this shares."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_simulator_arrays import assert_same_range as assert_same_proposed_range
from test_simulator_arrays import logged, outcome_of, range_cases, simulate_range
from test_simulator_arrays import reference_range as reference_proposed_range

from urllc_slice import alternating, embb_scheduler, simulator, urllc_placement
from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
from urllc_slice.model import (
    SystemConfig,
    evaluate_slot,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
)
from urllc_slice.simulator import Policy, mean_snr_rng, slot_rng
from urllc_slice.urllc_placement import solve_baseline1, solve_baseline2

SOLVERS = {Policy.BASELINE1: solve_baseline1, Policy.BASELINE2: solve_baseline2}


def reference_range(cfg, policy, seed, start, stop):
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    rates, thetas, outages, feasible = [], [], [], []
    for slot in range(start, stop):
        rng = slot_rng(seed, slot)
        chan = sample_channel(cfg, means[0], means[1], rng)
        load = sample_urllc_load(cfg, rng)
        binary = round_to_binary(solve_fractional(cfg, chan), cfg)
        placement = SOLVERS[policy](cfg, chan, binary)
        outcome = evaluate_slot(cfg, chan, binary, placement.weights, load)
        rates.append(outcome.embb_rate_per_user)
        thetas.append(outcome.punctured_bw)
        outages.append(outcome.outage)
        feasible.append(placement.feasible)
    return np.array(rates), np.array(thetas), np.array(outages), np.array(feasible), []


def assert_same_range(cfg, policy, seed, start, stop):
    got = outcome_of(simulate_range, cfg, policy, seed, start, stop, False, False)
    want = outcome_of(reference_range, cfg, policy, seed, start, stop)
    if isinstance(want, str):
        assert got == want
        return
    for g, w in zip(got[:4], want[:4]):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()
    assert got[4] == []


@pytest.mark.parametrize("policy", list(SOLVERS))
@settings(max_examples=40, deadline=None)
@given(range_cases())
@example(({"snr_min_db": -400.0, "snr_max_db": 30.0}, 7, 0, 20, False))
@example(({"puncture_prob": 0.0}, 7, 0, 10, False))
@example(({"puncture_prob": 1.0}, 7, 0, 10, False))
@example(({"urllc_outage_budget": 0.01, "snr_min_db": -10.0, "snr_max_db": 5.0}, 7, 0, 20, False))
@example(({"num_embb_users": 40, "num_rbs": 200}, 20261, 0, 12, False))
@example(({}, 2**32 - 1, 0, 10, False))
@example(({}, 2**32, 0, 10, False))
def test_array_path_equals_the_per_slot_loop(policy, case):
    kw, seed, start, stop, _ = case
    cfg = SystemConfig(**kw)
    assert cfg.validate() == []
    assert_same_range(cfg, policy, seed, start, stop)


KERNELS = {Policy.BASELINE1: "_solve_rows", Policy.BASELINE2: "_baseline2_rows"}


@pytest.mark.parametrize("policy", list(SOLVERS))
def test_no_baseline_slot_runs_per_slot(monkeypatch, policy):
    # every slot, one with a zero efficiency too, takes round 1's assignment
    # of its own active set and its row of one kernel call per chunk, without
    # a ChannelRealization, a per-slot assignment or a per-slot solve; an
    # assignment is rounded once per distinct active set
    kernel, rows, rounded = getattr(urllc_placement, KERNELS[policy]), [], []
    rounding = alternating.round_to_binary

    def counting_kernel(terms, phi, eff, urllc_eff):
        rows.append(eff > 0.0)
        return kernel(terms, phi, eff, urllc_eff)

    def counting_rounding(frac, cfg):
        rounded.append(frac)
        return rounding(frac, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-slot call")

    monkeypatch.setattr(urllc_placement, KERNELS[policy], counting_kernel)
    monkeypatch.setattr(alternating, "round_to_binary", counting_rounding)
    for module, name in [
        (simulator, "ChannelRealization"),
        (simulator, "solve_fractional"),
        (simulator, "round_to_binary"),
        (embb_scheduler, "solve_fractional"),
        (embb_scheduler, "round_to_binary"),
        (alternating, "solve_fractional"),
        (urllc_placement, "solve_baseline1"),
        (urllc_placement, "solve_baseline2"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    simulate_range(SystemConfig(), policy, 7, 0, 100, False, False)
    assert [len(r) for r in rows] == [100] and rows[0].all()
    assert len(rounded) == 1  # all_active_assignment's
    # near -156 dB a user is degenerate in some slots only
    cfg = SystemConfig(num_embb_users=3, snr_min_db=-165.0, snr_max_db=-150.0)
    rows.clear()
    rounded.clear()
    simulate_range(cfg, policy, 7, 0, 100, False, False)
    [positive] = rows
    assert len(positive) == 100 and 0 < int((~positive.all(axis=1)).sum()) < 100
    masks = {tuple(row) for row in positive.tolist()} - {(True,) * 3}
    assert len(rounded) == 1 + len(masks) > 2
    monkeypatch.undo()
    assert_same_range(cfg, policy, 7, 0, 100)


@pytest.mark.parametrize("post_round", [False, True])
@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize(
    "kw, slots, warned",
    [
        # a user degenerate in some slots only, and in every slot
        ({"num_embb_users": 3, "snr_min_db": -165.0, "snr_max_db": -150.0}, 40, 17),
        ({"snr_min_db": -400.0, "snr_max_db": 30.0}, 20, 20),
    ],
)
def test_held_log_records_equal_the_per_slot_loops(kw, slots, warned, policy, post_round):
    # the degenerate-user warnings that a range holds for a run are the
    # per-slot reference loop's: the same loggers, levels and messages, in
    # slot order
    cfg = SystemConfig(**kw)
    held = simulator._HeldRecords(1)
    for _ in simulator._simulate_range([(cfg, policy, False)], 7, 0, slots, post_round, held):
        pass
    got = [(name, level, message) for name, level, _, _, message, _ in held.take(0)]
    if policy == Policy.PROPOSED:
        want = logged(reference_proposed_range, cfg, 7, 0, slots, post_round)[1]
    else:
        want = logged(reference_range, cfg, policy, 7, 0, slots)[1]
    assert got == want
    assert len(want) == warned
    assert {(name, level) for name, level, _ in want} == {("urllc_slice.embb_scheduler", logging.WARNING)}


@pytest.mark.parametrize("users", [10, 2, 1])
@pytest.mark.parametrize("policy", list(Policy))
def test_ranges_longer_than_a_chunk_join_in_slot_order(monkeypatch, policy, users):
    # three chunks, the last one short
    cfg = SystemConfig(num_embb_users=users)
    draws_per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * draws_per_slot)
    assert simulator._chunk_slots(cfg) == 7
    if policy == Policy.PROPOSED:
        assert_same_proposed_range(cfg, 11, 3, 20, False)
    else:
        assert_same_range(cfg, policy, 11, 3, 20)
    # a run folds its chunks (here six, five of 7 slots and one of 5) in slot
    # order: its metrics are those of the joined rows, bit for bit, a single
    # user's column included, which NumPy sums pairwise
    rates, thetas, outages, feasible, _ = simulate_range(cfg, policy, 11, 0, 40, False, False)
    metrics = simulator.run_simulation(cfg, policy, 40, 11, workers=3)
    assert metrics.per_user_mean_rate.tobytes() == rates.mean(axis=0).tobytes()
    assert metrics.per_user_mean_theta.tobytes() == thetas.mean(axis=0).tobytes()
    sum_rates = rates.sum(axis=1)
    assert metrics.mean_sum_rate == float(sum_rates.mean())
    assert metrics.ecdf_values.tobytes() == np.unique(sum_rates).tobytes()
    assert metrics.embb_reliability == float((rates >= cfg.target_rate).mean())
    assert metrics.urllc_outage_rate == float(outages.mean())
    assert metrics.n_infeasible_slots == int((~feasible).sum())


@pytest.mark.parametrize(
    "shape, chunk",
    [((1000, 10), 7), ((5000, 40), 3120), ((10007, 3), 1000), ((300, 2), 1), ((300, 1), 7), ((1, 4), 1)],
)
def test_column_means_of_chunks_equal_the_mean_of_the_whole(shape, chunk):
    rng = np.random.default_rng(shape[0] * shape[1])
    rows = rng.exponential(size=shape) * 1e6
    rows[rng.random(shape) < 0.1] = 0.0
    if shape[1] > 1:
        rows[:, 0] = -0.0  # a column of negative zeros keeps its sign as the whole's does
    means = simulator._ColumnMeans()
    for lo in range(0, shape[0], chunk):
        means.add(rows[lo : lo + chunk])
    assert means.mean().tobytes() == rows.mean(axis=0).tobytes()


@pytest.mark.parametrize(
    "kw, slots",
    [
        ({}, 65_536 // 21),
        ({"num_embb_users": 1}, 65_536 // 12),
        ({"num_minislots": 100_000}, 1),
        ({"num_urllc_users": 100_000}, 1),
        ({"num_urllc_users": 30_000, "num_minislots": 30_000}, 1),
        ({"num_embb_users": 40, "num_rbs": 200}, 65_536 // 51),
    ],
)
def test_a_chunk_holds_a_bounded_number_of_draws(kw, slots):
    # the S x C and S x M draws count as well as the S x U ones
    assert simulator._chunk_slots(SystemConfig(**kw)) == slots


@pytest.mark.parametrize("wide", ["num_minislots", "num_urllc_users"])
def test_a_range_of_wide_slots_allocates_about_one_slot_at_a_time(wide):
    import tracemalloc

    cfg = SystemConfig(**{wide: 100_000})
    tracemalloc.start()
    try:
        simulate_range(cfg, Policy.BASELINE2, 7, 0, 40, False, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one slot's 100 000 draws are 0.8 MB; forty at once would pass 32 MB
    assert peak < 12e6
