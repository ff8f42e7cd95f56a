"""The baseline policies in ``simulator._simulate_range``, which draws,
derives and evaluates a range of slots as arrays, against a reference loop
over the public per-slot API (``slot_rng``, ``sample_channel``,
``sample_urllc_load``, the scheduler, the baseline solver and
``evaluate_slot``): the same four arrays, bit for bit. The proposed policy's
counterpart is in ``test_simulator_arrays.py``, whose config strategy this
shares."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_simulator_arrays import assert_same_range as assert_same_proposed_range
from test_simulator_arrays import outcome_of, range_cases, simulate_range

from urllc_slice import simulator
from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
from urllc_slice.model import (
    SystemConfig,
    evaluate_slot,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
    spectral_efficiencies,
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


def test_only_baseline2_slots_with_a_zero_efficiency_run_per_slot(monkeypatch):
    # every other slot takes the range's all-active assignment and its row of
    # the chunk kernel, without a ChannelRealization or a per-slot solve
    real_step, chans = simulator._policy_step, []

    def counting(cfg, policy, chan, *rest):
        chans.append(chan)
        return real_step(cfg, policy, chan, *rest)

    monkeypatch.setattr(simulator, "_policy_step", counting)
    simulate_range(SystemConfig(), Policy.BASELINE2, 7, 0, 100, False, False)
    assert chans == []
    # near -156 dB a user is degenerate in some slots only
    cfg = SystemConfig(num_embb_users=3, snr_min_db=-165.0, snr_max_db=-150.0)
    simulate_range(cfg, Policy.BASELINE2, 7, 0, 100, False, False)
    assert 0 < len(chans) < 100
    assert all((spectral_efficiencies(cfg, chan)[0] <= 0.0).any() for chan in chans)


def test_only_baseline1_slots_with_a_zero_efficiency_run_per_slot(monkeypatch):
    # every other slot takes the range's all-active assignment and its row of
    # _solve_rows with the penalty off, without a ChannelRealization, a
    # per-slot assignment or a solve_baseline1 call
    real_step, chans, solved = simulator._policy_step, [], []

    def counting(cfg, policy, chan, *rest):
        chans.append(chan)
        return real_step(cfg, policy, chan, *rest)

    def counting_solve(cfg, chan, mat):
        solved.append(chan)
        return solve_baseline1(cfg, chan, mat)

    monkeypatch.setattr(simulator, "_policy_step", counting)
    monkeypatch.setattr(simulator.urllc_placement, "solve_baseline1", counting_solve)
    simulate_range(SystemConfig(), Policy.BASELINE1, 7, 0, 100, False, False)
    assert chans == solved == []
    # near -156 dB a user is degenerate in some slots only
    cfg = SystemConfig(num_embb_users=3, snr_min_db=-165.0, snr_max_db=-150.0)
    simulate_range(cfg, Policy.BASELINE1, 7, 0, 100, False, False)
    assert 0 < len(chans) < 100
    assert solved == chans
    assert all((spectral_efficiencies(cfg, chan)[0] <= 0.0).any() for chan in chans)


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
