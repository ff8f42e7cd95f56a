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
from test_simulator_arrays import outcome_of, range_cases

from urllc_slice import simulator
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
    got = outcome_of(simulator._simulate_range, cfg, policy, seed, start, stop, False, False)
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


@pytest.mark.parametrize("policy", list(Policy))
def test_ranges_longer_than_a_chunk_join_in_slot_order(monkeypatch, policy):
    # three chunks, the last one short
    cfg = SystemConfig()
    draws_per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * draws_per_slot)
    assert simulator._chunk_slots(cfg) == 7
    if policy == Policy.PROPOSED:
        assert_same_proposed_range(SystemConfig(), 11, 3, 20, False)
    else:
        assert_same_range(SystemConfig(), policy, 11, 3, 20)


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
        simulator._simulate_range(cfg, Policy.BASELINE2, 7, 0, 40, False, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one slot's 100 000 draws are 0.8 MB; forty at once would pass 32 MB
    assert peak < 12e6
