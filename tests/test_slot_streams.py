"""The range-wide slot streams of ``simulator._simulate_range`` against NumPy
itself: the SeedSequence words, the PCG64 states and the draws equal those of
``default_rng(SeedSequence((seed, 1, slot)))``, computed by the installed
NumPy at test time, so a change in NumPy's seeding fails here instead of
silently changing outputs. The array forms of the sampling and rate formulas
equal their one-slot library functions bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urllc_slice import simulator
from urllc_slice.model import (
    PunctureWeights,
    SchedulingMatrix,
    SystemConfig,
    _efficiencies,
    _fading_gains,
    _minislot_loads,
    evaluate_slot,
    evaluate_slots,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
    spectral_efficiencies,
)
from urllc_slice.simulator import _pcg64_state, _seed_words, _slot_draws, mean_snr_rng, slot_rng

SEEDS = [0, 1, 7, 20261, 2**31, 2**32 - 1]
SLOTS = [0, 1, 99_999]
# users, URLLC users and minislots differ, so a draw taken from the wrong
# stream or in the wrong order shows
CFG = SystemConfig(num_embb_users=5, num_urllc_users=3, num_minislots=11)


def numpy_words(seed, slot):
    return np.random.SeedSequence((seed, 1, slot)).generate_state(4, np.uint64)


def numpy_draws(cfg, rng):
    """What ``sample_channel`` and then ``sample_urllc_load`` draw."""
    return (
        rng.exponential(1.0, cfg.num_embb_users),
        rng.exponential(1.0, cfg.num_urllc_users),
        rng.random(cfg.num_minislots),
    )


def assert_draws_equal_numpy(cfg, seed, start, stop):
    got = _slot_draws(cfg, seed, start, stop)
    for i, slot in enumerate(range(start, stop)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1, slot)))
        for g, w in zip(got, numpy_draws(cfg, rng)):
            assert g[i].tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slot", SLOTS)
def test_words_states_and_draws_equal_numpy(seed, slot):
    words = _seed_words(seed, slot, slot + 1)
    assert words.dtype == np.uint64 and words.shape == (1, 4)
    np.testing.assert_array_equal(words[0], numpy_words(seed, slot))
    want = np.random.PCG64(np.random.SeedSequence((seed, 1, slot))).state
    assert _pcg64_state(words[0].tolist()) == want
    assert_draws_equal_numpy(CFG, seed, slot, slot + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_range_of_words_equals_numpy_slot_by_slot(seed):
    words = _seed_words(seed, 99_990, 100_010)
    for i, slot in enumerate(range(99_990, 100_010)):
        np.testing.assert_array_equal(words[i], numpy_words(seed, slot))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 12),
    st.integers(1, 6),
    st.integers(1, 12),
)
def test_range_streams_equal_numpy(seed, start, length, users, urllc_users, minislots):
    stop = min(start + length, 2**32)
    words = _seed_words(seed, start, stop)
    for i, slot in enumerate(range(start, stop)):
        np.testing.assert_array_equal(words[i], numpy_words(seed, slot))
    cfg = SystemConfig(
        num_embb_users=users, num_urllc_users=urllc_users, num_minislots=minislots
    )
    assert_draws_equal_numpy(cfg, seed, start, stop)


def recorded_slot_rng(monkeypatch):
    """The slots ``slot_rng`` is called for from here on."""
    calls = []

    def recording(seed, slot):
        calls.append(slot)
        return slot_rng(seed, slot)

    monkeypatch.setattr(simulator, "slot_rng", recording)
    return calls


@pytest.mark.parametrize(
    "seed, start, stop",
    [(2**32, 0, 5), (2**64, 3, 6), (2**32 + 7, 10, 12), (7, 2**32 - 2, 2**32 + 1)],
)
def test_multi_word_entropy_falls_back_to_slot_rng(monkeypatch, seed, start, stop):
    calls = recorded_slot_rng(monkeypatch)
    got = _slot_draws(CFG, seed, start, stop)
    assert calls == list(range(start, stop))
    for i, slot in enumerate(range(start, stop)):
        for g, w in zip(got, numpy_draws(CFG, slot_rng(seed, slot))):
            assert g[i].tobytes() == w.tobytes()


def test_one_word_entropy_does_not_call_slot_rng(monkeypatch):
    calls = recorded_slot_rng(monkeypatch)
    _slot_draws(CFG, 2**32 - 1, 2**32 - 3, 2**32)
    assert calls == []


def test_a_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError) as want:
        slot_rng(-1, 0)
    with pytest.raises(ValueError) as got:
        _slot_draws(CFG, -1, 0, 2)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [7, 2**32])
def test_array_formulas_equal_the_one_slot_functions(seed):
    cfg = SystemConfig(num_embb_users=13, num_urllc_users=9, puncture_prob=0.3, l_max=1000.0)
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    fading, urllc_fading, uniforms = _slot_draws(cfg, seed, 0, 30)
    gains, urllc_gains = _fading_gains(cfg, *means, fading, urllc_fading)
    eff, urllc_eff = _efficiencies(cfg, gains, urllc_gains)
    per_minislot, loads = _minislot_loads(cfg, uniforms)
    for slot in range(30):
        rng = slot_rng(seed, slot)
        chan = sample_channel(cfg, *means, rng)
        load = sample_urllc_load(cfg, rng)
        assert gains[slot].tobytes() == chan.embb_gain.tobytes()
        assert urllc_gains[slot].tobytes() == chan.urllc_gain.tobytes()
        assert per_minislot[slot].tobytes() == load.per_minislot.tobytes()
        assert float(loads[slot]) == load.total
        want_eff, want_urllc = spectral_efficiencies(cfg, chan)
        assert eff[slot].tobytes() == want_eff.tobytes()
        assert float(urllc_eff[slot]) == want_urllc


def test_evaluate_slots_equals_evaluate_slot_row_by_row():
    cfg = SystemConfig(num_embb_users=17, num_rbs=23, puncture_prob=0.7)
    rng = np.random.default_rng(3)
    means = sample_mean_snr(cfg, rng)
    chans, mats, weights, loads = [], [], [], []
    for _ in range(40):
        chans.append(sample_channel(cfg, *means, rng))
        entries = rng.random((cfg.num_rbs, cfg.num_embb_users))
        mats.append(SchedulingMatrix(entries / entries.sum(axis=1, keepdims=True)))
        # down to 1e-5, so that some slots are in outage
        weights.append(rng.random(cfg.num_embb_users) * 10.0 ** rng.uniform(-5, 0))
        loads.append(sample_urllc_load(cfg, rng).total)
    terms = [spectral_efficiencies(cfg, chan) for chan in chans]
    phi = np.array([mat.user_bandwidth(cfg.rb_bandwidth) for mat in mats])
    rates, theta, urllc, outage = evaluate_slots(
        cfg,
        np.array([t[0] for t in terms]),
        np.array([t[1] for t in terms]),
        phi,
        np.array(weights),
        np.array(loads),
    )
    assert outage.dtype == bool and outage.any() and not outage.all()
    for i in range(40):
        want = evaluate_slot(cfg, chans[i], mats[i], PunctureWeights(weights[i]), loads[i])
        assert rates[i].tobytes() == want.embb_rate_per_user.tobytes()
        assert theta[i].tobytes() == want.punctured_bw.tobytes()
        assert float(urllc[i]) == want.urllc_rate
        assert bool(outage[i]) is want.outage


def test_evaluate_slots_rejects_a_load_above_lmax():
    cfg = SystemConfig(num_embb_users=2)
    ones = np.ones((3, 2))
    with pytest.raises(ValueError, match="exceeds l_max"):
        evaluate_slots(cfg, ones, np.ones(3), ones, ones, np.array([0.0, cfg.l_max * 1.01, 0.0]))
