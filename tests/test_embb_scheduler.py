import logging
import math

import numpy as np
import pytest

from urllc_slice.embb_scheduler import (
    active_user_mask,
    proportional_fair_objective,
    round_to_binary,
    solve_fractional,
)
from urllc_slice.model import ChannelRealization, SchedulingMatrix, SystemConfig


def make_cfg(num_users, num_rbs, rb_bandwidth=1e6, **kw):
    return SystemConfig(
        num_embb_users=num_users,
        num_rbs=num_rbs,
        num_urllc_users=2,
        rb_bandwidth=rb_bandwidth,
        **kw,
    )


def snr_channel(cfg, embb_snr):
    return ChannelRealization(
        embb_gain=np.asarray(embb_snr, float) * cfg.noise_power / cfg.embb_tx_power,
        urllc_gain=np.full(cfg.num_urllc_users, 5.0),
    )


def random_feasible_matrices(rng, count, num_rbs, num_users):
    entries = rng.random((count, num_rbs, num_users))
    entries /= entries.sum(axis=2, keepdims=True)
    entries *= rng.random((count, num_rbs, 1))  # random per-RB utilization
    return entries


def test_single_user_gets_all_rbs():
    cfg = make_cfg(1, 5)
    frac = solve_fractional(cfg, snr_channel(cfg, [7.0]))
    np.testing.assert_allclose(frac.entries, 1.0, atol=1e-9)


def test_equal_share_despite_unequal_gains():
    cfg = make_cfg(2, 4)
    chan = snr_channel(cfg, [1.0, 500.0])
    frac = solve_fractional(cfg, chan)
    phi = frac.user_bandwidth(cfg.rb_bandwidth)
    np.testing.assert_allclose(phi, [2e6, 2e6], rtol=1e-8)
    share = cfg.total_bandwidth() / 2
    closed_form = sum(
        math.log(share * c)
        for c in np.log2(1 + cfg.embb_tx_power * chan.embb_gain / cfg.noise_power)
    )
    got = proportional_fair_objective(cfg, chan, frac)
    assert got == pytest.approx(closed_form, rel=1e-8)


def test_beats_random_feasible_matrices():
    cfg = make_cfg(3, 5, rb_bandwidth=[0.2e6, 0.5e6, 1.0e6, 2.0e6, 3.3e6])
    chan = snr_channel(cfg, [2.0, 10.0, 80.0])
    frac = solve_fractional(cfg, chan)
    solver_obj = proportional_fair_objective(cfg, chan, frac)
    rng = np.random.default_rng(0)
    entries = random_feasible_matrices(rng, 10_000, cfg.num_rbs, cfg.num_embb_users)
    phis = np.einsum("b,nbu->nu", cfg.rb_bandwidth, entries)
    coeff = np.log2(1 + cfg.embb_tx_power * chan.embb_gain / cfg.noise_power)
    objs = np.log(phis * coeff).sum(axis=1)
    assert solver_obj >= objs.max() - 1e-9


def test_degenerate_user_excluded(caplog):
    cfg = make_cfg(3, 6)
    chan = snr_channel(cfg, [4.0, 0.0, 9.0])  # zero gain cannot enter the log
    assert list(active_user_mask(cfg, chan)) == [True, False, True]
    with caplog.at_level(logging.WARNING):
        frac = solve_fractional(cfg, chan)
    assert "degenerate" in caplog.text
    phi = frac.user_bandwidth(cfg.rb_bandwidth)
    assert phi[1] == 0.0
    np.testing.assert_allclose(phi[[0, 2]], cfg.total_bandwidth() / 2, rtol=1e-8)


def test_fully_punctured_user_excluded():
    cfg = make_cfg(2, 4, puncture_prob=1.0)  # mean load fraction is 1
    chan = snr_channel(cfg, [4.0, 9.0])
    weights = np.array([1.0, 0.2])  # user 0 punctured away in expectation
    assert list(active_user_mask(cfg, chan, weights)) == [False, True]
    frac = solve_fractional(cfg, chan, weights)
    assert frac.user_bandwidth(cfg.rb_bandwidth)[0] == 0.0


def test_rounding_idempotent_on_binary():
    cfg = make_cfg(3, 6)
    rng = np.random.default_rng(1)
    for _ in range(50):
        entries = np.zeros((6, 3))
        entries[np.arange(6), rng.integers(0, 3, 6)] = 1.0
        binary = SchedulingMatrix(entries)
        rounded = round_to_binary(binary, cfg)
        np.testing.assert_array_equal(rounded.entries, entries)


def test_rounding_equal_claims_alternates():
    # equal bandwidth everywhere: the greedy trace alternates users, giving
    # each exactly two RBs (ties resolve toward the lower index)
    cfg = make_cfg(2, 4)
    frac = SchedulingMatrix(np.full((4, 2), 0.5))
    rounded = round_to_binary(frac, cfg)
    expected = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
    np.testing.assert_array_equal(rounded.entries, expected)
    np.testing.assert_allclose(rounded.user_bandwidth(cfg.rb_bandwidth), [2e6, 2e6])


def test_rounding_bandwidth_bound():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        num_users = int(rng.integers(1, 6))
        num_rbs = int(rng.integers(num_users, 12))
        f_b = rng.uniform(0.1e6, 2e6, num_rbs)
        cfg = make_cfg(num_users, num_rbs, rb_bandwidth=f_b)
        entries = rng.random((num_rbs, num_users)) + 1e-6
        entries /= entries.sum(axis=1, keepdims=True)
        frac = SchedulingMatrix(entries)
        rounded = round_to_binary(frac, cfg)
        assert rounded.is_binary()
        assert np.all(rounded.entries.sum(axis=1) <= 1)
        gap = np.abs(
            rounded.user_bandwidth(f_b) - frac.user_bandwidth(f_b)
        )
        assert np.all(gap <= f_b.max() + 1e-6)


def test_rounding_loss_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        num_users = int(rng.integers(2, 5))
        num_rbs = int(rng.integers(2 * num_users, 20))
        f_b = rng.uniform(0.2e6, 1.5e6, num_rbs)
        cfg = make_cfg(num_users, num_rbs, rb_bandwidth=f_b)
        chan = snr_channel(cfg, rng.uniform(1, 100, num_users))
        frac = solve_fractional(cfg, chan)
        rounded = round_to_binary(frac, cfg)
        phi_frac = frac.user_bandwidth(f_b)
        obj_frac = proportional_fair_objective(cfg, chan, frac)
        obj_round = proportional_fair_objective(cfg, chan, rounded)
        allowance = num_users * math.log(1 + f_b.max() / phi_frac.min())
        assert obj_round >= obj_frac - allowance


def test_equal_share_with_uniform_bandwidth():
    rng = np.random.default_rng(4)
    for _ in range(20):
        num_users = int(rng.integers(2, 8))
        num_rbs = int(rng.integers(num_users, 40))
        cfg = make_cfg(num_users, num_rbs, rb_bandwidth=float(rng.uniform(1e5, 1e6)))
        chan = snr_channel(cfg, rng.uniform(0.5, 200, num_users))
        phi = solve_fractional(cfg, chan).user_bandwidth(cfg.rb_bandwidth)
        target = cfg.total_bandwidth() / num_users
        np.testing.assert_allclose(phi, target, rtol=1e-6)


def test_scale_invariance_of_argmax():
    cfg = make_cfg(3, 7)
    chan = snr_channel(cfg, [2.0, 17.0, 60.0])
    scaled = ChannelRealization(chan.embb_gain * 39.0, chan.urllc_gain)
    a = solve_fractional(cfg, chan)
    b = solve_fractional(cfg, scaled)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_fractional_feasibility():
    rng = np.random.default_rng(5)
    for _ in range(20):
        num_users = int(rng.integers(1, 6))
        num_rbs = int(rng.integers(num_users, 15))
        cfg = make_cfg(num_users, num_rbs, rb_bandwidth=rng.uniform(1e5, 1e6, num_rbs))
        chan = snr_channel(cfg, rng.uniform(0.5, 100, num_users))
        frac = solve_fractional(cfg, chan)
        assert frac.validate() == []
        assert np.all(frac.entries.sum(axis=1) <= 1 + 1e-9)


def test_closed_form_is_exact_equal_share():
    cfg = make_cfg(4, 6, rb_bandwidth=[0.2e6, 0.5e6, 1.0e6, 2.0e6, 3.3e6, 0.7e6])
    chan = snr_channel(cfg, [2.0, 10.0, 80.0, 0.5])
    expected = np.full((6, 4), 0.25)
    np.testing.assert_array_equal(solve_fractional(cfg, chan).entries, expected)

    punctured = make_cfg(4, 6, puncture_prob=1.0)  # mean load fraction is 1
    weights = np.array([1.0, 0.3, 1.2, 0.0])  # w * kappa >= 1 deactivates users 0 and 2
    frac = solve_fractional(punctured, snr_channel(punctured, [2.0, 10.0, 80.0, 0.5]), weights)
    expected = np.zeros((6, 4))
    expected[:, [1, 3]] = 0.5
    np.testing.assert_array_equal(frac.entries, expected)


def test_rounding_returns_fresh_copies_of_cached_result():
    cfg = make_cfg(3, 5)
    frac = SchedulingMatrix(np.full((5, 3), 1.0 / 3.0))
    first = round_to_binary(frac, cfg)
    expected = first.entries.copy()
    first.entries[:] = 7.0
    np.testing.assert_array_equal(round_to_binary(frac, cfg).entries, expected)


def test_rounding_depends_on_rb_bandwidth():
    frac = SchedulingMatrix(np.full((3, 2), 0.5))
    uniform = round_to_binary(frac, make_cfg(2, 3))
    skewed = round_to_binary(frac, make_cfg(2, 3, rb_bandwidth=[1e6, 1e6, 3e6]))
    np.testing.assert_array_equal(uniform.entries, [[1, 0], [0, 1], [1, 0]])
    np.testing.assert_array_equal(skewed.entries, [[0, 1], [0, 1], [1, 0]])


def test_rounding_keyed_on_repeated_row_matches_full_matrix():
    from urllc_slice.embb_scheduler import _greedy_rounding

    cfg = make_cfg(4, 6, rb_bandwidth=[1e6, 3e6, 2e6, 2e6, 5e5, 1e6])
    shares = np.tile([0.5, 0.0, 0.5, 0.0], (6, 1))
    _greedy_rounding.cache_clear()
    by_row = round_to_binary(SchedulingMatrix(shares), cfg).entries
    # a Fortran-order copy and a matrix that differs in its last row take other keys
    _greedy_rounding.cache_clear()
    by_copy = round_to_binary(SchedulingMatrix(np.asfortranarray(shares)), cfg).entries
    np.testing.assert_array_equal(by_row, by_copy)
    changed = shares.copy()
    changed[-1] = [0.0, 0.5, 0.0, 0.5]
    last = round_to_binary(SchedulingMatrix(changed), cfg).entries
    assert last[-1, [1, 3]].sum() == 1.0 and last[-1, [0, 2]].sum() == 0.0
    np.testing.assert_array_equal(by_row[:, [1, 3]], 0.0)
