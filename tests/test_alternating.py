from dataclasses import replace

import numpy as np
import pytest

from urllc_slice import alternating
from urllc_slice.alternating import run
from urllc_slice.model import ChannelRealization, SystemConfig, sample_channel, sample_mean_snr


def default_channel(cfg, seed=0):
    rng = np.random.default_rng(seed)
    means = sample_mean_snr(cfg, rng)
    return sample_channel(cfg, means[0], means[1], rng)


def test_no_traffic_converges_immediately():
    cfg = SystemConfig(puncture_prob=0.0)
    chan = default_channel(cfg)
    binary, placement, trace = run(cfg, chan)
    assert trace.converged and trace.reason == "tolerance"
    assert len(trace.iterations) <= 2
    np.testing.assert_array_equal(placement.weights.weights, 0.0)
    # uniform RB bandwidth: everyone ends up with the same number of RBs
    phi = binary.user_bandwidth(cfg.rb_bandwidth)
    np.testing.assert_allclose(phi, cfg.total_bandwidth() / cfg.num_embb_users)


def test_single_user_converges_immediately():
    cfg = SystemConfig(num_embb_users=1, num_rbs=6)
    chan = default_channel(cfg, seed=1)
    binary, placement, trace = run(cfg, chan)
    assert trace.converged
    assert len(trace.iterations) <= 2
    np.testing.assert_array_equal(binary.entries, 1.0)


def test_trace_objective_monotone():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=2)
    _, _, trace = run(cfg, chan)
    objs = [e.fractional_objective for e in trace.iterations]
    assert np.all(np.diff(objs) >= -1e-8)
    assert objs[-1] >= max(objs) - 1e-8


def test_deterministic_trace():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=3)
    b1, p1, t1 = run(cfg, chan)
    b2, p2, t2 = run(cfg, chan)
    np.testing.assert_array_equal(b1.entries, b2.entries)
    np.testing.assert_array_equal(p1.weights.weights, p2.weights.weights)
    assert t1.to_dict() == t2.to_dict()


def test_infeasible_placement_flagged_and_clamped():
    cfg = replace(SystemConfig(), urllc_outage_budget=1e-6)
    chan = default_channel(cfg, seed=4)
    binary, placement, trace = run(cfg, chan)
    assert not placement.feasible
    assert not trace.iterations[0].placement_feasible
    assert trace.converged  # the clamp is a fixed point
    np.testing.assert_allclose(placement.weights.weights, 1.0, atol=1e-9)


def test_post_round_mode_runs():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=5)
    binary, placement, trace = run(cfg, chan, post_round=True)
    assert binary.is_binary()
    assert placement.feasible
    assert trace.converged


def test_initialization_modes_reach_same_point():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=6)
    _, p_zero, _ = run(cfg, chan, init="zero")
    _, p_one, _ = run(cfg, chan, init="one")
    _, p_rand, _ = run(cfg, chan, init="random", rng=np.random.default_rng(7))
    np.testing.assert_allclose(p_one.weights.weights, p_zero.weights.weights, atol=1e-5)
    np.testing.assert_allclose(p_rand.weights.weights, p_zero.weights.weights, atol=1e-5)


def test_random_init_requires_rng():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=8)
    with pytest.raises(ValueError):
        run(cfg, chan, init="random")


def test_trace_serializes():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=9)
    _, _, trace = run(cfg, chan)
    d = trace.to_dict()
    assert set(d) == {"converged", "reason", "iterations"}
    entry = d["iterations"][0]
    assert set(entry) == {
        "iteration",
        "fractional_objective",
        "rounded_objective",
        "weights",
        "user_bandwidth",
        "placement_feasible",
    }


def test_placement_solved_once_from_zero_init(monkeypatch):
    calls = []
    solve = alternating.solve_placement

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(alternating, "solve_placement", counting)
    cfg = SystemConfig()
    _, _, trace = run(cfg, default_channel(cfg, seed=10))
    assert len(calls) == 1
    assert len(trace.iterations) == 2
    assert trace.converged and trace.reason == "tolerance"


def test_one_init_at_full_load_reaches_zero_init_point():
    # init="one" at a mean load fraction of 1 deactivates every user in round 1
    cfg = SystemConfig(puncture_prob=1.0)
    chan = default_channel(cfg, seed=11)
    _, p_zero, _ = run(cfg, chan, init="zero")
    _, p_one, trace = run(cfg, chan, init="one")
    assert trace.converged
    np.testing.assert_allclose(p_one.weights.weights, p_zero.weights.weights, atol=1e-9)


def test_repeated_round_copies_its_objectives(monkeypatch):
    calls = []
    objective = alternating.placement_objective

    def counting(*args, **kwargs):
        calls.append(1)
        return objective(*args, **kwargs)

    monkeypatch.setattr(alternating, "placement_objective", counting)
    cfg = SystemConfig()
    _, _, trace = run(cfg, default_channel(cfg, seed=12))
    first, second = trace.iterations
    assert len(calls) == 2
    assert first.fractional_objective == second.fractional_objective
    assert first.rounded_objective == second.rounded_objective
