from dataclasses import replace

import numpy as np
import pytest

from urllc_slice import alternating
from urllc_slice.alternating import run
from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
from urllc_slice.model import ChannelRealization, ConfigError, SystemConfig, sample_channel, sample_mean_snr
from urllc_slice.urllc_placement import placement_objective


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
    assert len(calls) == 1
    assert first.fractional_objective == second.fractional_objective
    assert first.rounded_objective == second.rounded_objective


def _count_calls(monkeypatch, names):
    calls = {name: 0 for name in names}
    for name in names:
        fn = getattr(alternating, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(alternating, name, counting)
    return calls


@pytest.mark.parametrize("post_round", [False, True])
def test_repeated_active_set_skips_every_block(monkeypatch, post_round):
    calls = _count_calls(monkeypatch, ["solve_fractional", "round_to_binary", "solve_placement"])
    cfg = SystemConfig()
    _, _, trace = run(cfg, default_channel(cfg, seed=13), post_round=post_round)
    # round 1 calls each block once; round 2 sees the same active set
    assert len(trace.iterations) == 2
    assert calls == {"solve_fractional": 1, "round_to_binary": 1, "solve_placement": 1}
    first, second = trace.iterations
    assert first.user_bandwidth == second.user_bandwidth
    assert first.user_bandwidth is not second.user_bandwidth


@pytest.mark.parametrize("post_round", [False, True])
def test_one_placement_objective_call_per_slot(monkeypatch, post_round):
    calls = _count_calls(monkeypatch, ["placement_objective"])
    cfg = SystemConfig()
    for seed in range(5):
        run(cfg, default_channel(cfg, seed=20 + seed), post_round=post_round)
    assert calls == {"placement_objective": 5}


@pytest.mark.parametrize("post_round", [False, True])
@pytest.mark.parametrize("cfg_kw", [{}, {"urllc_outage_budget": 1e-6}, {"puncture_prob": 0.0}])
def test_trace_objectives_equal_fresh_evaluations(post_round, cfg_kw):
    # the placement's own objective stands in for one trace objective
    cfg = SystemConfig(**cfg_kw)
    chan = default_channel(cfg, seed=14)
    _, _, trace = run(cfg, chan, post_round=post_round)
    frac = solve_fractional(cfg, chan, np.zeros(cfg.num_embb_users))
    binary = round_to_binary(frac, cfg)
    for entry in trace.iterations:
        w = np.array(entry.weights)
        assert entry.fractional_objective == placement_objective(cfg, chan, frac, w)
        assert entry.rounded_objective == placement_objective(cfg, chan, binary, w)


def test_new_active_set_solves_again(monkeypatch):
    # init="one" at full load empties the active set in round 1 only
    calls = _count_calls(monkeypatch, ["solve_fractional", "solve_placement"])
    cfg = SystemConfig(puncture_prob=1.0)
    _, _, trace = run(cfg, default_channel(cfg, seed=15), init="one")
    assert len(trace.iterations) == 3
    assert calls == {"solve_fractional": 2, "solve_placement": 2}


@pytest.mark.parametrize("post_round", [False, True])
def test_infeasible_round_records_the_placement_caps(post_round):
    # an infeasible placement returns its caps, which are the round's weights;
    # l_max below the mean load gives caps under 1
    cfg = SystemConfig(urllc_outage_budget=1e-6, l_max=512.0)
    chan = default_channel(cfg, seed=4)
    _, placement, trace = run(cfg, chan, post_round=post_round)
    kappa = cfg.expected_load_fraction()
    caps = np.full(cfg.num_embb_users, min(1.0, (1.0 - 1e-12) / kappa))
    assert not placement.feasible and caps.max() < 1.0
    assert placement.weights.weights.tobytes() == caps.tobytes()
    for entry in trace.iterations:
        assert not entry.placement_feasible
        assert entry.weights == caps.tolist()


@pytest.mark.parametrize("post_round", [False, True])
@pytest.mark.parametrize(
    "cfg", [SystemConfig(), SystemConfig(puncture_prob=0.0), SystemConfig(urllc_outage_budget=1e-6)]
)
def test_all_active_assignment_gives_the_loops_result(cfg, post_round):
    all_active = alternating.all_active_assignment(cfg)
    for seed in range(5):
        chan = default_channel(cfg, seed=seed)
        b1, p1, t1 = run(cfg, chan, post_round=post_round)
        b2, p2, t2 = run(cfg, chan, post_round=post_round, all_active=all_active)
        assert b2 is all_active.binary  # every user is active: the shortcut answered
        np.testing.assert_array_equal(b1.entries, b2.entries)
        assert p1.weights.weights.tobytes() == p2.weights.weights.tobytes()
        fields = ("feasible", "objective", "max_achievable_urllc_rate", "iterations")
        assert [getattr(p1, f) for f in fields] == [getattr(p2, f) for f in fields]
        assert p1.weights.var_level == p2.weights.var_level
        assert t1.to_dict() == t2.to_dict()


def test_all_active_assignment_is_ignored_away_from_zero_init():
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=13)
    all_active = alternating.all_active_assignment(cfg)
    _, _, looped = run(cfg, chan, init="one")
    binary, _, trace = run(cfg, chan, init="one", all_active=all_active)
    assert binary is not all_active.binary
    assert trace.to_dict() == looped.to_dict()


@pytest.mark.parametrize("all_active", [False, True])
@pytest.mark.parametrize("max_iters", [0, -3])
def test_fewer_than_one_round_is_a_config_error(max_iters, all_active):
    cfg = SystemConfig()
    chan = default_channel(cfg, seed=14)
    given = alternating.all_active_assignment(cfg) if all_active else None
    with pytest.raises(ConfigError, match="max_iters must be >= 1"):
        run(cfg, chan, max_iters=max_iters, all_active=given)


def assert_python_scalars(placement):
    # a NumPy bool_ or int64 here would make json_writer raise TypeError
    assert type(placement.feasible) is bool
    assert type(placement.iterations) is int
    rest = (placement.objective, placement.max_achievable_urllc_rate)
    assert all(type(x) is float for x in (*rest, placement.weights.var_level, placement.weights.excess))


@pytest.mark.parametrize("zero_efficiency", [False, True])
def test_every_solver_returns_python_scalars(zero_efficiency):
    from urllc_slice.urllc_placement import solve_baseline1, solve_baseline2, solve_placement

    cfg = SystemConfig()
    chan = default_channel(cfg, seed=15)
    if zero_efficiency:
        gain = chan.embb_gain.copy()
        gain[1] = 0.0
        chan = ChannelRealization(gain, chan.urllc_gain)
    mat = round_to_binary(solve_fractional(cfg, chan), cfg)
    for solver in (solve_placement, solve_baseline1, solve_baseline2):
        assert_python_scalars(solver(cfg, chan, mat))
    all_active = alternating.all_active_assignment(cfg)
    for given in (None, all_active):  # the loop, then the answered rounds unless a user is at zero
        binary, placement, trace = run(cfg, chan, all_active=given)
        assert (binary is all_active.binary) == (given is not None and not zero_efficiency)
        assert_python_scalars(placement)
        for entry in trace.iterations:
            assert (type(entry.iteration), type(entry.placement_feasible)) == (int, bool)
            assert type(entry.fractional_objective) is type(entry.rounded_objective) is float
