import math
from dataclasses import replace

import numpy as np
import pytest

from urllc_slice.model import (
    SLOT_DURATION_S,
    ChannelRealization,
    SchedulingMatrix,
    SystemConfig,
    expected_urllc_rate,
    outage_indicator,
    sample_urllc_load,
    urllc_rate,
)
from urllc_slice.urllc_placement import (
    solve_baseline1,
    solve_baseline2,
    solve_placement,
)


def snr_channel(cfg, embb_snr, urllc_snr):
    return ChannelRealization(
        embb_gain=np.asarray(embb_snr, float) * cfg.noise_power / cfg.embb_tx_power,
        urllc_gain=np.asarray(urllc_snr, float) * cfg.noise_power / cfg.urllc_tx_power,
    )


def coefficients(cfg, chan, mat):
    """Problem data recomputed from scratch: per-user mean-rate coefficient,
    load fraction, floor coefficients, floor, caps."""
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    eff = np.log2(1 + cfg.embb_tx_power * chan.embb_gain / cfg.noise_power)
    kappa = cfg.expected_load_fraction()
    urllc_eff = np.mean(
        np.log2(1 + cfg.urllc_tx_power * chan.urllc_gain / cfg.noise_power)
    )
    a = phi * kappa * urllc_eff
    floor = cfg.expected_load_bits() / (cfg.urllc_outage_budget * SLOT_DURATION_S)
    caps = np.minimum(1.0, (1.0 - 1e-12) / kappa) * np.ones_like(phi) if kappa > 0 else np.ones_like(phi)
    return phi * eff, kappa, a, floor, caps


def objective_at(cfg, chan, mat, w):
    """Independent evaluation of the placement objective."""
    coeff, kappa, _, _, _ = coefficients(cfg, chan, mat)
    rates = coeff * (1 - kappa * np.asarray(w))
    return np.log(rates).sum() - cfg.risk_weight * rates.sum() / cfg.risk_rate_scale


def make_instance(rng, num_users=3, util=None, beta=None, p=None, equal_bw=False):
    """One-RB-per-user instance; the outage budget is set so the floor uses a
    moderate fraction of the full-puncture URLLC rate."""
    f_b = (
        np.full(num_users, 1.8e6)
        if equal_bw
        else rng.uniform(0.8e6, 3e6, num_users)
    )
    cfg = SystemConfig(
        num_embb_users=num_users,
        num_rbs=num_users,
        num_urllc_users=2,
        rb_bandwidth=f_b,
        puncture_prob=float(rng.uniform(0.2, 0.8)) if p is None else p,
        risk_weight=float(rng.uniform(0.5, 1.0)) if beta is None else beta,
    )
    chan = snr_channel(
        cfg, rng.uniform(2, 1000, num_users), rng.uniform(2, 300, 2)
    )
    mat = SchedulingMatrix(np.eye(num_users))
    _, _, a, _, caps = coefficients(cfg, chan, mat)
    max_rate = float(a @ caps)
    target_floor = (util if util is not None else float(rng.uniform(0.05, 0.35))) * max_rate
    eps = cfg.expected_load_bits() / (target_floor * SLOT_DURATION_S)
    cfg = replace(cfg, urllc_outage_budget=min(eps, 0.9))
    return cfg, chan, mat


def grid_search_1d(cfg, chan, mat, points=1_000_000):
    coeff, kappa, a, floor, caps = coefficients(cfg, chan, mat)
    w = np.linspace(0.0, caps[0], points)
    w = w[a[0] * w >= floor]
    rates = coeff[0] * (1 - kappa * w)
    objs = np.log(rates) - cfg.risk_weight * rates / cfg.risk_rate_scale
    return float(objs.max())


def grid_search_3d(cfg, chan, mat, points=200):
    coeff, kappa, a, floor, caps = coefficients(cfg, chan, mat)
    axes = [np.linspace(0.0, caps[u], points) for u in range(3)]
    per_axis = []
    for u in range(3):
        rates = coeff[u] * (1 - kappa * axes[u])
        per_axis.append(np.log(rates) - cfg.risk_weight * rates / cfg.risk_rate_scale)
    total = (
        per_axis[0][:, None, None]
        + per_axis[1][None, :, None]
        + per_axis[2][None, None, :]
    )
    supplied = (
        a[0] * axes[0][:, None, None]
        + a[1] * axes[1][None, :, None]
        + a[2] * axes[2][None, None, :]
    )
    feasible = supplied >= floor
    assert feasible.any()
    return float(total[feasible].max())


# -- zero-traffic shortcut -------------------------------------------------------


@pytest.mark.parametrize("solver", [solve_placement, solve_baseline1, solve_baseline2])
def test_no_traffic_means_no_puncturing(solver):
    rng = np.random.default_rng(0)
    cfg, chan, mat = make_instance(rng, p=0.3)
    cfg = replace(cfg, puncture_prob=0.0)
    sol = solver(cfg, chan, mat)
    assert sol.feasible
    np.testing.assert_array_equal(sol.weights.weights, 0.0)


# -- grid oracles ---------------------------------------------------------------


def test_single_user_matches_dense_grid():
    rng = np.random.default_rng(1)
    for util in (0.1, 0.45, 0.8):  # slack and active floors
        cfg, chan, mat = make_instance(rng, num_users=1, util=util)
        sol = solve_placement(cfg, chan, mat)
        assert sol.feasible
        got = objective_at(cfg, chan, mat, sol.weights.weights)
        want = grid_search_1d(cfg, chan, mat)
        assert abs(got - want) <= 1e-6 * abs(want)


@pytest.fixture(scope="module")
def three_user_grid_instances():
    rng = np.random.default_rng(2)
    out = []
    for _ in range(3):
        cfg, chan, mat = make_instance(rng, num_users=3, beta=1.0)
        out.append((cfg, chan, mat, grid_search_3d(cfg, chan, mat)))
    return out


def test_three_users_match_cached_grid(three_user_grid_instances):
    for cfg, chan, mat, grid_best in three_user_grid_instances:
        sol = solve_placement(cfg, chan, mat)
        got = objective_at(cfg, chan, mat, sol.weights.weights)
        assert abs(got - grid_best) <= 1e-4 * abs(grid_best)
        assert got >= grid_best - 1e-9 * abs(grid_best)  # grid can only undershoot


# -- baseline 1 -------------------------------------------------------------------


def test_baseline1_floor_active():
    rng = np.random.default_rng(3)
    for _ in range(100):
        num_users = int(rng.integers(1, 6))
        cfg, chan, mat = make_instance(rng, num_users=num_users, util=float(rng.uniform(0.1, 0.9)))
        sol = solve_baseline1(cfg, chan, mat)
        assert sol.feasible
        supplied = expected_urllc_rate(cfg, chan, mat, sol.weights)
        floor = cfg.markov_rate_floor()
        assert abs(supplied - floor) <= 1e-6 * floor


def test_baseline1_symmetric_users_share_equally():
    rng = np.random.default_rng(4)
    cfg, chan, mat = make_instance(rng, num_users=4, equal_bw=True)
    chan = snr_channel(cfg, np.full(4, 50.0), np.full(2, 20.0))
    sol = solve_baseline1(cfg, chan, mat)
    w = sol.weights.weights
    assert w.max() - w.min() <= 1e-9


def test_baseline1_weights_fall_as_budget_relaxes():
    rng = np.random.default_rng(5)
    cfg, chan, mat = make_instance(rng, util=0.6)
    tight = solve_baseline1(cfg, chan, mat).weights.weights
    relaxed = solve_baseline1(
        replace(cfg, urllc_outage_budget=min(0.95, cfg.urllc_outage_budget * 2)),
        chan,
        mat,
    ).weights.weights
    assert np.all(relaxed <= tight + 1e-9)


# -- baseline 2 -------------------------------------------------------------------


def vertex_enumeration_best(cfg, chan, mat):
    """Exact LP optimum on two users by enumerating polytope vertices."""
    coeff, kappa, a, floor, caps = coefficients(cfg, chan, mat)
    candidates = []
    for w0 in (0.0, caps[0]):
        for w1 in (0.0, caps[1]):
            candidates.append((w0, w1))
        if a[1] > 0:
            candidates.append((w0, (floor - a[0] * w0) / a[1]))
    for w1 in (0.0, caps[1]):
        if a[0] > 0:
            candidates.append(((floor - a[1] * w1) / a[0], w1))
    best = -np.inf
    for w0, w1 in candidates:
        w = np.array([w0, w1])
        if np.any(w < -1e-12) or np.any(w > caps + 1e-12):
            continue
        if a @ w < floor * (1 - 1e-12):
            continue
        linear = (coeff * (1 - kappa * np.clip(w, 0, caps))).sum()
        best = max(best, linear)
    return best


def test_baseline2_matches_vertex_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(100):
        cfg, chan, mat = make_instance(rng, num_users=2, util=float(rng.uniform(0.1, 0.9)))
        sol = solve_baseline2(cfg, chan, mat)
        coeff, kappa, _, _, _ = coefficients(cfg, chan, mat)
        got = (coeff * (1 - kappa * sol.weights.weights)).sum()
        want = vertex_enumeration_best(cfg, chan, mat)
        assert got == pytest.approx(want, rel=1e-9)


def test_baseline2_punctures_low_rate_users_first():
    rng = np.random.default_rng(7)
    for _ in range(100):
        num_users = int(rng.integers(2, 6))
        cfg, chan, mat = make_instance(rng, num_users=num_users, util=float(rng.uniform(0.1, 0.9)))
        sol = solve_baseline2(cfg, chan, mat)
        w = sol.weights.weights
        _, _, a, _, caps = coefficients(cfg, chan, mat)
        eff = np.log2(1 + cfg.embb_tx_power * chan.embb_gain / cfg.noise_power)
        order = np.argsort(eff, kind="stable")
        # once a user is touched, every lower-rate user is already saturated
        for i, u in enumerate(order):
            if w[u] > 1e-12:
                for v in order[:i]:
                    assert w[v] >= caps[v] - 1e-9


def test_baseline2_grid_sanity():
    rng = np.random.default_rng(8)
    cfg, chan, mat = make_instance(rng, num_users=2, util=0.5)
    sol = solve_baseline2(cfg, chan, mat)
    coeff, kappa, a, floor, caps = coefficients(cfg, chan, mat)
    got = (coeff * (1 - kappa * sol.weights.weights)).sum()
    g0 = np.linspace(0, caps[0], 1500)
    g1 = np.linspace(0, caps[1], 1500)
    lin = (
        coeff[0] * (1 - kappa * g0)[:, None]
        + coeff[1] * (1 - kappa * g1)[None, :]
    )
    feas = a[0] * g0[:, None] + a[1] * g1[None, :] >= floor
    assert got >= lin[feas].max() - 1e-9 * abs(got)


# -- shared invariants ------------------------------------------------------------


def test_surrogate_collapse_identity():
    rng = np.random.default_rng(9)
    for solver in (solve_placement, solve_baseline1, solve_baseline2):
        for _ in range(30):
            cfg, chan, mat = make_instance(rng, num_users=int(rng.integers(1, 5)))
            sol = solver(cfg, chan, mat)
            coeff, kappa, _, _, _ = coefficients(cfg, chan, mat)
            mean_total = (coeff * (1 - kappa * sol.weights.weights)).sum()
            assert sol.weights.var_level == pytest.approx(mean_total, rel=1e-8)
            assert abs(sol.weights.excess) <= 1e-8


def test_feasibility_of_returned_weights():
    rng = np.random.default_rng(10)
    for solver in (solve_placement, solve_baseline1, solve_baseline2):
        for _ in range(50):
            cfg, chan, mat = make_instance(rng, util=float(rng.uniform(0.05, 0.9)))
            sol = solver(cfg, chan, mat)
            assert sol.feasible
            w = sol.weights.weights
            assert np.all(w >= -1e-12) and np.all(w <= 1 + 1e-12)
            violation = cfg.markov_rate_floor() - expected_urllc_rate(cfg, chan, mat, sol.weights)
            assert violation <= 1e-8


def test_risk_ordering_with_equal_bandwidth():
    # equal bandwidth, heterogeneous SNR, full risk weight: puncture weights
    # must be sorted like the unpunctured rates
    rng = np.random.default_rng(11)
    for _ in range(30):
        cfg, chan, mat = make_instance(rng, num_users=5, beta=1.0, equal_bw=True)
        sol = solve_placement(cfg, chan, mat)
        coeff, _, _, _, _ = coefficients(cfg, chan, mat)
        w_sorted = sol.weights.weights[np.argsort(coeff)]
        assert np.all(np.diff(w_sorted) >= -1e-9)


def test_tighter_budget_never_reduces_punctured_bandwidth():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cfg, chan, mat = make_instance(rng, util=0.8)
        phi = mat.user_bandwidth(cfg.rb_bandwidth)
        kappa = cfg.expected_load_fraction()
        eps_grid = np.linspace(0.9, cfg.urllc_outage_budget, 8)  # descending budget
        theta_totals = []
        for eps in eps_grid:
            sol = solve_placement(replace(cfg, urllc_outage_budget=float(eps)), chan, mat)
            assert sol.feasible
            theta_totals.append((phi * sol.weights.weights * kappa).sum())
        # while the floor is slack the optimum does not move at all, so the
        # only wiggle allowed is solver argument noise (~1e-5 relative)
        assert np.all(np.diff(theta_totals) >= -1e-4 * max(theta_totals))


def test_markov_bound_holds_on_monte_carlo():
    rng = np.random.default_rng(13)
    cfg, chan, mat = make_instance(rng, util=0.5)
    sol = solve_placement(cfg, chan, mat)
    draws = 20_000
    outages = 0
    for _ in range(draws):
        load = sample_urllc_load(cfg, rng)
        rate = urllc_rate(cfg, chan, mat, sol.weights, load)
        outages += outage_indicator(rate, load.total)
    empirical = outages / draws
    markov_bound = cfg.expected_load_bits() / (
        expected_urllc_rate(cfg, chan, mat, sol.weights) * SLOT_DURATION_S
    )
    noise = 3 * math.sqrt(cfg.urllc_outage_budget / draws)
    assert empirical <= min(1.0, markov_bound) + noise
    assert empirical <= cfg.urllc_outage_budget + noise


def test_infeasible_budget_reported():
    rng = np.random.default_rng(14)
    cfg, chan, mat = make_instance(rng)
    cfg = replace(cfg, urllc_outage_budget=1e-6)  # floor far beyond full puncturing
    for solver in (solve_placement, solve_baseline1, solve_baseline2):
        sol = solver(cfg, chan, mat)
        assert not sol.feasible
        assert sol.max_achievable_urllc_rate < cfg.markov_rate_floor()
        np.testing.assert_allclose(
            sol.max_achievable_urllc_rate,
            expected_urllc_rate(cfg, chan, mat, sol.weights),
            rtol=1e-9,
        )


def test_solver_is_deterministic():
    rng = np.random.default_rng(15)
    cfg, chan, mat = make_instance(rng)
    a = solve_placement(cfg, chan, mat)
    b = solve_placement(cfg, chan, mat)
    np.testing.assert_array_equal(a.weights.weights, b.weights.weights)
    assert a.objective == b.objective


# -- exact water-filling solve ------------------------------------------------------


def kkt_multiplier(cfg, chan, mat, w):
    """Floor multiplier implied by the weights, checked against the KKT
    conditions recomputed from scratch; returns (lambda, floor, supplied)."""
    coeff, kappa, a, floor, caps = coefficients(cfg, chan, mat)
    pen = cfg.risk_weight / cfg.risk_rate_scale
    active = coeff > 0
    # minus the objective gradient per unit of floor coefficient: stationarity
    # asks it to equal lambda on free users, be >= lambda at 0 and <= at the cap
    marginal_loss = (kappa / (1.0 - kappa * w) / a)[active]
    marginal_gain = (kappa * pen * coeff / a)[active]
    ratio = marginal_loss - marginal_gain
    scale = float(np.maximum(marginal_loss, marginal_gain).max())
    w_act, cap_act = w[active], caps[active]
    free = (w_act > 1e-12) & (w_act < cap_act - 1e-12)
    lam = float(ratio[free].mean()) if free.any() else 0.0
    assert np.all(np.abs(ratio[free] - lam) <= 1e-9 * scale)
    assert np.all(ratio[w_act <= 1e-12] >= lam - 1e-9 * scale)
    assert np.all(ratio[w_act >= cap_act - 1e-12] <= lam + 1e-9 * scale)
    return (lam if lam > 1e-9 * scale else 0.0), floor, float(a @ w)


@pytest.mark.parametrize("num_users", [10, 40])
def test_kkt_residuals_and_floor_tightness(num_users):
    rng = np.random.default_rng(16 + num_users)
    binding = slack = 0
    for _ in range(60):
        cfg, chan, mat = make_instance(rng, num_users=num_users, util=float(rng.uniform(0.05, 0.9)))
        cfg = replace(cfg, risk_rate_scale=float(rng.uniform(5e6, 5e7)))
        sol = solve_placement(cfg, chan, mat)
        assert sol.feasible
        assert sol.iterations <= 60
        lam, floor, supplied = kkt_multiplier(cfg, chan, mat, sol.weights.weights)
        assert supplied >= floor
        if lam > 0:
            binding += 1
            assert supplied - floor <= 1e-12 * floor
        else:
            slack += 1
    assert binding and slack


def test_voluntary_puncturing_meets_floor_at_zero_multiplier():
    rng = np.random.default_rng(17)
    cfg, chan, mat = make_instance(rng, num_users=5, util=0.01, beta=1.0)
    cfg = replace(cfg, risk_rate_scale=1e6)
    coeff, kappa, a, floor, caps = coefficients(cfg, chan, mat)
    pen_c = cfg.risk_weight * coeff / cfg.risk_rate_scale
    assert np.any(pen_c > 1)
    sol = solve_placement(cfg, chan, mat)
    want = np.clip(1 / kappa - 1 / (kappa * pen_c), 0.0, caps)
    np.testing.assert_allclose(sol.weights.weights, want, rtol=1e-12, atol=0)
    assert a @ sol.weights.weights > floor
    assert sol.iterations == 0


def test_user_with_no_broadband_rate_goes_to_its_cap():
    rng = np.random.default_rng(18)
    cfg, chan, mat = make_instance(rng, num_users=4, util=0.5)
    chan = ChannelRealization(
        embb_gain=np.concatenate(([0.0], chan.embb_gain[1:])), urllc_gain=chan.urllc_gain
    )
    _, _, a, floor, caps = coefficients(cfg, chan, mat)
    assert a[0] > 0
    sol = solve_placement(cfg, chan, mat)
    assert sol.feasible
    assert sol.weights.weights[0] == caps[0]
    assert a @ sol.weights.weights >= floor


def test_baseline1_symmetric_users_get_the_exact_equal_share():
    rng = np.random.default_rng(19)
    cfg, chan, mat = make_instance(rng, num_users=40, equal_bw=True, util=0.3)
    chan = snr_channel(cfg, np.full(40, 50.0), np.full(2, 20.0))
    _, _, a, floor, _ = coefficients(cfg, chan, mat)
    sol = solve_baseline1(cfg, chan, mat)
    np.testing.assert_allclose(sol.weights.weights, floor / a.sum(), rtol=1e-12, atol=0)
    assert a @ sol.weights.weights >= floor
    assert sol.iterations <= 1


# -- baseline 1 is the proposed problem with the penalty at zero -----------------


def baseline1_instances():
    """About 50 instances: floors slack, binding and out of reach, no traffic,
    dead users, and default-size whole-RB assignments."""
    rng = np.random.default_rng(20)
    for i in range(40):
        num_users = int(rng.integers(1, 7))
        util = float(rng.uniform(0.05, 1.5))  # above 1 the floor is out of reach
        cfg, chan, mat = make_instance(rng, num_users=num_users, util=util)
        yield (replace(cfg, puncture_prob=0.0) if i % 10 == 0 else cfg), chan, mat
    for snr_db in (-400.0, -10.0, 3.0, 30.0):
        for budget in (1e-6, 0.1):
            cfg = SystemConfig(snr_min_db=snr_db, snr_max_db=snr_db + 10.0, urllc_outage_budget=budget)
            embb_db = rng.uniform(cfg.snr_min_db, cfg.snr_max_db, cfg.num_embb_users)
            urllc_db = rng.uniform(cfg.snr_min_db, cfg.snr_max_db, cfg.num_urllc_users)
            chan = snr_channel(cfg, 10.0 ** (embb_db / 10.0), 10.0 ** (urllc_db / 10.0))
            owner = rng.integers(0, cfg.num_embb_users, cfg.num_rbs)
            yield cfg, chan, SchedulingMatrix(np.eye(cfg.num_embb_users)[owner])


def test_baseline1_equals_placement_at_zero_risk_weight_bit_for_bit():
    seen = {"feasible": 0, "infeasible": 0, "no-traffic": 0}
    for cfg, chan, mat in baseline1_instances():
        got = solve_baseline1(cfg, chan, mat)
        # the formulation baseline 1 had before it passed the penalty directly
        want = solve_placement(replace(cfg, risk_weight=0.0), chan, mat)
        assert got.weights.weights.tobytes() == want.weights.weights.tobytes()
        assert got.weights.var_level == want.weights.var_level
        assert got.weights.excess == want.weights.excess
        assert got.objective == want.objective
        assert got.feasible is want.feasible
        assert got.iterations == want.iterations
        assert got.max_achievable_urllc_rate == want.max_achievable_urllc_rate
        kind = "no-traffic" if cfg.puncture_prob == 0 else "feasible" if got.feasible else "infeasible"
        seen[kind] += 1
    assert sum(seen.values()) >= 48 and min(seen.values()) >= 3, seen


# 1/kappa is about 2e138 here, so a user's entry and cap breakpoints round to
# neighbouring floats in swapped order and the bracketing segment holds no
# free user
_TINY_LOAD = {
    "num_embb_users": 1,
    "num_rbs": 6,
    "num_minislots": 1,
    "num_urllc_users": 1,
    "snr_min_db": 2,
    "snr_max_db": 2,
    "puncture_prob": 5.041919581508057e-139,
    "risk_weight": 0,
}


@pytest.mark.parametrize("policy", ["proposed", "baseline1", "baseline2"])
def test_a_segment_without_free_users_is_solved_at_its_breakpoint(tmp_path, policy):
    import json

    from urllc_slice.cli import main
    from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
    from urllc_slice.model import sample_channel, sample_mean_snr
    from urllc_slice.simulator import mean_snr_rng, slot_rng

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_TINY_LOAD))
    argv = ["run", "--config", str(path), "--policy", policy, "--slots", "1", "--seed", "0"]
    assert main(argv + ["--threads", "1", "--out", str(tmp_path / "out")]) == 0

    cfg = SystemConfig(**_TINY_LOAD)
    means = sample_mean_snr(cfg, mean_snr_rng(0))
    chan = sample_channel(cfg, *means, slot_rng(0, 0))
    mat = round_to_binary(solve_fractional(cfg, chan), cfg)
    solver = {"proposed": solve_placement, "baseline1": solve_baseline1, "baseline2": solve_baseline2}
    sol = solver[policy](cfg, chan, mat)
    _, _, a, floor, caps = coefficients(cfg, chan, mat)
    w = sol.weights.weights
    assert np.all((w >= 0.0) & (w <= caps))
    assert sol.feasible == bool(a @ w >= floor)
    assert sol.feasible
