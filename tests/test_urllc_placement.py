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
    _config_terms,
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


# -- the chunk kernel against a frozen scalar solver -----------------------------
#
# solve_placement and solve_baseline1 are one-row calls of _solve_rows, and
# every row that needs the floor multiplier goes through _multiplier_step, so
# comparing them checks neither. frozen_solve and frozen_finish are copies of
# the one-problem solver from before the chunk kernel took its place: the
# oracle of the kernel, and of any kernel that batches its rows. Keep them as
# they are, but for the changes marked in frozen_solve.


def frozen_weights_at(kappa, d, s, lam, cap):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.clip(np.float64(1.0) / kappa - 1.0 / (d * (s + lam)), 0.0, cap)


def frozen_solve(terms, phi, eff, urllc_eff):
    """Weights, feasibility and Newton-step count of one placement problem,
    and whether its ``lam = 0`` weights missed the floor (or supplied NaN)."""
    kappa, floor, caps, penalty = terms
    rate = phi * eff
    floor_coeff = phi * kappa * urllc_eff
    a = (phi > 0.0) & (eff > 0.0)

    w = np.zeros(caps.size)
    if floor <= 0.0:
        return w, True, 0, False
    if float(floor_coeff @ caps) < floor:
        return caps.copy(), False, 0, False

    d, cap = floor_coeff[a], caps[a]
    s = kappa * penalty * rate[a] / d

    def active_weights(lam):
        return frozen_weights_at(kappa, d, s, lam, cap)

    w[a] = active_weights(0.0)
    if floor_coeff @ w >= floor:
        return w, True, 0, False

    outside = ~a & (floor_coeff > 0.0)
    w[outside] = caps[outside]
    enter = kappa / d - s
    full = 1.0 / (d * (1.0 / kappa - cap)) - s
    bps = np.sort(np.concatenate((enter, full)))
    bps = bps[bps > 0.0]
    # Changed from the one-problem solver, which summed the supply here, at
    # the breakpoints and in the Newton target as the active users' dot plus
    # the outside users' share: every floor test sums it as one dot over every
    # user, as the feasibility test does, so the weights at a bracket's end
    # meet the floor the search found there
    # (test_a_segment_without_free_users_meets_the_floor_by_one_sum)
    if bps.size == 0 or floor_coeff @ w >= floor:
        return w, True, 0, True

    at = np.tile(w, (bps.size, 1))
    at[:, a] = active_weights(bps[:, None])
    at_bps = np.array([floor_coeff @ row for row in at])  # changed: one dot a breakpoint
    k = min(int(np.count_nonzero(at_bps < floor)), bps.size - 1)
    lam_lo, lam_hi = (float(bps[k - 1]) if k else 0.0), float(bps[k])
    free, capped = (enter <= lam_lo) & (full >= lam_hi), full <= lam_lo
    if not free.any():
        w[a] = np.where(full <= lam_hi, cap, 0.0)
        # Changed from the one-problem solver, which stopped here: where these
        # weights miss the floor, the weights at lam_hi can still meet it, by
        # the few ulps rounding leaves the user entering there
        # (test_a_segment_without_free_users_meets_the_floor_at_its_end).
        if not floor_coeff @ w >= floor:
            at_hi = w.copy()
            at_hi[a] = active_weights(lam_hi)
            if floor_coeff @ at_hi >= floor:
                w = at_hi
        return w, bool(floor_coeff @ w >= floor), 0, True
    s_free = s[free]
    held = outside.copy()
    held[a] = capped
    target = d[free].sum() / kappa + floor_coeff[held] @ caps[held] - floor  # changed: one dot
    lam = max(lam_lo, s_free.size / target - s_free.max(), 1.0 / target - s_free.min())
    goal = floor * (1.0 + 1e-13)
    iters = 0
    while True:
        w[a] = active_weights(lam)
        supplied = float(floor_coeff @ w)
        if supplied >= floor:
            break
        iters += 1
        slope = float(np.sum((s_free + lam) ** -2.0))
        lam = max(lam + (goal - supplied) / slope, float(np.nextafter(lam, np.inf)))
    return w, True, iters, True


def frozen_finish(terms, phi, eff, urllc_eff, w):
    """Objective, mean total rate and maximum mean URLLC rate of one placement
    problem at weights ``w``."""
    kappa, _, caps, penalty = terms
    rates = (phi * eff * (1.0 - kappa * w))[(phi > 0.0) & (eff > 0.0)]
    total = float(rates.sum())
    objective = -np.inf if (rates <= 0.0).any() else float(np.log(rates).sum() - penalty * total)
    return objective, total, float((phi * kappa * urllc_eff) @ caps)


def frozen_bracket(kappa, floor, cap, d, s, bps, met):
    """The breakpoint search ``_multiplier_step`` made on its own row before
    ``_brackets`` took its place, on the row's terms as ``_solve_rows``
    computes them: the index k among the positive breakpoints and the
    segment's ends, or k = -1 (no ends) where the step returned at once."""
    bps = bps[bps > 0.0]
    if bps.size == 0 or met:
        return -1, None
    at_bps = np.array([d @ w for w in frozen_weights_at(kappa, d, s, bps[:, None], cap)])
    k = min(int(np.count_nonzero(at_bps < floor)), bps.size - 1)
    return k, ((float(bps[k - 1]) if k else 0.0), float(bps[k]))


def check_brackets(monkeypatch):
    """Wrap ``_brackets`` so that each call's rows are checked against
    ``frozen_bracket``, bit for bit: k and both ends. Returns the list of
    (rows, row blocks) of the calls, a block being one ``_weights_at`` call
    of the search."""
    from urllc_slice import urllc_placement

    brackets, weights_at, calls, weighed = urllc_placement._brackets, urllc_placement._weights_at, [], []

    def counting_weights_at(*args):
        weighed.append(1)
        return weights_at(*args)

    def checking(kappa, floor, cap, d, s, bps, met):
        before = len(weighed)
        k, ends = brackets(kappa, floor, cap, d, s, bps, met)
        calls.append((len(bps), len(weighed) - before))
        assert k.shape == (len(bps),) and ends.shape == (len(bps), 2)
        for i in range(len(bps)):
            want_k, want_ends = frozen_bracket(kappa, floor, cap, d[i], s[i], bps[i], met[i])
            assert k[i] == want_k
            if want_k >= 0:
                assert ends[i].tobytes() == np.array(want_ends).tobytes()
        return k, ends

    monkeypatch.setattr(urllc_placement, "_weights_at", counting_weights_at)
    monkeypatch.setattr(urllc_placement, "_brackets", checking)
    return calls


def chunk_arrays(cfg, seed, slots, degenerate=False):
    """The S x U and S x C fading gains and the spectral efficiencies of
    slots 0 to ``slots`` as a range computes them. With ``degenerate``, every
    ninth row from row 0 has its last user at zero gain (zero efficiency),
    and every ninth from row 4 its first user at a NaN gain."""
    from urllc_slice.model import _efficiencies, _fading_gains, sample_mean_snr
    from urllc_slice.simulator import _slot_draws, mean_snr_rng

    fading, urllc_fading, _ = _slot_draws(cfg, seed, 0, slots)
    gains, urllc_gains = _fading_gains(cfg, *sample_mean_snr(cfg, mean_snr_rng(seed)), fading, urllc_fading)
    if degenerate:
        gains[::9, -1], gains[4::9, 0] = 0.0, np.nan
    return (gains, urllc_gains, *_efficiencies(cfg, gains, urllc_gains))


def assert_rows_equal_the_frozen_solver(kw, rounded, degenerate, risk_neutral):
    """``_solve_rows`` on 100 slots at seed 7, row by row, against
    ``frozen_solve`` and ``frozen_finish`` and against the one-row call
    ``solve_placement`` (``solve_baseline1`` when ``risk_neutral``): every
    field bit for bit, and no NumPy warning from the kernel."""
    import warnings

    from urllc_slice.alternating import all_active_assignment
    from urllc_slice.embb_scheduler import _equal_shares
    from urllc_slice.urllc_placement import _solve_rows

    cfg = SystemConfig(**kw)
    all_active = all_active_assignment(cfg)
    mat = all_active.binary if rounded else _equal_shares(cfg, np.ones(cfg.num_embb_users, dtype=bool))
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    gains, urllc_gains, eff, urllc_eff = chunk_arrays(cfg, 7, 100, degenerate)
    assert (eff > 0.0).all() != degenerate
    terms, solver = _config_terms(cfg), solve_placement
    if risk_neutral:
        terms, solver = terms._replace(penalty=0.0), solve_baseline1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _solve_rows(terms, phi, eff, urllc_eff)
        solutions = [solver(cfg, ChannelRealization(gains[i], urllc_gains[i]), mat) for i in range(len(eff))]
    for i, sol in enumerate(solutions):
        w, feasible, iters, _ = frozen_solve(terms, phi, eff[i], urllc_eff[i])
        want = [w.tobytes(), feasible, iters, *frozen_finish(terms, phi, eff[i], urllc_eff[i], w)]
        got = [rows.weights[i], rows.feasible[i], rows.iterations[i], rows.objective[i], rows.var_level[i]]
        got = [got[0].tobytes(), *got[1:], rows.max_achievable_urllc_rate[i]]
        assert got == want
        one = [sol.weights.weights.tobytes(), sol.feasible, sol.iterations, sol.objective, sol.weights.var_level]
        assert [*one, sol.max_achievable_urllc_rate] == want
        assert sol.weights.excess == 0.0


ROWS_CONFIGS = [
    {},
    {"num_embb_users": 40, "num_rbs": 200},
    # fewer RBs than users: rounding leaves some users without bandwidth
    {"num_embb_users": 12, "num_rbs": 5},
    {"urllc_outage_budget": 0.01, "snr_min_db": -10.0, "snr_max_db": 5.0},
    {"urllc_outage_budget": 0.03, "num_urllc_users": 1, "risk_weight": 0.0},
    {"puncture_prob": 0.0},
    # NaN weights at lam = 0, and a segment without free users
    {**_TINY_LOAD, "puncture_prob": 5e-324},
    _TINY_LOAD,
]


@pytest.mark.parametrize("kw", ROWS_CONFIGS)
@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("degenerate", [False, True])
def test_solve_rows_equals_solve_row_by_row(kw, rounded, degenerate):
    # with every efficiency positive one mask serves every row; a row with a
    # zero (or NaN) efficiency leaves that user out of its own log objective
    assert_rows_equal_the_frozen_solver(kw, rounded, degenerate, risk_neutral=False)


@pytest.mark.parametrize("kw", ROWS_CONFIGS)
@pytest.mark.parametrize("rounded", [False, True])
def test_solve_rows_without_penalty_equals_solve_baseline1(kw, rounded):
    # the simulator's baseline-1 chunk path, whose rows with a zero (or NaN)
    # efficiency the caller discards: they are still solved as their own slot
    assert_rows_equal_the_frozen_solver(kw, rounded, degenerate=True, risk_neutral=True)


@pytest.mark.parametrize(
    "kw, multiplier_rows",
    [
        # rows past lam = 0 without and with degenerate rows
        ({}, (315, 316)),
        ({"num_embb_users": 40, "num_rbs": 200}, (300, 300)),
        ({"num_embb_users": 12, "num_rbs": 5, "urllc_outage_budget": 0.5}, (600, 600)),
        ({"puncture_prob": 1.0}, (494, 498)),
        ({"snr_min_db": 10.0, "snr_max_db": 10.0}, (600, 600)),
        # NaN supplies at lam = 0, which the step's first >= sends on
        ({**_TINY_LOAD, "puncture_prob": 5e-324}, (260, 260)),
        ({**_TINY_LOAD, "puncture_prob": 5e-324, "risk_weight": 1.0}, (260, 260)),
        # segments without free users
        (_TINY_LOAD, (260, 260)),
    ],
)
@pytest.mark.parametrize("degenerate", [False, True])
def test_multiplier_step_equals_the_frozen_solver_bit_for_bit(monkeypatch, kw, multiplier_rows, degenerate):
    # with degenerate rows one _solve_rows call mixes several pairs of masks
    # (users in and outside the log objective), rows with a NaN efficiency,
    # and users outside the log objective held at their caps
    from urllc_slice import urllc_placement
    from urllc_slice.alternating import all_active_assignment

    step, steps = urllc_placement._multiplier_step, []

    def counting(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(urllc_placement, "_multiplier_step", counting)
    brackets = check_brackets(monkeypatch)
    cfg = SystemConfig(**kw)
    all_active = all_active_assignment(cfg)
    phi = all_active.rounded_bandwidth
    seen, mixed = 0, []
    for seed in (0, 7, 20261):
        gains, urllc_gains, eff, urllc_eff = chunk_arrays(cfg, seed, 100, degenerate)
        terms = _config_terms(cfg)
        for terms, solver in ((terms, solve_placement), (terms._replace(penalty=0.0), solve_baseline1)):
            want = [frozen_solve(terms, phi, eff[i], urllc_eff[i]) for i in range(len(eff))]
            multiplier = [i for i, (*_, past_lam_zero) in enumerate(want) if past_lam_zero]
            before = len(steps)
            calls = len(brackets)
            rows = urllc_placement._solve_rows(terms, phi, eff, urllc_eff)
            assert len(steps) - before == len(multiplier)
            # one search over the chunk's multiplier rows, each checked
            assert [r for r, _ in brackets[calls:]] == ([len(multiplier)] if multiplier else [])
            seen += len(multiplier)
            inside = (phi > 0.0) & (eff[multiplier] > 0.0)
            outside = ~inside & (phi * terms.load_fraction * urllc_eff[multiplier, None] > 0.0)
            masks = np.unique(np.concatenate((inside, outside), axis=1), axis=0)
            mixed.append((len(masks), np.isnan(eff[multiplier]).any(axis=1).sum(), outside.any(axis=1).sum()))
            for i in multiplier:
                w, feasible, iters, _ = want[i]
                assert rows.weights[i].tobytes() == w.tobytes()
                assert (rows.feasible[i], rows.iterations[i]) == (feasible, iters)
                # the one-row call takes the same step
                sol = solver(cfg, ChannelRealization(gains[i], urllc_gains[i]), all_active.binary)
                assert sol.weights.weights.tobytes() == w.tobytes()
                assert (sol.feasible, sol.iterations) == (feasible, iters)
    assert seen == multiplier_rows[degenerate]
    groups, nan_rows, outside_rows = np.array(mixed).max(axis=0)
    assert (groups >= 2, nan_rows > 0, outside_rows > 0) == (degenerate,) * 3


@pytest.mark.parametrize("values, block", [(None, 1), (7 * 80 * 40, 7), (10**9, 10**9 // (80 * 40))])
@pytest.mark.parametrize("penalty", [0.0, None])
def test_a_chunk_of_many_row_blocks_equals_the_frozen_solver(monkeypatch, values, block, penalty):
    # 40 users on 30 RBs: ten users of every row without bandwidth (zero floor
    # coverage, NaN breakpoints), rows with a zero or NaN efficiency, and 80
    # breakpoints a row, so the search's 4 096 values take one row at a time.
    # However the rows are blocked, the brackets equal the per-row search's
    # and the rows the frozen solver's, bit for bit
    from urllc_slice import urllc_placement
    from urllc_slice.alternating import all_active_assignment

    if values is not None:
        monkeypatch.setattr(urllc_placement, "_BRACKET_VALUES", values)
    brackets = check_brackets(monkeypatch)
    cfg = SystemConfig(num_embb_users=40, num_rbs=30)
    all_active = all_active_assignment(cfg)
    phi = all_active.rounded_bandwidth
    assert (phi == 0.0).sum() == 10
    _, _, eff, urllc_eff = chunk_arrays(cfg, 7, 60, degenerate=True)
    terms = _config_terms(cfg)
    terms = terms._replace(penalty=terms.penalty if penalty is None else penalty)
    want = [frozen_solve(terms, phi, eff[i], urllc_eff[i]) for i in range(len(eff))]
    multiplier = sum(past_lam_zero for *_, past_lam_zero in want)
    rows = urllc_placement._solve_rows(terms, phi, eff, urllc_eff)
    assert brackets == [(multiplier, -(-multiplier // block))]
    assert multiplier == 60 if penalty == 0.0 else multiplier > 9
    for i, (w, feasible, iters, _) in enumerate(want):
        assert rows.weights[i].tobytes() == w.tobytes()
        assert (rows.feasible[i], rows.iterations[i]) == (feasible, iters)


# kappa, d, s, lam, cap of hand-built rows for _weights_at
WEIGHT_ROWS = [
    # 1/kappa overflows to inf, and so does 1/(d*(s + lam)): inf - inf is NaN
    (5e-324, [5e-324, 1.0], [0.0, 0.0], 1.0, [1.0, 1.0]),
    # s + lam = 0 divides by zero: -inf clips to 0, or +inf to the cap
    (0.5, [1.0, 1.0, 2.0], [0.0, -0.0, 1.0], 0.0, [1.0, 0.5, 1.0]),
    (0.5, [1.0, 1.0, 2.0], [0.0, -0.0, 1.0], -0.0, [1.0, 0.5, 1.0]),
    (0.5, [1.0, 2.0], [1.0, 3.0], -1.0, [1.0, 1.0]),
    # 2 - 1/(d*(s + lam)) is exactly 0, below 0, exactly the cap, above it
    (0.5, [0.5, 0.25, 1.0, 4.0], [1.0, 1.0, 1.0, 1.0], 0.0, [1.0, 1.0, 1.0, 1.0]),
    # -0.0 floor coefficients, penalties and multipliers
    (0.5, [-0.0, 1.0, -0.0], [1.0, -0.0, -0.0], -0.0, [1.0, 1.0, 0.25]),
    # the breakpoint search's column of multipliers
    (0.1, [0.3, 0.083], [0.0, 0.5], np.array([[0.0], [-0.0], [1.0], [np.inf], [np.nan]]), [1.0, 0.9]),
]


@pytest.mark.parametrize("kappa, d, s, lam, cap", WEIGHT_ROWS)
@pytest.mark.parametrize("copies", [1, 37])
def test_weights_at_equals_the_frozen_clip_bit_for_bit(kappa, d, s, lam, cap, copies):
    # the minimum and maximum ufuncs clip as np.clip does, NaN included; 37
    # copies of a row also take the ufuncs' vector loops
    from urllc_slice.urllc_placement import _weights_at

    d, s, cap = (np.tile(np.array(x, dtype=float), copies) for x in (d, s, cap))
    want = frozen_weights_at(kappa, d, s, lam, cap)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = _weights_at(kappa, d, s, lam, cap)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.isnan(want).any() or kappa > 5e-324


_MASK_RNG = np.random.default_rng(11)


@pytest.mark.parametrize(
    "masks",
    [
        np.array([[True]]),  # S = 1, U = 1
        np.array([[False, True, True]]),  # S = 1
        np.array([[True], [False], [True], [False]]),  # U = 1
        np.ones((5, 4), dtype=bool),  # all rows equal
        np.zeros((5, 4), dtype=bool),
        np.array([[(k >> b) & 1 for b in range(4)] for k in range(16)], dtype=bool)[::-1],  # all rows distinct
        (_MASK_RNG.random((3, 40)) < 0.5)[_MASK_RNG.integers(0, 3, 200)],  # 40 columns, 3 distinct rows
        (_MASK_RNG.random((50, 80)) < 0.5)[:, ::2],  # 40 columns, not C-contiguous
    ],
)
def test_row_groups_equal_numpy_unique_rows(masks):
    from urllc_slice.urllc_placement import _row_groups

    want, want_group = np.unique(masks, axis=0, return_inverse=True)
    got, group = _row_groups(masks)
    assert got.dtype == bool and got.shape == want.shape and (got == want).all()
    assert group.shape == (len(masks),) and group.tolist() == want_group.reshape(-1).tolist()


@pytest.mark.parametrize(
    "kw, multiplier_rows",
    [
        # the CI's vanishing-load config: 1/0, an overflow to inf and inf - inf
        # in the water-filling
        ({"num_embb_users": 1, "num_rbs": 5, "num_minislots": 1, "num_urllc_users": 1, "snr_min_db": 3,
          "snr_max_db": 3, "puncture_prob": 5e-324, "risk_weight": 0}, 14),
        # the CI's users without bandwidth; every slot is infeasible at the
        # tighter budget
        ({"num_embb_users": 12, "num_rbs": 5, "urllc_outage_budget": 0.1}, 0),
        ({"num_embb_users": 12, "num_rbs": 5, "urllc_outage_budget": 0.5}, 40),
    ],
)
def test_per_slot_solvers_raise_no_runtime_warning(monkeypatch, kw, multiplier_rows):
    # one np.errstate for each _solve_rows call and one for its objectives,
    # however many _weights_at calls its rows make
    import warnings

    from urllc_slice import urllc_placement
    from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
    from urllc_slice.model import sample_channel, sample_mean_snr
    from urllc_slice.simulator import mean_snr_rng, slot_rng

    errstate, weights_at, entered, weighed = np.errstate, urllc_placement._weights_at, [], []

    def counting_errstate(**kwargs):
        entered.append(1)
        return errstate(**kwargs)

    def counting_weights_at(*args):
        weighed.append(1)
        return weights_at(*args)

    monkeypatch.setattr(np, "errstate", counting_errstate)
    monkeypatch.setattr(urllc_placement, "_weights_at", counting_weights_at)
    cfg = SystemConfig(**kw)
    means = sample_mean_snr(cfg, mean_snr_rng(0))
    stepped = 0  # calls that reach the multiplier step
    for slot in range(20):
        chan = sample_channel(cfg, *means, slot_rng(0, slot))
        mat = round_to_binary(solve_fractional(cfg, chan), cfg)
        for solver in (solve_placement, solve_baseline1, solve_baseline2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                del entered[:], weighed[:]
                sol = solver(cfg, chan, mat)
                if solver is not solve_baseline2:
                    assert len(entered) == 2 and len(weighed) >= 1
                    stepped += len(weighed) > 1
                urllc_placement.placement_objective(cfg, chan, mat, sol.weights)
    assert stepped == multiplier_rows


# -- the step's operators on rows built by hand ----------------------------------
#
# _multiplier_step keeps frozen_solve's comparisons and its Python max. No
# row of the configs above tells three of them from a near variant; the tests
# below pin the one a row can tell apart. The other two agree with their
# variants on every row the frozen solver returns from:
#
# - The Newton loop's `supplied >= floor` and `not supplied < floor` differ
#   only on a NaN supply. Once the loop meets one, the next
#   `lam + (goal - supplied) / slope` is NaN, Python's max keeps a NaN first
#   argument, and so every later lam and supply is NaN: the frozen loop never
#   returns.
# - `max(lam_lo, ...)` and np.max differ only on a NaN or on a tie of 0.0 and
#   -0.0. lam_lo is 0.0 or a positive breakpoint. A NaN `s` of a free user
#   makes its weight, and so the supply, NaN at every lam (the case above);
#   `target` is NaN, or 1/target -0.0, only if the floor is infinite, and an
#   infinite floor is above every row's finite maximum rate, so such a row
#   never reaches the step. And `x - y` is -0.0 only for x = -0.0, y = 0.0.


def test_a_segment_without_free_users_meets_the_floor_at_its_end():
    # Two users whose water-filling ranges do not overlap: the first reaches
    # its cap before the second enters. At the second user's entry point
    # rounding leaves it a weight of a few ulps, and the floor is the supply
    # there. The search brackets the segment from the first user's cap point
    # to that entry point, on which no user is free. The second user's jump
    # weight at the segment's end is 0, which misses the floor by those few
    # ulps; the weights at the segment's end meet it, and the row is feasible
    from urllc_slice.urllc_placement import _ConfigTerms, _solve_rows

    kappa, phi, eff, urllc_eff = 0.1, np.array([3.0, 0.83]), np.ones(2), 1.0
    d, caps = phi * kappa * urllc_eff, np.ones(2)
    at_entry = frozen_weights_at(kappa, d, 0.0, kappa / d[1], caps)
    assert at_entry[0] == 1.0 and 0.0 < at_entry[1] < 1e-14
    terms = _ConfigTerms(kappa, float(at_entry @ d), caps, 0.0)
    assert float(d @ caps) > terms.floor
    assert float(d @ [1.0, 0.0]) < terms.floor
    w, feasible, iters, past_lam_zero = frozen_solve(terms, phi, eff, urllc_eff)
    assert (w.tobytes(), feasible, iters, past_lam_zero) == (at_entry.tobytes(), True, 0, True)
    rows = _solve_rows(terms, phi, eff[None, :], np.array([urllc_eff]))
    assert rows.weights[0].tobytes() == w.tobytes()
    assert (rows.feasible.tolist(), rows.iterations.tolist()) == ([True], [0])
    assert np.all((rows.weights[0] >= 0.0) & (rows.weights[0] <= caps))
    assert float(d @ rows.weights[0]) >= terms.floor


def test_a_segment_without_free_users_meets_the_floor_by_one_sum():
    # The row above with a third user outside the log objective (zero
    # efficiency) held at its cap. The floor is the supply at the second
    # user's entry point summed as the active users' dot plus the outside
    # user's share. One dot over all three users, in index order, rounds an
    # ulp below it there, at the jump weights and at the weights at the
    # segment's end alike: a search that sums the supply the first way and
    # tests the floor the second reports the row infeasible, though its caps
    # meet the floor. Every floor test sums it the second way, so the search
    # brackets the next segment, on which the second user is free, and the
    # row meets the floor
    from urllc_slice.urllc_placement import _ConfigTerms, _solve_rows

    kappa, urllc_eff = 0.1, 1.0
    phi, eff = np.array([2.2850855255883067, 3.0, 1.4304732188153333]), np.array([0.0, 1.0, 1.0])
    d, caps = phi * kappa * urllc_eff, np.ones(3)
    at_entry = frozen_weights_at(kappa, d[1:], 0.0, kappa / d[2], caps[1:])
    assert at_entry[0] == 1.0 and 0.0 < at_entry[1] < 1e-14
    terms = _ConfigTerms(kappa, float(at_entry @ d[1:] + d[0]), caps, 0.0)
    assert float(d @ [1.0, *at_entry]) < terms.floor and float(d @ [1.0, 1.0, 0.0]) < terms.floor
    w, feasible, iters, past_lam_zero = frozen_solve(terms, phi, eff, urllc_eff)
    assert (feasible, iters, past_lam_zero) == (True, 0, True)
    rows = _solve_rows(terms, phi, eff[None, :], np.array([urllc_eff]))
    assert rows.weights[0].tobytes() == w.tobytes()
    assert (rows.feasible.tolist(), rows.iterations.tolist()) == ([True], [0])
    assert rows.weights[0, :2].tolist() == [1.0, 1.0] and 0.0 < rows.weights[0, 2] < 1e-14
    assert np.all((rows.weights[0] >= 0.0) & (rows.weights[0] <= caps))
    assert float(d @ rows.weights[0]) >= terms.floor


def test_a_chunk_stacking_the_rounding_row_with_other_branches_equals_its_one_row_calls():
    # The row above (row 0) in one chunk with rows of the same three users
    # that take the other branches. Rows 0-3 leave the first user outside
    # the log objective: a segment with a free user (with the penalty off
    # Newton starts at the root), the outside user's cap alone meeting the
    # floor (the lam = 0 weights), and another free segment. Rows 4-6 hold
    # every user: a segment without a free user whose end meets the floor, a
    # free segment, and caps below the floor. Row 7 has row 0's users in the
    # log objective, but a NaN URLLC efficiency leaves its first user a NaN
    # floor coefficient, so that user is not held at its cap: it holds 0.
    # Every row equals its one-row call and the frozen solver bit for bit,
    # and row 0 is feasible
    from urllc_slice.urllc_placement import _ConfigTerms, _solve_rows

    def solve_each(terms, phi, eff, urllc_eff):
        """The chunk's rows, checked against their one-row calls and the
        frozen solver, and which rows the frozen solver took past lam = 0."""
        rows, past = _solve_rows(terms, phi, eff, urllc_eff), []
        for i in range(len(eff)):
            w, feasible, iters, past_lam_zero = frozen_solve(terms, phi, eff[i], urllc_eff[i])
            one = _solve_rows(terms, phi, eff[i : i + 1], urllc_eff[i : i + 1])
            for got, j in ((rows, i), (one, 0)):
                assert got.weights[j].tobytes() == w.tobytes()
                assert (got.feasible[j], got.iterations[j]) == (feasible, iters)
            assert rows.objective[i].tobytes() == one.objective[0].tobytes()
            past.append(past_lam_zero)
        return rows, past

    kappa, phi = 0.1, np.array([2.2850855255883067, 3.0, 1.4304732188153333])
    d, caps = phi * kappa, np.ones(3)
    at_entry = frozen_weights_at(kappa, d[1:], 0.0, kappa / d[2], caps[1:])
    terms = _ConfigTerms(kappa, float(at_entry @ d[1:] + d[0]), caps, 0.0)
    eff = np.array([[0.0, 1.0, 1.0]] * 4 + [[1.0, 1.0, 1.0]] * 3 + [[0.0, 1.0, 1.0]])
    urllc_eff = np.array([1.0, 1.5, 3.0, 1.2, 1.0, 0.9, 0.5, np.nan])
    rows, past = solve_each(terms, phi, eff, urllc_eff)
    assert past == [True] * 6 + [False, True]
    assert rows.feasible.tolist() == [True, True, True, True, True, True, False, True]
    assert rows.weights[0, :2].tolist() == [1.0, 1.0] and 0.0 < rows.weights[0, 2] < 1e-14
    assert rows.weights[2].tolist() == [1.0, 0.0, 0.0]
    assert 0.0 < rows.weights[1, 1] < 1.0 and 0.0 < rows.weights[3, 1] < 1.0 and 0.0 < rows.weights[5, 2] < 1.0
    assert 0.0 < rows.weights[4, 2] < 1e-14 and rows.weights[4, :2].tolist() == [1.0, 1.0]
    assert rows.weights[7, 0] == 0.0 and np.isnan(rows.weights[7, 1:]).all()

    # A chunk of 16 users, with the penalty off, pins that the supply is one
    # dot over every user, the outside users' caps among the others' weights:
    # a dot over the outside users alone can group the products in another
    # order (on OpenBLAS, which sums 16 or more in blocks, row 1's rounds an
    # ulp below the row's, and row 0's Newton target moves). The floor is the
    # supply of row 1's eight outside users at their caps, summed over the
    # row, which its early exit meets, the active users at 0; row 0's seven
    # outside users supply part of it, and Newton starts at the root
    phi = np.array([0.51, 2.68, 1.107, 2.128, 1.71, 2.471, 2.702, 2.749, 1.802, 2.91, 2.778, 2.194, 2.402, 0.947, 2.671, 2.999])
    outside = np.array([np.isin(np.arange(16), u) for u in ([1, 3, 7, 8, 9, 11, 12], [0, 5, 6, 7, 8, 9, 12, 13])])
    d, caps = phi * kappa, np.ones(16)
    terms = _ConfigTerms(kappa, float(d @ np.where(outside[1], caps, 0.0)), caps, 0.0)
    rows, past = solve_each(terms, phi, np.where(outside, 0.0, 1.0), np.array([0.734, 1.0]))
    assert past == [True, True]
    assert rows.feasible.tolist() == [True, True] and rows.iterations.tolist() == [0, 0]
    assert [0.0 < rows.weights[0, u] < 1.0 for u in (6, 10, 14)] == [True] * 3
    assert rows.weights[1].tolist() == outside[1].tolist()

    # A row of 16 users with the penalty on, whose lam = 0 weights, with its
    # five outside users at their caps, supply the floor exactly (one dot
    # over the row): the early exit meets it and keeps those weights. Going
    # on past a floor met exactly, or summing the outside users' share apart,
    # moves some weights by a few ulps
    phi = np.array([2.847, 2.684, 2.909, 0.52, 2.807, 1.615, 2.393, 0.801, 1.995, 2.927, 1.163, 2.297, 1.86, 1.854, 2.365, 0.736])
    eff = np.array([[0.0, 1.82, 2.676, 2.12, 0.0, 1.944, 1.59, 0.0, 1.264, 2.418, 2.26, 0.598, 0.0, 2.784, 0.0, 1.092]])
    d = phi * kappa
    start = np.where(eff[0] > 0.0, frozen_weights_at(kappa, d, kappa * 1.0 * (phi * eff[0]) / d, 0.0, caps), caps)
    assert ((start > 0.0) & (start < 1.0)).sum() > 0
    rows, past = solve_each(_ConfigTerms(kappa, float(d @ start), caps, 1.0), phi, eff, np.array([1.0]))
    assert past == [True]
    assert rows.weights[0].tobytes() == start.tobytes()
    assert (rows.feasible.tolist(), rows.iterations.tolist()) == ([True], [0])


def test_rows_whose_caps_meet_a_floor_at_a_breakpoints_supply_are_feasible(monkeypatch):
    # Hand-built rows with users outside the log objective, and floors at
    # every breakpoint's supply and an ulp either side: the supply summed as
    # one dot over the row, and as the active users' dot plus the outside
    # users' share, which round apart on some rows. The rows have the
    # rounding row's shape with the outside user's bandwidth drawn at random
    # (a search and a feasibility test that sum the supply the two ways
    # leave 38 of them infeasible), or ten users of random bandwidths, three
    # outside (a search that sums every breakpoint's supply in one
    # matrix-vector product rounds some apart from the row's dot). Every row
    # equals the frozen solver bit for bit, and every one whose caps meet the
    # floor passes lam = 0 (the penalty is off) and comes back feasible, its
    # weights in the box and meeting the floor. Every bracket equals the
    # per-row search's
    from urllc_slice.urllc_placement import _ConfigTerms, _solve_rows

    brackets = check_brackets(monkeypatch)
    kappa, rng = 0.1, np.random.default_rng(17)
    shapes = [
        (np.array([u, 3.0, 1.4304732188153333]), np.array([0.0, 1.0, 1.0]))
        for u in np.random.default_rng(21).uniform(0.5, 3.0, 64)
    ]
    # (on these four, both of those searches also return from every row)
    shapes += [(rng.uniform(0.5, 3.0, 10), np.isin(np.arange(10), rng.choice(10, 7, replace=False)) * 1.0) for _ in range(4)]
    cases, apart = [], 0
    for phi, eff in shapes:
        d, a, w = phi * kappa, eff > 0.0, 1.0 - eff
        for lam in (*(kappa / d[a]), *(1.0 / (d[a] * (1.0 / kappa - 1.0)))):
            w[a] = frozen_weights_at(kappa, d[a], 0.0, lam, np.ones(a.sum()))
            sums = {float(d[a] @ w[a] + d[~a] @ w[~a]), float(d @ w)}
            apart += len(sums) == 2
            cases += [(phi, eff, f) for s in sums for f in (np.nextafter(s, 0.0), s, np.nextafter(s, np.inf))]
    met, missed = 0, []
    for phi, eff, floor in cases:
        terms = _ConfigTerms(kappa, floor, np.ones(phi.size), 0.0)
        rows = _solve_rows(terms, phi, eff[None, :], np.array([1.0]))
        w, feasible, iters, past_lam_zero = frozen_solve(terms, phi, eff, 1.0)
        assert (rows.weights[0].tobytes(), rows.feasible[0], rows.iterations[0]) == (w.tobytes(), feasible, iters)
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert past_lam_zero == (rows.max_achievable_urllc_rate[0] >= floor)
        if past_lam_zero:
            met += 1
            if not (feasible and float((phi * kappa) @ w) >= floor):
                missed.append((phi.tolist(), floor))
    assert apart > 0 and met > 0.9 * len(cases)
    assert missed == []
    assert len(cases) == 870 + 243 and brackets == [(1, 1)] * met


def test_a_breakpoint_at_zero_is_left_out_of_the_search(monkeypatch):
    # A user whose penalty times rate is exactly 1 enters at lam = 0 exactly:
    # kappa / d - s is 0.0. The search takes only the positive breakpoints,
    # as the per-row search did, so that one is neither counted nor an end of
    # the segment; the other users are capped at lam = 0, and the first is
    # free on (0, its cap point)
    from urllc_slice.urllc_placement import _ConfigTerms, _solve_rows

    brackets = check_brackets(monkeypatch)
    kappa, phi, eff, urllc_eff = 0.1, np.array([1.0, 2.0, 3.0]), np.array([[1.0, 0.7, 0.4]]), np.array([1.0])
    d = phi * kappa
    assert kappa / d[0] - kappa * 1.0 * (phi[0] * eff[0, 0]) / d[0] == 0.0
    terms = _ConfigTerms(kappa, 0.55, np.ones(3), 1.0)
    rows = _solve_rows(terms, phi, eff, urllc_eff)
    w, feasible, iters, past_lam_zero = frozen_solve(terms, phi, eff[0], urllc_eff[0])
    assert (rows.weights[0].tobytes(), rows.feasible[0], rows.iterations[0]) == (w.tobytes(), feasible, iters)
    assert past_lam_zero and feasible and brackets == [(1, 1)]
    assert rows.weights[0, 1:].tolist() == [1.0, 1.0] and 0.0 < rows.weights[0, 0] < 1.0


def sequential_baseline2(terms, phi, eff, urllc_eff):
    """The baseline-2 greedy of one slot as a plain loop over its users."""
    kappa, floor, caps, _ = terms
    d = phi * kappa * urllc_eff
    w = np.zeros(len(phi))
    if floor <= 0.0:
        return w, True
    if float(d @ caps) < floor:
        return caps.copy(), False
    need = floor
    for u in np.argsort(eff, kind="stable"):
        if need <= 0.0:
            break
        if d[u] <= 0.0:
            continue
        w[u] = min(caps[u], need / d[u])
        need -= d[u] * w[u]
    return w, True


def baseline2_rows_case(kw, seed, slots, tie=False):
    """The range arrays ``_simulate_range`` hands to ``_baseline2_rows``; with
    ``tie``, efficiencies rounded to whole bits/s/Hz so that most rows tie."""
    from urllc_slice.alternating import all_active_assignment
    from urllc_slice.model import _efficiencies, _fading_gains, sample_mean_snr
    from urllc_slice.simulator import _slot_draws, mean_snr_rng

    cfg = SystemConfig(**kw)
    all_active = all_active_assignment(cfg)
    fading, urllc_fading, _ = _slot_draws(cfg, seed, 0, slots)
    gains, urllc_gains = _fading_gains(cfg, *sample_mean_snr(cfg, mean_snr_rng(seed)), fading, urllc_fading)
    eff, urllc_eff = _efficiencies(cfg, gains, urllc_gains)
    if tie:
        eff = np.ceil(eff)
    return _config_terms(cfg), all_active.rounded_bandwidth, eff, urllc_eff


def rows_past_the_partial_user(w, eff, cap):
    """Rows whose greedy gave a positive weight to a user after its first
    partial (positive, below the cap) one."""
    ordered = np.take_along_axis(w, np.argsort(eff, axis=1, kind="stable"), axis=1)
    count = 0
    for row in ordered:
        partial = np.flatnonzero((row > 0.0) & (row < cap))
        count += bool(partial.size) and bool((row[partial[0] + 1 :] > 0.0).any())
    return count


@pytest.mark.parametrize(
    "kw, seed, slots, tie, past_partial",
    [
        # at seed 7, 45 of 1 000 default rows and 77 of 1 000 wide-cell rows
        # go on past the partial user, to weights of a few ulps of the need
        ({}, 7, 1000, False, 45),
        ({"num_embb_users": 40, "num_rbs": 200}, 7, 1000, False, 77),
        # fewer RBs than users: users without bandwidth, so d = 0 columns;
        # every row is infeasible at the default budget, so only the looser
        # one walks the greedy past them
        ({"num_embb_users": 12, "num_rbs": 5}, 7, 300, False, None),
        ({"num_embb_users": 12, "num_rbs": 5, "urllc_outage_budget": 0.5}, 7, 300, False, None),
        # most rows infeasible
        ({"urllc_outage_budget": 0.01, "snr_min_db": -10.0, "snr_max_db": 5.0}, 7, 300, False, None),
        # no floor
        ({"puncture_prob": 0.0}, 7, 100, False, None),
        ({"puncture_prob": 1.0}, 20261, 300, False, None),
        ({**_TINY_LOAD, "puncture_prob": 5e-324}, 0, 100, False, None),
        (_TINY_LOAD, 0, 100, False, None),
        # tied efficiencies: the stable order breaks ties by user index
        ({}, 20261, 300, True, None),
        ({"num_embb_users": 12, "num_rbs": 5, "urllc_outage_budget": 0.5}, 20261, 300, True, None),
    ],
)
def test_baseline2_rows_equal_the_sequential_greedy_bit_for_bit(kw, seed, slots, tie, past_partial):
    from urllc_slice.urllc_placement import _baseline2_rows

    terms, phi, eff, urllc_eff = baseline2_rows_case(kw, seed, slots, tie)
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # d = 0 columns are skipped
        w, feasible = _baseline2_rows(terms, phi, eff, urllc_eff)
    assert (w.shape, feasible.shape) == (eff.shape, (slots,))
    for i in range(slots):
        want_w, want_feasible = sequential_baseline2(terms, phi, eff[i], urllc_eff[i])
        assert w[i].tobytes() == want_w.tobytes()
        assert feasible[i] == want_feasible
    if past_partial is not None:
        assert rows_past_the_partial_user(w, eff, terms.caps[0]) == past_partial
    if tie:
        assert any(len(np.unique(row)) < len(row) for row in eff)


@pytest.mark.parametrize("kw", [{}, {"num_embb_users": 12, "num_rbs": 5}])
def test_baseline2_rows_treat_nan_as_the_scalar_loop_does(kw):
    # a mean SNR beyond the float range gives infinite efficiencies: d = inf,
    # or NaN where a user has no bandwidth; min(cap, NaN) is the cap
    from urllc_slice.urllc_placement import _baseline2_rows

    with np.errstate(all="ignore"):
        terms, phi, eff, urllc_eff = baseline2_rows_case({**kw, "snr_min_db": 3000.0, "snr_max_db": 4000.0}, 7, 50)
        w, feasible = _baseline2_rows(terms, phi, eff, urllc_eff)
        want = [sequential_baseline2(terms, phi, eff[i], urllc_eff[i]) for i in range(len(eff))]
    assert np.isinf(urllc_eff).any() and feasible.all()
    assert w.tobytes() == np.array([row for row, _ in want]).tobytes()


@pytest.mark.parametrize(
    "kw", [{}, {"num_embb_users": 12, "num_rbs": 5}, {"snr_min_db": -400.0, "snr_max_db": 30.0}]
)
def test_solve_baseline2_equals_the_sequential_greedy(kw):
    # a slot's own assignment and efficiencies, zero ones among them
    from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
    from urllc_slice.model import sample_channel, sample_mean_snr, spectral_efficiencies
    from urllc_slice.simulator import mean_snr_rng, slot_rng

    cfg = SystemConfig(**kw)
    means = sample_mean_snr(cfg, mean_snr_rng(3))
    for slot in range(40):
        chan = sample_channel(cfg, *means, slot_rng(3, slot))
        mat = round_to_binary(solve_fractional(cfg, chan), cfg)
        eff, urllc_eff = spectral_efficiencies(cfg, chan)
        phi = mat.user_bandwidth(cfg.rb_bandwidth)
        want_w, want_feasible = sequential_baseline2(_config_terms(cfg), phi, eff, urllc_eff)
        sol = solve_baseline2(cfg, chan, mat)
        assert sol.weights.weights.tobytes() == want_w.tobytes()
        assert sol.feasible == want_feasible


@pytest.mark.parametrize("demand_quantum, accepted", [(1.94e-303, True), (1e-300, True), (1e-322, False)])
def test_baseline2_rows_counted_feasible_meet_the_floor(demand_quantum, accepted):
    # SystemConfig keeps the greedy's shares of the floor normal floats
    # (MIN_FLOOR_SHARE); at the smallest accepted demand_quantum every row
    # counted feasible meets its floor. At 1e-322, now rejected, the floor
    # is 3.5e-318 bit/s, every share underflows to 0, and every row is
    # counted feasible with no weight at all
    from urllc_slice.alternating import all_active_assignment
    from urllc_slice.urllc_placement import _baseline2_rows

    cfg = SystemConfig(demand_quantum=demand_quantum)
    assert (cfg.validate() == []) == accepted
    all_active = all_active_assignment(cfg)
    terms, phi = _config_terms(cfg), all_active.rounded_bandwidth
    _, _, eff, urllc_eff = chunk_arrays(cfg, 153, 200)
    w, feasible = _baseline2_rows(terms, np.broadcast_to(phi, eff.shape), eff, urllc_eff)
    supply = np.array([(phi * terms.load_fraction * urllc_eff[i]) @ w[i] for i in range(len(w))])
    assert terms.floor > 0.0 and feasible.all()
    assert (supply >= terms.floor).all() == accepted
    assert (w == 0.0).all() != accepted
