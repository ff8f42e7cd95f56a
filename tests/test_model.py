import math
import warnings

import numpy as np
import pytest

from urllc_slice.model import (
    ChannelRealization,
    ConfigError,
    PunctureWeights,
    SchedulingMatrix,
    SystemConfig,
    _minislot_loads,
    embb_rate,
    evaluate_slot,
    expected_embb_rate,
    outage_indicator,
    punctured_bandwidth,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
    urllc_rate,
)


def small_cfg(**kw):
    base = dict(
        num_embb_users=3,
        num_rbs=4,
        num_minislots=7,
        num_urllc_users=2,
        rb_bandwidth=1e6,
    )
    base.update(kw)
    return SystemConfig(**base)


def snr_channel(cfg, embb_snr, urllc_snr) -> ChannelRealization:
    """Gains chosen so P*g/N0 equals the given linear SNRs."""
    e = np.asarray(embb_snr, dtype=float)
    c = np.asarray(urllc_snr, dtype=float)
    return ChannelRealization(
        embb_gain=e * cfg.noise_power / cfg.embb_tx_power,
        urllc_gain=c * cfg.noise_power / cfg.urllc_tx_power,
    )


def random_instance(rng, cfg):
    entries = rng.random((cfg.num_rbs, cfg.num_embb_users))
    entries /= entries.sum(axis=1, keepdims=True)
    mat = SchedulingMatrix(entries)
    chan = snr_channel(
        cfg,
        rng.uniform(1, 100, cfg.num_embb_users),
        rng.uniform(1, 100, cfg.num_urllc_users),
    )
    weights = rng.random(cfg.num_embb_users)
    load = rng.uniform(0, cfg.l_max)
    return mat, chan, weights, load


# -- URLLC load sampling -------------------------------------------------------


def test_load_zero_probability():
    cfg = small_cfg(puncture_prob=0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        load = sample_urllc_load(cfg, rng)
        assert load.total == 0.0
        assert np.all(load.per_minislot == 0.0)


def test_load_deterministic_arrivals():
    cfg = small_cfg(puncture_prob=1.0, demand_quantum=1.0, l_max=10.0)
    load = sample_urllc_load(cfg, np.random.default_rng(1))
    assert load.total == 7.0
    assert np.all(load.per_minislot == 1.0)


def test_load_clamped_to_lmax():
    cfg = small_cfg(puncture_prob=1.0, demand_quantum=1.0, l_max=5.0)
    load = sample_urllc_load(cfg, np.random.default_rng(1))
    assert load.total == 5.0
    assert load.per_minislot.sum() == 7.0


def test_load_mean_matches_binomial():
    # mean of 1e6 sampled totals vs the exact Binomial(14, 0.5) mean, within
    # three standard errors; l_max large enough that the clamp never binds.
    # The slots are drawn in blocks of rows of one generator, the stream that
    # n sample_urllc_load calls draw from, and their first totals equal those
    # calls'; the totals are whole multiples of the quantum, so their sum is
    # exact in any order
    cfg = small_cfg(num_minislots=14, puncture_prob=0.5)
    n, block = 1_000_000, 50_000
    draws = np.random.default_rng(42)
    total = 0.0
    for start in range(0, n, block):
        _, totals = _minislot_loads(cfg, draws.random((block, cfg.num_minislots)))
        if start == 0:
            rng = np.random.default_rng(42)
            assert [sample_urllc_load(cfg, rng).total for _ in range(1000)] == totals[:1000].tolist()
        total += float(totals.sum())
    q, m, p = cfg.demand_quantum, cfg.num_minislots, cfg.puncture_prob
    exact_mean = q * m * p
    stderr = q * math.sqrt(m * p * (1 - p)) / math.sqrt(n)
    assert abs(total / n - exact_mean) <= 3 * stderr


# -- broadband rate ------------------------------------------------------------


def test_rate_without_puncturing():
    cfg = small_cfg(num_embb_users=1, num_rbs=1)
    chan = snr_channel(cfg, [3.0], [3.0, 3.0])
    mat = SchedulingMatrix([[1.0]])
    r = embb_rate(cfg, chan, mat, np.zeros(1), cfg.l_max / 2)
    assert r[0] == pytest.approx(2e6, rel=1e-12)  # log2(1 + 3) = 2


def test_rate_fully_punctured():
    cfg = small_cfg(num_embb_users=1, num_rbs=1)
    chan = snr_channel(cfg, [3.0], [3.0, 3.0])
    mat = SchedulingMatrix([[1.0]])
    r = embb_rate(cfg, chan, mat, np.ones(1), cfg.l_max)
    assert r[0] == 0.0


def test_rate_matches_independent_reference():
    # a from-scratch evaluation of the punctured Shannon-rate formula
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    for _ in range(200):
        mat, chan, w, load = random_instance(rng, cfg)
        got = embb_rate(cfg, chan, mat, w, load)
        for u in range(cfg.num_embb_users):
            phi = sum(cfg.rb_bandwidth[b] * mat.entries[b, u] for b in range(cfg.num_rbs))
            snr = cfg.embb_tx_power[u] * chan.embb_gain[u] / cfg.noise_power
            want = phi * (1 - w[u] * load / cfg.l_max) * math.log2(1 + snr)
            assert got[u] == pytest.approx(want, rel=1e-12)


# every function of a realized load, in one signature
REALIZED_LOAD_FUNCTIONS = {
    "embb_rate": embb_rate,
    "urllc_rate": urllc_rate,
    "punctured_bandwidth": lambda cfg, chan, mat, w, load: punctured_bandwidth(cfg, mat, w, load),
    "evaluate_slot": evaluate_slot,
}


@pytest.mark.parametrize("name", sorted(REALIZED_LOAD_FUNCTIONS))
@pytest.mark.parametrize("factor", [1.01, 3.0])
def test_every_realized_load_function_rejects_a_load_above_lmax(factor, name):
    cfg = small_cfg()
    mat, chan, w, _ = random_instance(np.random.default_rng(0), cfg)
    fn = REALIZED_LOAD_FUNCTIONS[name]
    fn(cfg, chan, mat, w, cfg.l_max)
    with pytest.raises(ValueError, match=r"exceeds l_max .*; clamp first"):
        fn(cfg, chan, mat, w, factor * cfg.l_max)


def test_expected_rate_p_zero_is_unpunctured():
    cfg = small_cfg(puncture_prob=0.0)
    mat, chan, w, _ = random_instance(np.random.default_rng(4), cfg)
    np.testing.assert_allclose(
        expected_embb_rate(cfg, chan, mat, w),
        embb_rate(cfg, chan, mat, np.zeros(cfg.num_embb_users), 0.0),
        rtol=1e-12,
    )


def test_expected_rate_matches_monte_carlo():
    # Monte Carlo oracle over 1e6 loads; no clamping since l_max = M * quantum
    # and the rate is affine in the load
    cfg = small_cfg(puncture_prob=0.4)
    mat, chan, w, _ = random_instance(np.random.default_rng(5), cfg)
    rng = np.random.default_rng(6)
    loads = cfg.demand_quantum * rng.binomial(cfg.num_minislots, cfg.puncture_prob, 1_000_000)
    base = embb_rate(cfg, chan, mat, w, 0.0)
    slope = (base - embb_rate(cfg, chan, mat, w, cfg.l_max)) / cfg.l_max
    mc_mean = base - slope * loads.mean()
    np.testing.assert_allclose(expected_embb_rate(cfg, chan, mat, w), mc_mean, rtol=1e-3)


def test_expected_rate_full_puncture_zero():
    cfg = small_cfg(puncture_prob=1.0)  # mean load equals l_max
    mat, chan, _, _ = random_instance(np.random.default_rng(7), cfg)
    r = expected_embb_rate(cfg, chan, mat, np.ones(cfg.num_embb_users))
    np.testing.assert_allclose(r, 0.0, atol=1e-9)


# -- URLLC rate ----------------------------------------------------------------


def test_urllc_rate_zero_weights():
    cfg = small_cfg()
    mat, chan, _, load = random_instance(np.random.default_rng(8), cfg)
    assert urllc_rate(cfg, chan, mat, np.zeros(cfg.num_embb_users), load) == 0.0


def test_urllc_rate_single_pair():
    cfg = small_cfg(num_embb_users=1, num_rbs=1, num_urllc_users=1)
    chan = snr_channel(cfg, [10.0], [3.0])
    mat = SchedulingMatrix([[1.0]])
    w = np.array([0.5])
    load = cfg.l_max / 2
    theta = 1e6 * 0.5 * 0.5
    assert urllc_rate(cfg, chan, mat, w, load) == pytest.approx(theta * 2.0, rel=1e-12)


def test_urllc_rate_matches_independent_reference():
    cfg = small_cfg()
    rng = np.random.default_rng(9)
    for _ in range(200):
        mat, chan, w, load = random_instance(rng, cfg)
        got = urllc_rate(cfg, chan, mat, w, load)
        want = 0.0
        for c in range(cfg.num_urllc_users):
            snr_c = cfg.urllc_tx_power[c] * chan.urllc_gain[c] / cfg.noise_power
            for u in range(cfg.num_embb_users):
                phi = sum(cfg.rb_bandwidth[b] * mat.entries[b, u] for b in range(cfg.num_rbs))
                theta = phi * w[u] * load / cfg.l_max
                want += theta / cfg.num_urllc_users * math.log2(1 + snr_c)
        assert got == pytest.approx(want, rel=1e-12)


# -- outage --------------------------------------------------------------------


def test_outage_trivial_cases():
    assert outage_indicator(0.0, 1.0) is True
    assert outage_indicator(5e6, 0.0) is False
    assert outage_indicator(0.0, 0.0) is False  # empty slot is not an outage


def test_outage_monte_carlo_matches_binomial_tail():
    cfg = small_cfg(puncture_prob=0.3)
    mat, chan, w, _ = random_instance(np.random.default_rng(10), cfg)
    # scale weights down so some load levels produce outage and others do not
    w = w * 1e-4

    def outage_at(arrivals: int) -> bool:
        load = min(arrivals * cfg.demand_quantum, cfg.l_max)
        return outage_indicator(urllc_rate(cfg, chan, mat, w, load), load)

    m, p = cfg.num_minislots, cfg.puncture_prob
    exact = sum(
        math.comb(m, k) * p**k * (1 - p) ** (m - k) * outage_at(k) for k in range(m + 1)
    )
    rng = np.random.default_rng(11)
    n = 40_000
    hits = sum(
        outage_at(int(round(sample_urllc_load(cfg, rng).total / cfg.demand_quantum)))
        for _ in range(n)
    )
    stderr = math.sqrt(max(exact * (1 - exact), 1e-12) / n)
    assert abs(hits / n - exact) <= max(3 * stderr, 1e-9)


# -- invariants ----------------------------------------------------------------


def test_rate_monotone_in_weight_and_load():
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    for _ in range(300):
        mat, chan, w, load = random_instance(rng, cfg)
        bump = rng.random(cfg.num_embb_users) * (1 - w)
        lower = embb_rate(cfg, chan, mat, w + bump, load)
        assert np.all(lower <= embb_rate(cfg, chan, mat, w, load) + 1e-9)
        more_load = load + rng.random() * (cfg.l_max - load)
        assert np.all(
            embb_rate(cfg, chan, mat, w, more_load)
            <= embb_rate(cfg, chan, mat, w, load) + 1e-9
        )


def test_theta_conservation():
    cfg = small_cfg()
    rng = np.random.default_rng(13)
    for _ in range(300):
        mat, chan, w, load = random_instance(rng, cfg)
        phi = mat.user_bandwidth(cfg.rb_bandwidth)
        theta = punctured_bandwidth(cfg, mat, w, load)
        assert np.all(theta >= -1e-12)
        assert np.all(theta <= phi + 1e-9)
        assert theta.sum() <= phi.sum() + 1e-9
    full = punctured_bandwidth(cfg, mat, np.ones(cfg.num_embb_users), cfg.l_max)
    np.testing.assert_allclose(full.sum(), phi.sum(), rtol=1e-12)


def test_urllc_rate_linear_in_weights():
    cfg = small_cfg()
    rng = np.random.default_rng(14)
    mat, chan, _, load = random_instance(rng, cfg)
    w1 = rng.random(cfg.num_embb_users) * 0.5
    w2 = rng.random(cfg.num_embb_users) * 0.5
    r = lambda w: urllc_rate(cfg, chan, mat, w, load)
    assert r(0.3 * w1 + 0.7 * w2) == pytest.approx(0.3 * r(w1) + 0.7 * r(w2), rel=1e-12)
    assert r(np.zeros(cfg.num_embb_users)) == 0.0


def test_expected_rate_equals_rate_at_mean_load():
    cfg = small_cfg(puncture_prob=0.6)
    rng = np.random.default_rng(15)
    for _ in range(100):
        mat, chan, w, _ = random_instance(rng, cfg)
        np.testing.assert_allclose(
            expected_embb_rate(cfg, chan, mat, w),
            embb_rate(cfg, chan, mat, w, cfg.expected_load_bits()),
            rtol=1e-12,
        )


def test_evaluate_slot_consistency():
    cfg = small_cfg()
    mat, chan, w, load = random_instance(np.random.default_rng(16), cfg)
    out = evaluate_slot(cfg, chan, mat, PunctureWeights(w), load)
    assert out.embb_sum_rate == pytest.approx(out.embb_rate_per_user.sum(), rel=1e-12)
    assert out.realized_load == load
    np.testing.assert_allclose(out.punctured_bw, punctured_bandwidth(cfg, mat, w, load))
    assert out.outage == outage_indicator(out.urllc_rate, load)


def test_channel_sampler_gains_nonnegative_and_seeded():
    cfg = small_cfg()
    rng = np.random.default_rng(17)
    means = sample_mean_snr(cfg, rng)
    assert np.all(means[0] >= 10 ** (cfg.snr_min_db / 10))
    assert np.all(means[0] <= 10 ** (cfg.snr_max_db / 10))
    chan = sample_channel(cfg, means[0], means[1], rng)
    assert np.all(chan.embb_gain >= 0) and np.all(chan.urllc_gain >= 0)
    rng2 = np.random.default_rng(17)
    means2 = sample_mean_snr(cfg, rng2)
    chan2 = sample_channel(cfg, means2[0], means2[1], rng2)
    np.testing.assert_array_equal(chan.embb_gain, chan2.embb_gain)


# -- configuration -------------------------------------------------------------


def test_config_json_round_trip():
    cfg = SystemConfig()
    again = SystemConfig.from_json(cfg.to_json())
    for name, value in cfg.to_dict().items():
        assert getattr(again, name) == pytest.approx(value) or np.allclose(
            getattr(again, name), value
        )


def test_config_with_numpy_integer_counts_round_trips_through_json():
    cfg = SystemConfig(num_embb_users=np.int64(4), num_rbs=np.int64(8))
    assert cfg.validate() == []
    again = SystemConfig.from_json(cfg.to_json())
    assert type(again.num_embb_users) is int and type(again.num_rbs) is int
    assert again.to_json() == SystemConfig(num_embb_users=4, num_rbs=8).to_json()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        SystemConfig.from_dict({"num_embb_users": 4, "bogus_field": 1})


def test_config_partial_dict_uses_defaults():
    cfg = SystemConfig.from_dict({"puncture_prob": 0.25})
    assert cfg.puncture_prob == 0.25
    assert cfg.num_rbs == 50


@pytest.mark.parametrize(
    "field,value",
    [
        ("urllc_outage_budget", 0.0),
        ("puncture_prob", -0.1),
        ("num_minislots", 0),
        ("cvar_level", 1.0),
        ("risk_weight", 1.5),
        ("noise_power", 0.0),
        ("demand_quantum", -1.0),
    ],
)
def test_config_validation_catches_bad_fields(field, value):
    cfg = SystemConfig()
    setattr(cfg, field, value)
    assert any(v.startswith(field) for v in cfg.validate())


def test_config_lmax_defaults_to_one_arrival_per_minislot():
    cfg = SystemConfig(num_minislots=5, demand_quantum=100.0)
    assert cfg.l_max == 500.0


@pytest.mark.parametrize(
    "field",
    [
        "noise_power",
        "l_max",
        "puncture_prob",
        "cvar_level",
        "risk_weight",
        "urllc_outage_budget",
        "target_rate",
        "demand_quantum",
        "snr_min_db",
        "snr_max_db",
        "risk_rate_scale",
        "rb_bandwidth",
        "embb_tx_power",
        "urllc_tx_power",
    ],
)
def test_config_validation_rejects_non_finite(field):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=field):
            SystemConfig.from_dict({field: value})


@pytest.mark.parametrize(
    "kw, bad",
    [
        ({"snr_max_db": 1000.0}, []),
        ({"snr_min_db": 1000.0, "snr_max_db": 1000.0}, []),
        ({"snr_min_db": -1e300}, []),  # a vanishing SNR is a degenerate user, not an overflow
        ({"snr_max_db": np.nextafter(1000.0, np.inf)}, ["snr_max_db: must be at most 1000"]),
        (
            {"snr_min_db": 3000.0, "snr_max_db": 4000.0},
            ["snr_min_db: must be at most 1000", "snr_max_db: must be at most 1000"],
        ),
        (
            {"snr_min_db": 2000.0},
            ["snr_min_db: must be at most 1000", "snr_min_db: must not exceed snr_max_db"],
        ),
    ],
)
def test_config_validation_bounds_the_mean_snr(kw, bad):
    cfg = SystemConfig(**kw)
    assert cfg.validate() == bad
    if not bad:
        # the largest accepted mean SNR and its faded gains stay finite
        means = sample_mean_snr(cfg, np.random.default_rng(0))
        chan = sample_channel(cfg, *means, np.random.default_rng(1))
        assert np.isfinite(means[0]).all() and np.isfinite(chan.embb_gain).all()


def test_evaluate_slot_equals_rate_functions_bit_for_bit():
    cfg = small_cfg()
    rng = np.random.default_rng(17)
    for _ in range(50):
        mat, chan, w, load = random_instance(rng, cfg)
        out = evaluate_slot(cfg, chan, mat, PunctureWeights(w), load)
        np.testing.assert_array_equal(out.embb_rate_per_user, embb_rate(cfg, chan, mat, w, load))
        np.testing.assert_array_equal(out.punctured_bw, punctured_bandwidth(cfg, mat, w, load))
        assert out.urllc_rate == urllc_rate(cfg, chan, mat, w, load)


@pytest.mark.parametrize(
    "kw, line",
    [
        ({"num_rbs": 2.5}, "num_rbs: must be a positive integer, got 2.5"),
        ({"num_urllc_users": True}, "num_urllc_users: must be a positive integer, got True"),
        ({"num_minislots": "7"}, "num_minislots: must be a positive integer, got '7'"),
        ({"urllc_tx_power": "abc"}, "urllc_tx_power: must be a number or a list of numbers, got 'abc'"),
        ({"rb_bandwidth": [[1e5]]}, "rb_bandwidth: must be a number or a list of numbers, got [[100000.0]]"),
        ({"embb_tx_power": [1.0, 2.0]}, "embb_tx_power: has 2 entries, expected 1 or 10"),
    ],
)
def test_direct_construction_defers_malformed_fields_to_validate(kw, line):
    # nothing is broadcast that cannot be; validate() names exactly the bad field
    assert SystemConfig(**kw).validate() == [line]


@pytest.mark.parametrize(
    "kw, bad",
    [
        # 2000 dB either way is accepted, one ulp of a dB beyond it is not
        ({"embb_tx_power": 1e100, "urllc_tx_power": 1e100, "noise_power": 1e-100}, []),
        ({"embb_tx_power": 1e-100, "urllc_tx_power": 1e-100, "noise_power": 1e100}, []),
        ({"embb_tx_power": 1e101, "noise_power": 1e-100}, ["embb_tx_power"]),
        ({"embb_tx_power": 1e-301, "urllc_tx_power": 1e-300, "noise_power": 1e-100}, ["embb_tx_power"]),
        # one entry of a vector is enough
        ({"urllc_tx_power": [1.0, 1.0, 1.0, 1e201]}, ["urllc_tx_power"]),
        # a subnormal power is finite and > 0; its ratio is what fails
        ({"embb_tx_power": 5e-324}, ["embb_tx_power"]),
    ],
)
def test_transmit_powers_lie_within_2000_db_of_the_noise_power(kw, bad):
    lines = [f"{name}: must lie within 2000 dB of noise_power" for name in bad]
    assert SystemConfig(**kw).validate() == lines


@pytest.mark.parametrize("noise, ok", [(1e-100, True), (1e100, True), (1e-101, False), (1e101, False), (0.0, False)])
def test_noise_power_lies_within_1000_db_of_one_watt(noise, ok):
    # a noise power out of range is reported alone, not with the power ratios
    power = min(max(noise, 1e-100), 1e100)
    kw = {"noise_power": noise, "embb_tx_power": power, "urllc_tx_power": power}
    assert SystemConfig(**kw).validate() == ([] if ok else ["noise_power: must lie in [1e-100, 1e100]"])


BANDWIDTH_LINE = "rb_bandwidth: must sum to at most 1e+100 Hz, got {}"
ULP_OVER = repr(np.nextafter(1e100, np.inf).item())
LOAD_LINE = (
    "l_max: the expected load fraction num_minislots * puncture_prob * demand_quantum / l_max "
    "must be at most 1e+100, got {}"
)
MIN_BANDWIDTH_LINE = "rb_bandwidth: every entry must be at least 1e-100 Hz, got {}"
ULP_UNDER = repr(np.nextafter(1e-100, 0.0).item())
FLOOR_LINE = (
    "demand_quantum: the URLLC rate floor num_minislots * puncture_prob * "
    "demand_quantum / (urllc_outage_budget * 1 ms) must be finite"
)
SHARE_LINE = (
    "{}: {} / (urllc_outage_budget * 1 ms * total bandwidth * 338) must be at least "
    "2.2250738585072014e-308 where the URLLC rate floor is positive, got {}"
)
DERIVED = "demand_quantum", "num_minislots * demand_quantum"


@pytest.mark.parametrize(
    "kw, bad",
    [
        # 50 RBs summing to 1e100 Hz, and one ulp above it
        ({"rb_bandwidth": 1.9999999999999997e98}, []),
        ({"rb_bandwidth": 2e98}, [BANDWIDTH_LINE.format(ULP_OVER)]),
        ({"num_rbs": 1, "rb_bandwidth": 1e100}, []),
        ({"num_rbs": 1, "rb_bandwidth": np.nextafter(1e100, np.inf)}, [BANDWIDTH_LINE.format(ULP_OVER)]),
        # finite entries whose sum overflows
        ({"num_rbs": 2, "rb_bandwidth": 1e308}, [BANDWIDTH_LINE.format("inf")]),
        # 896 bits expected: a load fraction of 1e100, and one ulp of l_max below it
        ({"l_max": 8.96e-98}, []),
        ({"l_max": np.nextafter(8.96e-98, 0.0)}, [LOAD_LINE.format(ULP_OVER)]),
        ({"l_max": 1e-300}, [LOAD_LINE.format("8.96e+302")]),
        ({"l_max": 5e-324}, [LOAD_LINE.format("inf")]),
        ({"puncture_prob": 0.0, "l_max": 5e-324}, []),
        # int fields whose product is no float: the fraction is taken in floats
        ({"puncture_prob": 1, "demand_quantum": 10**308, "l_max": 1}, [LOAD_LINE.format("inf")]),
        # the default l_max bounds the fraction by puncture_prob
        ({"demand_quantum": 1e300}, []),
        # an invalid field is reported alone
        ({"l_max": -1.0}, ["l_max: must be > 0"]),
        ({"rb_bandwidth": [1e308, np.inf] * 25}, ["rb_bandwidth: all entries must be finite and > 0"]),
        # each RB at least 1e-100 Hz; the smallest entry is reported
        ({"rb_bandwidth": 1e-100, "demand_quantum": 1e-300}, []),
        ({"rb_bandwidth": np.nextafter(1e-100, 0.0)}, [MIN_BANDWIDTH_LINE.format(ULP_UNDER)]),
        ({"rb_bandwidth": [1e6] * 49 + [1e-101]}, [MIN_BANDWIDTH_LINE.format("1e-101")]),
        # the floor multiplier's Newton slope underflowed to 0 and the step
        # raised ZeroDivisionError
        ({"rb_bandwidth": 1e-200, "demand_quantum": 1e-205}, [MIN_BANDWIDTH_LINE.format("1e-200")]),
        ({"rb_bandwidth": 1e-290, "demand_quantum": 1e-300}, [MIN_BANDWIDTH_LINE.format("1e-290")]),
        # a floor of 3.5e4 * demand_quantum bit/s: finite at 5e303, inf at 6e303
        ({"demand_quantum": 5e303}, []),
        ({"demand_quantum": 6e303}, [FLOOR_LINE]),
        ({"demand_quantum": 1e306}, [FLOOR_LINE]),
        ({"urllc_outage_budget": 1e-300}, []),
        ({"urllc_outage_budget": 1e-306}, [FLOOR_LINE]),
        # the budget's seconds underflow to 0: the floor divided by zero
        ({"urllc_outage_budget": 5e-324}, [FLOOR_LINE]),
        ({"urllc_outage_budget": 5e-324, "puncture_prob": 0.0}, []),
        # l_max is derived only from a demand_quantum that passes its own
        # rules, and a derived l_max that fails one is demand_quantum's error
        ({"demand_quantum": -5}, ["demand_quantum: must be > 0"]),
        ({"demand_quantum": float("nan")}, ["demand_quantum: must be a finite number, got nan"]),
        ({"demand_quantum": 1e308}, ["demand_quantum: num_minislots * demand_quantum must be a finite number, got inf"]),
        ({"demand_quantum": 1e308, "l_max": 1.0}, [LOAD_LINE.format("inf")]),
        # baseline 2's greedy shares of the floor stay normal floats: l_max /
        # 608 400 at the defaults, so demand_quantum at least 1.934e-303; at
        # 1e-322 every share was 0 and every slot counted feasible
        ({"demand_quantum": 1e-322}, [SHARE_LINE.format(*DERIVED, "0.0")]),
        ({"demand_quantum": 1e-305}, [SHARE_LINE.format(*DERIVED, "1.15055884286654e-310")]),
        ({"demand_quantum": 1.93e-303}, [SHARE_LINE.format(*DERIVED, "2.2205785667324124e-308")]),
        ({"demand_quantum": 1.94e-303}, []),
        ({"demand_quantum": 1e-310, "l_max": 1e-302}, [SHARE_LINE.format("l_max", "l_max", "1.643655489809336e-308")]),
        ({"demand_quantum": 1e-310, "l_max": 2e-302}, []),
        # no floor, no share
        ({"demand_quantum": 1e-322, "puncture_prob": 0.0}, []),
    ],
)
def test_total_bandwidth_and_expected_load_fraction_are_bounded(kw, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert SystemConfig(**kw).validate() == bad


def test_vector_fields_broadcast_one_entry_or_take_full_length():
    cfg = SystemConfig(num_rbs=3, rb_bandwidth=[2e5], embb_tx_power=np.arange(1.0, 11.0))
    np.testing.assert_array_equal(cfg.rb_bandwidth, [2e5, 2e5, 2e5])
    np.testing.assert_array_equal(cfg.embb_tx_power, np.arange(1.0, 11.0))
    assert cfg.validate() == []


def test_spectral_efficiencies_follow_the_values_they_are_memoized_on():
    from urllc_slice.model import embb_spectral_eff, spectral_efficiencies, urllc_spectral_eff_mean

    cfg = small_cfg()
    chan = ChannelRealization(embb_gain=[1.0, 3.0, 7.0], urllc_gain=[2.0, 5.0])

    def direct():
        embb = np.log2(1.0 + cfg.embb_tx_power * chan.embb_gain / cfg.noise_power)
        urllc = np.log2(1.0 + cfg.urllc_tx_power * chan.urllc_gain / cfg.noise_power)
        return embb, float(urllc.mean())

    for change in (
        lambda: None,
        lambda: chan.embb_gain.__setitem__(1, 4.0),  # in place: same object, new value
        lambda: chan.urllc_gain.__setitem__(0, 9.0),
        lambda: setattr(cfg, "noise_power", 2.0),
        lambda: cfg.embb_tx_power.__setitem__(2, 0.5),
        lambda: setattr(cfg, "urllc_tx_power", np.array([1.0, 3.0])),
    ):
        change()
        embb, urllc = spectral_efficiencies(cfg, chan)
        want_embb, want_urllc = direct()
        np.testing.assert_array_equal(embb, want_embb)
        assert urllc == want_urllc
        np.testing.assert_array_equal(embb_spectral_eff(cfg, chan), want_embb)
        assert urllc_spectral_eff_mean(cfg, chan) == want_urllc
    # the memoized array is read-only; the public function returns a fresh copy
    assert not spectral_efficiencies(cfg, chan)[0].flags.writeable
    copy = embb_spectral_eff(cfg, chan)
    copy[:] = -1.0
    np.testing.assert_array_equal(embb_spectral_eff(cfg, chan), direct()[0])


def test_spectral_efficiency_memo_tells_signed_zeros_apart():
    from urllc_slice.model import embb_spectral_eff

    cfg = small_cfg()
    chan = ChannelRealization(embb_gain=[1.0, 2.0, 3.0], urllc_gain=[1.0, 1.0])
    # invalid noise powers, but the memo must follow their exact bits
    with np.errstate(divide="ignore", invalid="ignore"):
        cfg.noise_power = 0.0
        plus = embb_spectral_eff(cfg, chan)
        cfg.noise_power = -0.0
        minus = embb_spectral_eff(cfg, chan)
    assert np.all(np.isposinf(plus)) and np.all(np.isnan(minus))
