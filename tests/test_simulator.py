import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from urllc_slice import simulator
from urllc_slice.embb_scheduler import round_to_binary, solve_fractional
from urllc_slice.model import SystemConfig, embb_rate, sample_channel, sample_mean_snr
from urllc_slice.simulator import (
    Policy,
    mean_snr_rng,
    run_simulation,
    slot_rng,
    sweep,
)


def quick_cfg(**kw):
    return SystemConfig(**kw)


def test_no_traffic_has_no_outage_and_unpunctured_reliability():
    cfg = quick_cfg(puncture_prob=0.0)
    slots, seed = 100, 11
    metrics = run_simulation(cfg, "proposed", slots, seed)
    assert metrics.urllc_outage_rate == 0.0
    # recompute the unpunctured reliability from the same streams
    means = sample_mean_snr(cfg, mean_snr_rng(seed))
    hits = 0
    for slot in range(slots):
        rng = slot_rng(seed, slot)
        chan = sample_channel(cfg, means[0], means[1], rng)
        binary = round_to_binary(solve_fractional(cfg, chan), cfg)
        rates = embb_rate(cfg, chan, binary, np.zeros(cfg.num_embb_users), 0.0)
        hits += int((rates >= cfg.target_rate).sum())
    assert metrics.embb_reliability == pytest.approx(
        hits / (slots * cfg.num_embb_users), abs=1e-12
    )


def test_single_slot_ecdf_is_one_step():
    metrics = run_simulation(quick_cfg(), "baseline1", 1, 3)
    assert metrics.ecdf_values.shape == (1,)
    np.testing.assert_array_equal(metrics.ecdf_probs, [1.0])


def test_policies_share_random_draws():
    # with no URLLC traffic every policy degenerates to the same plan, so
    # common random numbers make the metrics identical across policies
    cfg = quick_cfg(puncture_prob=0.0)
    a = run_simulation(cfg, Policy.PROPOSED, 60, 5)
    b = run_simulation(cfg, Policy.BASELINE1, 60, 5)
    c = run_simulation(cfg, Policy.BASELINE2, 60, 5)
    for other in (b, c):
        assert a.embb_reliability == other.embb_reliability
        np.testing.assert_array_equal(a.ecdf_values, other.ecdf_values)
        np.testing.assert_array_equal(a.per_user_mean_rate, other.per_user_mean_rate)


def test_reproducible_metrics():
    cfg = quick_cfg()
    a = run_simulation(cfg, "proposed", 50, 17)
    b = run_simulation(cfg, "proposed", 50, 17)
    assert a.to_json() == b.to_json()


def test_each_slot_is_drawn_once_per_invocation(tmp_path, monkeypatch):
    # three policies at two sweep values share each chunk's draws
    from urllc_slice.cli import main

    drawn, real_draws = [], simulator._slot_draws

    def counting(cfg, seed, start, stop):
        drawn.append(stop - start)
        return real_draws(cfg, seed, start, stop)

    monkeypatch.setattr(simulator, "_slot_draws", counting)
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * 21)
    argv = ["run", "--policy", "all", "--sweep", "p", "--values", "0.2,0.7", "--slots", "30"]
    assert main(argv + ["--seed", "7", "--threads", "1", "--out", str(tmp_path)]) == 0
    assert drawn == [7, 7, 7, 7, 2]
    assert len(list(tmp_path.glob("metrics_*.json"))) == 6


def test_a_batch_checks_its_runs():
    from urllc_slice.model import ConfigError

    cfg = quick_cfg()
    with pytest.raises(ConfigError, match="may differ only in puncture_prob"):
        simulator.run_simulations([(cfg, "proposed"), (replace(cfg, snr_max_db=20.0), "proposed")], 4, 1)
    got = simulator.run_simulations([(cfg, "proposed"), (replace(cfg, risk_weight=0.0), "baseline2")], 4, 1)
    assert [m.policy for m in got] == ["proposed", "baseline2"]
    for runs, sinks in [([], None), ([(cfg, "proposed")], [None, None])]:
        with pytest.raises(ConfigError, match="one trace_sinks entry per run"):
            simulator.run_simulations(runs, 4, 1, trace_sinks=sinks)


def test_worker_pool_matches_sequential():
    cfg = quick_cfg()
    seq = run_simulation(cfg, "baseline1", 40, 23, workers=1)
    par = run_simulation(cfg, "baseline1", 40, 23, workers=3)
    assert seq.to_json() == par.to_json()


def test_ecdf_is_valid_distribution():
    metrics = run_simulation(quick_cfg(), "baseline2", 200, 29)
    assert np.all(np.diff(metrics.ecdf_values) > 0)
    assert np.all(np.diff(metrics.ecdf_probs) > 0)
    assert metrics.ecdf_probs[-1] == pytest.approx(1.0)
    assert metrics.ecdf_probs[0] > 0
    assert 0.0 <= metrics.embb_reliability <= 1.0
    assert 0.0 <= metrics.urllc_outage_rate <= 1.0


def test_sweep_single_point_matches_run():
    cfg = quick_cfg()
    single = sweep(cfg, "proposed", "p", [0.0], 40, 31)[0]
    direct = run_simulation(replace(cfg, puncture_prob=0.0), "proposed", 40, 31)
    assert single.to_json() == direct.to_json()


def test_sweep_p_mean_rate_nonincreasing():
    cfg = quick_cfg()
    results = sweep(cfg, "proposed", "p", [0.1, 0.5, 0.9], 150, 37)
    means = [m.mean_sum_rate for m in results]
    assert means[0] >= means[1] >= means[2]


def test_sweep_epsilon_mean_rate_nondecreasing():
    cfg = quick_cfg()
    results = sweep(cfg, "baseline1", "epsilon", [0.02, 0.1, 0.5], 150, 41)
    means = [m.mean_sum_rate for m in results]
    assert means[0] <= means[1] <= means[2]


def test_sweep_rejects_out_of_domain_values():
    cfg = quick_cfg()
    with pytest.raises(ValueError, match="urllc_outage_budget"):
        sweep(cfg, "proposed", "epsilon", [0.0], 10, 1)
    with pytest.raises(ValueError, match="puncture_prob"):
        sweep(cfg, "proposed", "p", [1.5], 10, 1)
    with pytest.raises(ValueError, match="parameter"):
        sweep(cfg, "proposed", "alpha", [0.5], 10, 1)


def test_invalid_config_aborts_before_slots():
    cfg = quick_cfg()
    cfg.urllc_outage_budget = 0.0
    with pytest.raises(ValueError, match="urllc_outage_budget"):
        run_simulation(cfg, "proposed", 5, 1)


def test_outage_rate_within_budget_on_short_run():
    cfg = quick_cfg()
    metrics = run_simulation(cfg, "proposed", 200, 43)
    assert metrics.n_infeasible_slots == 0
    budget = cfg.urllc_outage_budget
    assert metrics.urllc_outage_rate <= budget + 3 * math.sqrt(budget / 200)


def test_metrics_json_schema_stable():
    keys = {
        "policy",
        "slots",
        "seed",
        "puncture_prob",
        "urllc_outage_budget",
        "risk_weight",
        "embb_reliability",
        "urllc_outage_rate",
        "mean_sum_rate",
        "sum_rate_cvar_upper",
        "sum_rate_cvar_lower",
        "sum_rate_ecdf",
        "per_user_mean_rate",
        "per_user_mean_theta",
        "n_infeasible_slots",
    }
    for policy in ("proposed", "baseline2"):
        metrics = run_simulation(quick_cfg(), policy, 5, 47)
        assert set(metrics.to_dict()) == keys
        assert metrics.sum_rate_cvar_upper >= metrics.sum_rate_cvar_lower


def test_trace_sink_collects_per_slot_traces():
    sink = []
    run_simulation(quick_cfg(), "proposed", 4, 53, trace_sink=sink)
    assert len(sink) == 4
    assert all(t["converged"] for t in sink)
    assert [t["slot"] for t in sink] == [0, 1, 2, 3]


def test_degenerate_users_warned_once_per_slot(caplog):
    # at -400 dB, log2(1 + SNR) rounds to 0 for every user in every slot
    cfg = quick_cfg(snr_min_db=-400.0, snr_max_db=-400.0)
    with caplog.at_level("WARNING", logger="urllc_slice.embb_scheduler"):
        metrics = run_simulation(cfg, "proposed", 3, 5)
    warnings = [r.getMessage() for r in caplog.records if "degenerate" in r.getMessage()]
    users = list(range(cfg.num_embb_users))
    assert warnings == [f"excluding {len(users)} degenerate user(s) from scheduling: {users}"] * 3
    assert metrics.n_infeasible_slots == 3


def test_baseline1_builds_no_config_per_slot(monkeypatch):
    cfg = quick_cfg()
    built = []
    post_init = SystemConfig.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counting)
    run_simulation(cfg, "baseline1", 20, 3)
    assert built == []


def test_metrics_json_is_canonical_indented_json():
    metrics = run_simulation(quick_cfg(), "proposed", 30, 59)
    assert metrics.to_json() == json.dumps(metrics.to_dict(), indent=2, sort_keys=True)
    ecdf = metrics.to_dict()["sum_rate_ecdf"]
    assert ecdf == {"values": metrics.ecdf_values.tolist(), "cum_probs": metrics.ecdf_probs.tolist()}


def test_trace_sink_is_the_same_for_every_worker_count():
    sinks = {}
    for workers in (1, 2, 3):
        sinks[workers] = []
        run_simulation(quick_cfg(), "proposed", 7, 61, workers=workers, trace_sink=sinks[workers])
    assert [t["slot"] for t in sinks[1]] == list(range(7))
    assert sinks[1] == sinks[2] == sinks[3]


class _NoPool:
    """Stands in for ProcessPoolExecutor: fails the test if a pool is made."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a run started a process pool")


@pytest.mark.parametrize(
    "cpus, workers, slots",
    [
        (4, 64, 10),
        (4, 100_000, 3),
        (4, 3, 10),
        (2, 3, 10),
        (4, 5, 1),
        (1, 8, 10),
        (None, 8, 10),
    ],
)
def test_no_worker_or_cpu_count_starts_a_pool_or_changes_output(monkeypatch, cpus, workers, slots):
    import concurrent.futures

    cfg = quick_cfg()
    seq = run_simulation(cfg, "baseline2", slots, 67)
    seq_sink = []
    run_simulation(cfg, "proposed", slots, 67, trace_sink=seq_sink)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    par = run_simulation(cfg, "baseline2", slots, 67, workers=workers)
    par_sink = []
    run_simulation(cfg, "proposed", slots, 67, workers=workers, trace_sink=par_sink)
    assert par.to_json() == seq.to_json()
    assert par_sink == seq_sink


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_folds_each_chunk_before_drawing_the_next(monkeypatch, workers):
    # 40 slots in chunks of 2: every run folds a chunk's rows before the next
    # chunk is drawn, so a batch holds one chunk's draws at a time
    cfg = quick_cfg()
    runs = [(cfg, "baseline2"), (cfg, "proposed")]
    draws_per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 2 * draws_per_slot)
    expected = [m.to_json() for m in simulator.run_simulations(runs, 40, 5)]
    events = []
    draws, add = simulator._slot_draws, simulator._RunTotals.add

    def recording_draws(cfg, seed, start, stop):
        events.append(("draw", start, stop))
        return draws(cfg, seed, start, stop)

    def recording_add(self, rows):
        events.append("fold")
        add(self, rows)

    monkeypatch.setattr(simulator, "_slot_draws", recording_draws)
    monkeypatch.setattr(simulator._RunTotals, "add", recording_add)
    assert [m.to_json() for m in simulator.run_simulations(runs, 40, 5, workers=workers)] == expected
    assert events == [e for lo in range(0, 40, 2) for e in (("draw", lo, lo + 2), "fold", "fold")]


def test_one_process_run_loads_no_process_pool(tmp_path):
    import urllc_slice

    argv = ["run", "--policy", "all", "--slots", "40", "--seed", "1", "--threads", "4"]
    code = (
        "import contextlib, io, sys\n"
        "from urllc_slice import cli\n"
        "from urllc_slice.model import SystemConfig\n"
        "from urllc_slice.simulator import run_simulation\n"
        "run_simulation(SystemConfig(), 'proposed', 3, 1, workers=1, trace_sink=[])\n"
        "run_simulation(SystemConfig(), 'baseline1', 1, 1, workers=4)\n"
        "run_simulation(SystemConfig(), 'baseline2', 40, 1, workers=4)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(urllc_slice.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def _no_slot_may_run(*args):
    raise AssertionError("an oversized run reached the slot loop")


def test_oversized_slot_count_rejected_before_allocating(monkeypatch):
    from urllc_slice import simulator
    from urllc_slice.model import MAX_ASSIGNMENT_ENTRIES

    monkeypatch.setattr(simulator, "_simulate_range", _no_slot_may_run)
    cfg = quick_cfg()
    slots = MAX_ASSIGNMENT_ENTRIES // cfg.num_embb_users + 1
    line = (
        f"num_slots * num_embb_users must be at most {MAX_ASSIGNMENT_ENTRIES}, "
        f"got {slots * cfg.num_embb_users}"
    )
    with pytest.raises(ValueError) as exc:
        run_simulation(cfg, "proposed", slots, 1)
    assert str(exc.value) == line
    with pytest.raises(ValueError, match="num_slots"):
        run_simulation(cfg, "baseline1", 10**12, 1, workers=10**5)
    with pytest.raises(ValueError) as exc:
        sweep(cfg, "baseline2", "beta", [0.2, 0.8], slots, 1)
    assert str(exc.value) == line


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: run_simulation(cfg, "baseline2", 0, 1),
        lambda cfg: run_simulation(cfg, "baseline2", 4, 1, workers=0),
        lambda cfg: run_simulation(replace(cfg, urllc_outage_budget=0.0), "baseline2", 4, 1),
        lambda cfg: run_simulation(cfg, "baseline2", 10**12, 1),
        lambda cfg: sweep(cfg, "baseline2", "alpha", [0.5], 4, 1),
        lambda cfg: sweep(cfg, "baseline2", "p", [1.5], 4, 1),
    ],
)
def test_argument_checks_raise_config_errors(call):
    # a ValueError subclass, so callers catching ValueError still do
    from urllc_slice.model import ConfigError

    with pytest.raises(ConfigError):
        call(quick_cfg())


def test_nonpositive_worker_count_rejected():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_simulation(quick_cfg(), "baseline1", 4, 1, workers=0)


def test_numpy_integer_slots_and_seed_give_the_same_json():
    cfg = quick_cfg()
    expected = run_simulation(cfg, "proposed", 5, 3).to_json()
    assert run_simulation(cfg, "proposed", np.int64(5), np.int64(3)).to_json() == expected


def test_pool_log_records_are_emitted_in_slot_order(monkeypatch, caplog):
    # near -156 dB a different user is degenerate from slot to slot, so the
    # warnings of different chunks differ
    cfg = quick_cfg(num_embb_users=3, snr_min_db=-165.0, snr_max_db=-150.0)

    def warnings(workers):
        caplog.clear()
        with caplog.at_level("WARNING", logger="urllc_slice"):
            run_simulation(cfg, "baseline2", 12, 7, workers=workers)
        return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

    in_order = warnings(1)
    assert len(set(in_order)) > 1
    # four chunks of three slots hold and emit their records in turn
    draws_per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 3 * draws_per_slot)
    assert warnings(4) == in_order
    assert logging.getLogger("urllc_slice").propagate  # restored after each chunk


def test_a_failing_pooled_range_emits_its_records_before_raising(monkeypatch, caplog):
    log = logging.getLogger("urllc_slice.simulator")
    real_rows = simulator._policy_rows

    def failing_rows(cfg, policy, all_active, chunk, post_round, traced):
        log.warning("%s from slot %d", policy.value, chunk.start)
        if policy == Policy.BASELINE1 and chunk.start >= 6:
            raise ValueError(f"{policy.value} from slot {chunk.start} failed")
        return real_rows(cfg, policy, all_active, chunk, post_round, traced)

    def outcome(workers):
        caplog.clear()
        with caplog.at_level("WARNING", logger="urllc_slice"):
            with pytest.raises(ValueError) as err:
                runs = [(quick_cfg(), "baseline2"), (quick_cfg(), "baseline1")]
                simulator.run_simulations(runs, 12, 7, workers=workers)
        return [r.getMessage() for r in caplog.records], str(err.value)

    monkeypatch.setattr(simulator, "_policy_rows", failing_rows)
    # four chunks of three slots; the run stops at the third. The first run's
    # records come as its chunks do, the second run's after them
    cfg = quick_cfg()
    draws_per_slot = cfg.num_embb_users + cfg.num_urllc_users + cfg.num_minislots
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 3 * draws_per_slot)
    assert outcome(4) == (
        [f"{policy} from slot {start}" for policy in ("baseline2", "baseline1") for start in (0, 3, 6)],
        "baseline1 from slot 6 failed",
    )
    assert logging.getLogger("urllc_slice").propagate
