"""System model: configuration, channel and traffic sampling, rate equations.

One scheduling slot is 1 ms and contains ``num_minislots`` minislots. Sporadic
low-latency arrivals land on minislot boundaries and are served by zeroing
transmit power on part of the broadband users' already-scheduled bandwidth
("puncturing"). Everything here is a pure function of explicit inputs;
randomness enters only through a caller-supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .json_writer import _fields_dict, _json_indented

SLOT_DURATION_S = 1e-3


class ConfigError(ValueError):
    """Invalid or unparseable system configuration."""


# Largest accepted mean SNR, in dB: 10**100 linear, far beyond any physical
# SNR and far below where 10 ** (dB / 10) or the fading product overflows.
MAX_SNR_DB = 1000.0
# Accepted noise powers, in W: within 1000 dB of 1 W.
NOISE_POWER_RANGE = (1e-100, 1e100)
# Largest accepted |10 log10(P / noise_power)| of a transmit power P, in dB:
# 10**200 either way, so noise_power / P and its inverse are finite and
# normal. A gain is computed as mean SNR * fading * noise_power / P: with an
# accepted mean SNR, noise power and Exp(1) fading factor (below 45) the
# product before the division stays below 1e202 and the gain below 1e302.
# At 10**300 either way every gain underflows to zero or a gain overflows.
MAX_POWER_RATIO_DB = 2000.0
# Largest accepted total bandwidth (the sum of rb_bandwidth), in Hz: 10**100.
# A spectral efficiency stays below about 338 bit/s/Hz (log2 of 1 + 45 times
# the 10**100 of MAX_SNR_DB), so every rate stays below 3.4e102 bit/s and a
# run's sums of rates over users and slots stay finite. At 5e307 Hz (50 RBs
# of 1e306 Hz) a slot's sum rate overflows.
MAX_TOTAL_BANDWIDTH = 1e100
# Smallest accepted bandwidth of one RB, in Hz: 10**-100, the mirror of
# MAX_TOTAL_BANDWIDTH. A positive spectral efficiency is at least about 1e-16
# bit/s/Hz (log2(1 + x) is 0 below x = 2.2e-16), and a mean of them over at
# most MAX_COUNT URLLC users about 1e-21. The placement's floor multiplier,
# near n / (e * sum phi) for n users of bandwidth phi and mean URLLC
# efficiency e, then stays below about 1e126, and its Newton slope sum
# (s + lam)**-2 above 1e-253. At 1e-200 Hz the multiplier passes 1e154, the
# slope underflows to 0 and the Newton step divides by it.
MIN_RB_BANDWIDTH = 1e-100
# Largest accepted expected load fraction kappa = num_minislots *
# puncture_prob * demand_quantum / l_max: 10**100. The placement's floor
# coefficient phi * kappa * e (user bandwidth phi, mean URLLC spectral
# efficiency e) then stays below 1e100 * 1e100 * 338 = 3.4e202, so its sums
# over users and its products with the weights stay finite. At 9e302 (l_max
# = 1e-300 with the other fields at their defaults) it overflows.
MAX_LOAD_FRACTION = 1e100
# Smallest accepted l_max / (urllc_outage_budget * 1 ms * W * 338) for a
# total bandwidth W, where the URLLC rate floor is positive: the smallest
# normal float. Baseline 2's greedy gives a user of bandwidth phi and mean
# URLLC spectral efficiency e (below 338 bit/s/Hz, see MAX_TOTAL_BANDWIDTH)
# the share floor / (phi * kappa * e), at least floor / (kappa * W * 338),
# which is this ratio: floor / kappa = l_max / (urllc_outage_budget * 1 ms),
# as the expected load, and puncture_prob with it, cancels. A subnormal share
# loses the bits by which the user's floor coefficient times it meets the
# floor: at demand_quantum 1e-322 every share was 0, and baseline 2 counted
# every slot feasible without puncturing.
MIN_FLOOR_SHARE = sys.float_info.min


def _in_noise_range(v) -> bool:
    return NOISE_POWER_RANGE[0] <= v <= NOISE_POWER_RANGE[1]


# Scalar float fields of SystemConfig: (name, rule, check of a finite value).
_SCALAR_RULES = (
    ("noise_power", "must lie in [1e-100, 1e100]", _in_noise_range),
    ("l_max", "must be > 0", lambda v: v > 0),
    ("puncture_prob", "must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("cvar_level", "must lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    ("risk_weight", "must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("urllc_outage_budget", "must lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    ("target_rate", "must be > 0", lambda v: v > 0),
    ("demand_quantum", "must be > 0", lambda v: v > 0),
    ("snr_min_db", f"must be at most {MAX_SNR_DB:g}", lambda v: v <= MAX_SNR_DB),
    ("snr_max_db", f"must be at most {MAX_SNR_DB:g}", lambda v: v <= MAX_SNR_DB),
    ("risk_rate_scale", "must be > 0", lambda v: v > 0),
)

_COUNT_FIELDS = ("num_embb_users", "num_rbs", "num_minislots", "num_urllc_users")

# Largest accepted value of a count field. Counts size arrays before anything
# else is checked: num_rbs = 10**10 would broadcast rb_bandwidth to 80 GB.
MAX_COUNT = 100_000
# Largest accepted num_rbs * num_embb_users, the size of the B x U assignment
# matrix (10**7 float64 entries take 80 MB).
MAX_ASSIGNMENT_ENTRIES = 10_000_000

# Vector fields of SystemConfig and the count field that sets their length.
_VECTOR_FIELDS = (
    ("rb_bandwidth", "num_rbs"),
    ("embb_tx_power", "num_embb_users"),
    ("urllc_tx_power", "num_urllc_users"),
)


def _is_positive_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def _is_count(v) -> bool:
    return _is_positive_int(v) and v <= MAX_COUNT


def _is_number(v) -> bool:
    """A real number a float can hold (bools excluded; an int beyond the
    float range is not one)."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _vector_problem(value, length) -> str | None:
    """Why ``value`` cannot be broadcast to a float vector of ``length``
    entries, or None when it can: it must be a number or a flat list of
    numbers holding one entry or ``length`` of them."""
    if isinstance(value, np.ndarray):
        ok, size = value.dtype.kind in "iuf" and value.ndim <= 1, value.size
    elif isinstance(value, (list, tuple)):
        ok, size = all(map(_is_number, value)), len(value)
    else:
        ok, size = _is_number(value), 1
    if not ok:
        return f"must be a number or a list of numbers, got {value!r}"
    if size not in (1, length):
        return f"has {size} entries, expected 1 or {length}"
    return None


@dataclass(eq=False)
class SystemConfig:
    """Static system parameters.

    Vector-valued fields (``rb_bandwidth``, ``embb_tx_power``,
    ``urllc_tx_power``) accept scalars and are broadcast to the right length.
    ``l_max`` (maximum servable URLLC traffic per slot, bits) defaults to
    ``num_minislots * demand_quantum``, i.e. one arrival per minislot. Count
    fields are at most ``MAX_COUNT`` and ``num_rbs * num_embb_users`` at most
    ``MAX_ASSIGNMENT_ENTRIES``; a larger count is left unbroadcast for
    ``validate()`` to report.
    """

    num_embb_users: int = 10
    num_rbs: int = 50
    num_minislots: int = 7
    num_urllc_users: int = 4
    rb_bandwidth: np.ndarray = 360e3          # Hz per RB
    l_max: float = None                       # bits per slot
    embb_tx_power: np.ndarray = 1.0           # W
    urllc_tx_power: np.ndarray = 1.0          # W
    noise_power: float = 1.0                  # W
    puncture_prob: float = 0.5                # arrival probability per minislot
    cvar_level: float = 0.9
    risk_weight: float = 1.0
    urllc_outage_budget: float = 0.1
    target_rate: float = 2e6                  # bits/s, reliability threshold
    demand_quantum: float = 256.0             # bits carried by one arrival
    snr_min_db: float = 3.0                   # per-user mean SNR range
    snr_max_db: float = 30.0
    risk_rate_scale: float = 8e6              # bits/s; rate unit of the risk penalty

    def __post_init__(self):
        # Values that cannot be broadcast stay as given, for validate() to report.
        for name, count in _VECTOR_FIELDS:
            value, length = getattr(self, name), getattr(self, count)
            if _is_count(length) and _vector_problem(value, length) is None:
                vec = np.broadcast_to(np.asarray(value, dtype=float), (length,)).copy()
                setattr(self, name, vec)
        # l_max's default is derived only from fields that pass their own
        # rules; validate() reports a default that fails as their error
        self._l_max_derived = self.l_max is None and self._l_max_derivable()
        if self._l_max_derived:
            self.l_max = float(self.num_minislots * float(self.demand_quantum))

    def _l_max_derivable(self) -> bool:
        quantum = self.demand_quantum
        return _is_count(self.num_minislots) and _is_number(quantum) and 0 < quantum < math.inf

    # -- derived quantities -------------------------------------------------

    def total_bandwidth(self) -> float:
        return float(self.rb_bandwidth.sum())

    def expected_load_bits(self) -> float:
        """Mean URLLC traffic per slot, ignoring the l_max clamp. Taken in
        Python floats, so a product too large for a float is inf, without an
        OverflowError or a warning, also for int fields."""
        return float(self.num_minislots) * float(self.puncture_prob) * float(self.demand_quantum)

    def expected_load_fraction(self) -> float:
        """Mean load normalized by l_max; multiplies the puncture weights."""
        return self.expected_load_bits() / float(self.l_max)

    def markov_rate_floor(self) -> float:
        """Minimum mean URLLC rate (bits/s) implied by the outage budget: inf
        beyond the float range, also where the budget's seconds underflow to 0."""
        bits, seconds = self.expected_load_bits(), self.urllc_outage_budget * SLOT_DURATION_S
        if seconds == 0.0:
            return math.inf if bits else 0.0
        return bits / seconds

    # -- validation and serialization ----------------------------------------

    def validate(self) -> list[str]:
        """Return a list of invariant violations, one human-readable line each."""
        bad = []
        for name in _COUNT_FIELDS:
            v = getattr(self, name)
            if not _is_positive_int(v):
                bad.append(f"{name}: must be a positive integer, got {v!r}")
            elif v > MAX_COUNT:
                bad.append(f"{name}: must be at most {MAX_COUNT}, got {v!r}")
        if _is_count(self.num_rbs) and _is_count(self.num_embb_users):
            entries = self.num_rbs * self.num_embb_users
            if entries > MAX_ASSIGNMENT_ENTRIES:
                bad.append(
                    f"num_rbs: num_rbs * num_embb_users must be at most "
                    f"{MAX_ASSIGNMENT_ENTRIES}, got {entries}"
                )
        powers, bandwidth = [], None  # transmit powers that are valid vectors; a valid total bandwidth
        for name, count in _VECTOR_FIELDS:
            v, length = getattr(self, name), getattr(self, count)
            if not _is_count(length):
                continue  # not broadcast; the count field is reported above
            if not isinstance(v, np.ndarray) or v.shape != (length,):
                problem = _vector_problem(v, length) or f"length must equal {count}"
                bad.append(f"{name}: {problem}")
            elif not np.all(np.isfinite(v) & (v > 0)):
                bad.append(f"{name}: all entries must be finite and > 0")
            elif name != "rb_bandwidth":
                powers.append(name)
            elif v.min() < MIN_RB_BANDWIDTH:
                least = v.min().item()
                bad.append(f"rb_bandwidth: every entry must be at least {MIN_RB_BANDWIDTH:g} Hz, got {least!r}")
            else:
                with np.errstate(over="ignore"):  # finite entries may sum to inf
                    total = self.total_bandwidth()
                if total > MAX_TOTAL_BANDWIDTH:
                    bad.append(f"rb_bandwidth: must sum to at most {MAX_TOTAL_BANDWIDTH:g} Hz, got {total!r}")
                else:
                    bandwidth = total
        # a derived l_max that fails a rule is an error of the field it comes from
        l_max = "demand_quantum: num_minislots * demand_quantum" if self._l_max_derived else "l_max: l_max"
        not_finite, valid = set(), set()
        for name, rule, ok in _SCALAR_RULES:
            v = getattr(self, name)
            if name == "l_max" and v is None and not self._l_max_derivable():
                continue  # no default: num_minislots or demand_quantum is reported
            label = l_max if name == "l_max" and self._l_max_derived else f"{name}:"
            if not _is_number(v) or not math.isfinite(v):
                not_finite.add(name)
                bad.append(f"{label} must be a finite number, got {v!r}")
            elif not ok(v):
                bad.append(f"{label} {rule}")
            else:
                valid.add(name)
        if _is_count(self.num_minislots) and {"l_max", "puncture_prob", "demand_quantum"} <= valid:
            kappa = self.expected_load_fraction()
            if kappa > MAX_LOAD_FRACTION:
                bad.append(
                    f"l_max: the expected load fraction num_minislots * puncture_prob * "
                    f"demand_quantum / l_max must be at most {MAX_LOAD_FRACTION:g}, got {kappa!r}"
                )
            elif "urllc_outage_budget" in valid and not math.isfinite(self.markov_rate_floor()):
                bad.append(
                    "demand_quantum: the URLLC rate floor num_minislots * puncture_prob * "
                    "demand_quantum / (urllc_outage_budget * 1 ms) must be finite"
                )
            elif "urllc_outage_budget" in valid and bandwidth and self.markov_rate_floor() > 0.0:
                share = self.l_max / (self.urllc_outage_budget * SLOT_DURATION_S) / (bandwidth * 338.0)
                if share < MIN_FLOOR_SHARE:
                    bad.append(
                        f"{l_max} / (urllc_outage_budget * 1 ms * total bandwidth * 338) must be at least "
                        f"{MIN_FLOOR_SHARE!r} where the URLLC rate floor is positive, got {share!r}"
                    )
        if not not_finite & {"snr_min_db", "snr_max_db"} and self.snr_min_db > self.snr_max_db:
            bad.append("snr_min_db: must not exceed snr_max_db")
        if "noise_power" not in not_finite and _in_noise_range(self.noise_power):
            noise_db = 10.0 * math.log10(self.noise_power)
            for name in powers:
                if np.any(np.abs(10.0 * np.log10(getattr(self, name)) - noise_db) > MAX_POWER_RATIO_DB):
                    bad.append(f"{name}: must lie within {MAX_POWER_RATIO_DB:g} dB of noise_power")
        return bad

    def to_dict(self) -> dict:
        return _fields_dict(self)

    def to_json(self) -> str:
        return _json_indented(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            # a key with a line break or other control character is quoted, so
            # the message stays on one line
            names = [k if k.isprintable() else repr(k) for k in unknown]
            raise ConfigError(f"config has unknown keys: {', '.join(names)}")
        cfg = cls(**data)
        bad = cfg.validate()
        if bad:
            raise ConfigError("config invalid: " + "; ".join(bad))
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)


@dataclass
class ChannelRealization:
    """Per-slot dimensionless power gains for both traffic classes."""

    embb_gain: np.ndarray
    urllc_gain: np.ndarray

    def __post_init__(self):
        self.embb_gain = np.asarray(self.embb_gain, dtype=float)
        self.urllc_gain = np.asarray(self.urllc_gain, dtype=float)


@dataclass
class UrllcLoad:
    """Realized URLLC traffic of one slot, in bits.

    ``total`` is the minislot sum clamped to l_max (excess traffic is blocked).
    """

    per_minislot: np.ndarray
    total: float


@dataclass
class SchedulingMatrix:
    """RB-to-user assignment, ``entries[b, u]`` in [0,1]; per RB the user
    shares sum to at most 1."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)

    def user_bandwidth(self, rb_bandwidth: np.ndarray) -> np.ndarray:
        """Hz allocated per user: bandwidth-weighted column sums."""
        return np.asarray(rb_bandwidth, dtype=float) @ self.entries

    def is_binary(self, tol: float = 0.0) -> bool:
        e = self.entries
        return bool(np.all((np.abs(e) <= tol) | (np.abs(e - 1.0) <= tol)))

    def validate(self) -> list[str]:
        bad = []
        if self.entries.ndim != 2:
            return ["entries: must be a B x U matrix"]
        if np.any(self.entries < -1e-12) or np.any(self.entries > 1 + 1e-12):
            bad.append("entries: values must lie in [0, 1]")
        if np.any(self.entries.sum(axis=1) > 1 + 1e-9):
            bad.append("entries: per-RB user shares must sum to <= 1")
        return bad


@dataclass
class PunctureWeights:
    """Per-user puncturing weights plus the auxiliary risk variables of the
    placement solver (threshold rate and its excess)."""

    weights: np.ndarray
    var_level: float = 0.0
    excess: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    def validate(self) -> list[str]:
        bad = []
        if np.any(self.weights < -1e-12) or np.any(self.weights > 1 + 1e-12):
            bad.append("weights: values must lie in [0, 1]")
        if self.excess < -1e-12:
            bad.append("excess: must be >= 0")
        return bad


@dataclass
class SlotOutcome:
    """Realized per-slot quantities after puncturing."""

    realized_load: float
    embb_rate_per_user: np.ndarray
    embb_sum_rate: float
    urllc_rate: float
    punctured_bw: np.ndarray
    outage: bool


# -- sampling ----------------------------------------------------------------


def sample_mean_snr(cfg: SystemConfig, rng: np.random.Generator):
    """Per-user mean linear SNRs, uniform in dB over the configured range.

    Drawn once per simulation run; slot-to-slot variation comes from fading.
    """
    embb_db = rng.uniform(cfg.snr_min_db, cfg.snr_max_db, cfg.num_embb_users)
    urllc_db = rng.uniform(cfg.snr_min_db, cfg.snr_max_db, cfg.num_urllc_users)
    return 10.0 ** (embb_db / 10.0), 10.0 ** (urllc_db / 10.0)


def sample_channel(
    cfg: SystemConfig,
    embb_mean_snr: np.ndarray,
    urllc_mean_snr: np.ndarray,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Rayleigh-fading gains: exponential power fading around each user's mean
    SNR, mapped to gains so that P*g/N0 equals the realized SNR."""
    embb_fading = rng.exponential(1.0, cfg.num_embb_users)
    urllc_fading = rng.exponential(1.0, cfg.num_urllc_users)
    return ChannelRealization(
        *_fading_gains(cfg, embb_mean_snr, urllc_mean_snr, embb_fading, urllc_fading)
    )


def _fading_gains(cfg, embb_mean_snr, urllc_mean_snr, embb_fading, urllc_fading):
    """``sample_channel``'s broadband and URLLC gains at Exp(1) fading factors
    given per user along the last axis; leading axes are slots."""
    return (
        np.asarray(embb_mean_snr) * embb_fading * cfg.noise_power / cfg.embb_tx_power,
        np.asarray(urllc_mean_snr) * urllc_fading * cfg.noise_power / cfg.urllc_tx_power,
    )


def sample_urllc_load(cfg: SystemConfig, rng: np.random.Generator) -> UrllcLoad:
    """One slot of URLLC traffic: an independent Bernoulli arrival per
    minislot, each carrying ``demand_quantum`` bits; total clamped to l_max."""
    per_minislot, total = _minislot_loads(cfg, rng.random(cfg.num_minislots))
    return UrllcLoad(per_minislot, float(total))


def _minislot_loads(cfg: SystemConfig, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sample_urllc_load``'s per-minislot traffic at uniform draws given per
    minislot along the last axis, and its clamped total over that axis."""
    per_minislot = cfg.demand_quantum * (uniforms < cfg.puncture_prob).astype(float)
    return per_minislot, np.minimum(np.add.reduce(per_minislot, axis=-1), cfg.l_max)


# -- rate equations ----------------------------------------------------------

WeightsLike = Union[PunctureWeights, np.ndarray]
LoadLike = Union[UrllcLoad, float]


def _weights_vec(weights: WeightsLike) -> np.ndarray:
    if isinstance(weights, PunctureWeights):
        return weights.weights
    return np.asarray(weights, dtype=float)


def _load_bits(load: LoadLike) -> float:
    if isinstance(load, UrllcLoad):
        return float(load.total)
    return float(load)


def spectral_efficiencies(cfg: SystemConfig, chan: ChannelRealization) -> tuple[np.ndarray, float]:
    """``embb_spectral_eff`` (as a read-only array) and
    ``urllc_spectral_eff_mean`` together."""
    embb, urllc = _efficiencies(
        cfg, np.asarray(chan.embb_gain, dtype=float), np.asarray(chan.urllc_gain, dtype=float)
    )
    embb.flags.writeable = False
    return embb, float(urllc)


def _efficiencies(cfg: SystemConfig, embb_gain: np.ndarray, urllc_gain: np.ndarray):
    """``spectral_efficiencies`` at gains given per user along the last axis:
    the broadband efficiencies, and the URLLC mean over that axis."""
    noise = float(cfg.noise_power)
    embb = np.log2(1.0 + np.asarray(cfg.embb_tx_power, dtype=float) * embb_gain / noise)
    urllc = np.log2(1.0 + np.asarray(cfg.urllc_tx_power, dtype=float) * urllc_gain / noise)
    return embb, urllc.mean(axis=-1)


def embb_spectral_eff(cfg: SystemConfig, chan: ChannelRealization) -> np.ndarray:
    """bits/s/Hz per broadband user at this slot's gains."""
    return spectral_efficiencies(cfg, chan)[0].copy()


def urllc_spectral_eff_mean(cfg: SystemConfig, chan: ChannelRealization) -> float:
    """bits/s/Hz averaged over the URLLC users (punctured bandwidth is split
    evenly between them)."""
    return spectral_efficiencies(cfg, chan)[1]


def _checked_load_bits(cfg: SystemConfig, load_bits):
    """``load_bits`` (a float or an array), after checking that none exceeds l_max."""
    if np.any(load_bits > cfg.l_max * (1 + 1e-12)):
        raise ValueError(f"load {np.max(load_bits)} exceeds l_max {cfg.l_max}; clamp first")
    return load_bits


def _load_fraction(cfg: SystemConfig, load: LoadLike) -> float:
    """A slot's realized load normalized by l_max, after ``_checked_load_bits``."""
    return _checked_load_bits(cfg, _load_bits(load)) / cfg.l_max


def _slot_rates(phi, w, load_fraction, embb_eff, urllc_eff):
    """Per-user broadband rates, punctured bandwidth per user and aggregate
    URLLC rate at a load normalized by l_max. A user loses rate in proportion
    to its punctured share; the URLLC users split the punctured bandwidth.
    Users run along the last axis of ``phi`` (Hz), the weights ``w`` and
    ``embb_eff``, slots along any leading axes, which ``load_fraction`` and
    ``urllc_eff`` (one value per slot) share."""
    load_fraction = np.expand_dims(load_fraction, -1)
    rates = phi * (1.0 - w * load_fraction) * embb_eff
    theta = phi * w * load_fraction
    return rates, theta, theta.sum(axis=-1) * urllc_eff


def _matrix_rates(cfg, chan, mat, weights, load_fraction):
    """``_slot_rates`` of one slot's channel, assignment matrix and weights."""
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    return _slot_rates(phi, _weights_vec(weights), load_fraction, *spectral_efficiencies(cfg, chan))


def punctured_bandwidth(
    cfg: SystemConfig,
    mat: SchedulingMatrix,
    weights: WeightsLike,
    load: LoadLike,
) -> np.ndarray:
    """Hz surrendered by each user: its bandwidth, scaled by its puncture
    weight and by the normalized realized load (``_slot_rates``' theta,
    which takes no spectral efficiency)."""
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    return _slot_rates(phi, _weights_vec(weights), _load_fraction(cfg, load), 0.0, 0.0)[1]


def embb_rate(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: WeightsLike,
    load: LoadLike,
) -> np.ndarray:
    """Instantaneous per-user broadband rate (bits/s) after puncturing."""
    return _matrix_rates(cfg, chan, mat, weights, _load_fraction(cfg, load))[0]


def expected_embb_rate(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: WeightsLike,
) -> np.ndarray:
    """Per-user rate with the load replaced by its mean (the rate is affine in
    the load, so this is the exact expectation absent clamping)."""
    return _matrix_rates(cfg, chan, mat, weights, cfg.expected_load_fraction())[0]


def urllc_rate(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: WeightsLike,
    load: LoadLike,
) -> float:
    """Aggregate URLLC rate (bits/s) over the punctured bandwidth, which is
    divided equally between the URLLC users."""
    return float(_matrix_rates(cfg, chan, mat, weights, _load_fraction(cfg, load))[2])


def expected_urllc_rate(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: WeightsLike,
) -> float:
    """URLLC rate at the mean load; the left-hand side of the relaxed
    reliability constraint."""
    return float(_matrix_rates(cfg, chan, mat, weights, cfg.expected_load_fraction())[2])


def outage_indicator(urllc_rate_bps, load_bits):
    """True when the slot carried traffic the punctured bandwidth could not
    cover within the slot. An empty slot is never an outage. Elementwise over
    arrays of slots."""
    return (load_bits > 0) & (urllc_rate_bps * SLOT_DURATION_S <= load_bits)


def evaluate_slot(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: WeightsLike,
    load: LoadLike,
) -> SlotOutcome:
    """Realized rates, punctured bandwidth, and outage flag for one slot."""
    load_bits = _load_bits(load)
    rates, theta, r_urllc, outage = evaluate_slots(
        cfg,
        *spectral_efficiencies(cfg, chan),
        mat.user_bandwidth(cfg.rb_bandwidth),
        _weights_vec(weights),
        load_bits,
    )
    return SlotOutcome(
        realized_load=load_bits,
        embb_rate_per_user=rates,
        embb_sum_rate=float(rates.sum()),
        urllc_rate=float(r_urllc),
        punctured_bw=theta,
        outage=bool(outage),
    )


def evaluate_slots(
    cfg: SystemConfig,
    embb_eff: np.ndarray,
    urllc_eff: np.ndarray,
    phi: np.ndarray,
    weights: np.ndarray,
    load_bits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``evaluate_slot`` of many slots at once, from their broadband spectral
    efficiencies, user bandwidths (Hz) and puncture weights, users along the
    last axis and slots along the leading ones, and their mean URLLC spectral
    efficiencies and realized loads (bits), one per slot. Returns the per-user
    rates, the punctured bandwidth per user, the URLLC rate and the outage
    flag of every slot."""
    load_bits = _checked_load_bits(cfg, load_bits)
    rates, theta, r_urllc = _slot_rates(phi, weights, load_bits / cfg.l_max, embb_eff, urllc_eff)
    return rates, theta, r_urllc, outage_indicator(r_urllc, load_bits)
