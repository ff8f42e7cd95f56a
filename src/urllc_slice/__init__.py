"""Risk-sensitive downlink slicing between broadband and low-latency traffic.

Library surface: system model and rate equations (``model``), empirical tail
risk (``risk``), proportional-fair RB assignment (``embb_scheduler``),
puncturing-weight placement and its two baselines (``urllc_placement``),
their alternation (``alternating``), and a Monte Carlo harness
(``simulator``) with a CLI (``cli``).
"""

from .alternating import AlternationTrace, run as run_alternating
from .embb_scheduler import round_to_binary, solve_fractional
from .model import (
    ChannelRealization,
    ConfigError,
    PunctureWeights,
    SchedulingMatrix,
    SlotOutcome,
    SystemConfig,
    UrllcLoad,
    embb_rate,
    evaluate_slot,
    evaluate_slots,
    expected_embb_rate,
    expected_urllc_rate,
    outage_indicator,
    sample_channel,
    sample_mean_snr,
    sample_urllc_load,
    urllc_rate,
)
from .risk import (
    EmpiricalDistribution,
    cvar_alpha,
    cvar_alpha_lower,
    phi_alpha,
    var_alpha,
)
from .simulator import Policy, RunMetrics, run_simulation, sweep
from .urllc_placement import (
    PlacementSolution,
    solve_baseline1,
    solve_baseline2,
    solve_placement,
)

__all__ = [
    "AlternationTrace",
    "ChannelRealization",
    "ConfigError",
    "EmpiricalDistribution",
    "PlacementSolution",
    "Policy",
    "PunctureWeights",
    "RunMetrics",
    "SchedulingMatrix",
    "SlotOutcome",
    "SystemConfig",
    "UrllcLoad",
    "cvar_alpha",
    "cvar_alpha_lower",
    "embb_rate",
    "evaluate_slot",
    "evaluate_slots",
    "expected_embb_rate",
    "expected_urllc_rate",
    "outage_indicator",
    "phi_alpha",
    "round_to_binary",
    "run_alternating",
    "run_simulation",
    "sample_channel",
    "sample_mean_snr",
    "sample_urllc_load",
    "solve_baseline1",
    "solve_baseline2",
    "solve_fractional",
    "solve_placement",
    "sweep",
    "urllc_rate",
    "var_alpha",
]
