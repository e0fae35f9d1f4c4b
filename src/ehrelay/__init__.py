"""Outage analysis of an energy-harvesting incremental relay network.

Two independent paths compute the same system outage probability: a
closed-form engine built on a finite-state battery chain (transition
matrix, stationary distribution, incomplete-gamma outage expression)
and a block-level Monte Carlo protocol simulator. A sweep-running CLI
(`ehrelay`) drives both and cross-validates them.
"""

from .errors import NumericalError, ValidationError
from .specfun import lower_incomplete_gamma, marcum_q
from .channel import (LinkStats, SystemParams, Thresholds, cdf_h_sd, cdf_h_sr,
                      link_stats, mean_gain, sample_fade_blocks, thresholds)
from .battery import (BatteryConfig, ChainFamily, SteadyState, TransitionMatrix,
                      build_transition_matrix, discretize_harvest,
                      reachable_steady_state, steady_state)
from .outage import (MeanSnrs, OutageBreakdown, Point, direct_baseline,
                     energy_sufficiency, evaluate_point, mean_snrs,
                     mode4_joint_cdf, outage_probability)
from .simulator import SimulationResult, simulate

__version__ = "0.1.0"

__all__ = [
    "BatteryConfig",
    "ChainFamily",
    "LinkStats",
    "MeanSnrs",
    "NumericalError",
    "OutageBreakdown",
    "Point",
    "SimulationResult",
    "SteadyState",
    "SystemParams",
    "Thresholds",
    "TransitionMatrix",
    "ValidationError",
    "build_transition_matrix",
    "cdf_h_sd",
    "cdf_h_sr",
    "direct_baseline",
    "discretize_harvest",
    "energy_sufficiency",
    "evaluate_point",
    "link_stats",
    "lower_incomplete_gamma",
    "marcum_q",
    "mean_gain",
    "mean_snrs",
    "mode4_joint_cdf",
    "outage_probability",
    "reachable_steady_state",
    "sample_fade_blocks",
    "simulate",
    "steady_state",
    "thresholds",
]
