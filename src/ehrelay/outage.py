"""Closed-form system outage probability and threshold optimization.

Total outage decomposes over the four operating modes. Modes with a
healthy direct link never lose a packet. A failed direct link with an
under-charged relay loses the block with certainty (two repeats of a
sub-threshold SNR never reach the doubled-rate threshold), so that
mode contributes its occupancy probability outright. A failed direct
link with a charged relay loses the block only when the relay cannot
decode or the combined direct-plus-relay SNR stays under the doubled
threshold; the joint probability of the latter event has a closed form
in the incomplete gamma function.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .battery import BatteryConfig, ChainFamily, SteadyState
from .channel import LinkStats, SystemParams, Thresholds, cdf_h_sd, cdf_h_sr
from .errors import NumericalError, ValidationError
from .specfun import lower_incomplete_gamma, poisson_mean_inverse_shift

__all__ = [
    "MeanSnrs",
    "OutageBreakdown",
    "mean_snrs",
    "energy_sufficiency",
    "mode4_joint_cdf",
    "outage_probability",
    "direct_baseline",
    "optimize_threshold",
]


@dataclass(frozen=True)
class MeanSnrs:
    """Average SNRs of the direct link and of the relay-destination link."""

    gbar_sd: float
    gbar_rd: float

    def __post_init__(self):
        if not self.gbar_sd > 0.0:
            raise ValidationError(f"gbar_sd must be > 0, got {self.gbar_sd!r}")
        if not self.gbar_rd > 0.0:
            raise ValidationError(f"gbar_rd must be > 0, got {self.gbar_rd!r}")


@dataclass(frozen=True)
class OutageBreakdown:
    """Outage probability split by contributing mode."""

    p_e: float            # probability the relay holds enough energy to cooperate
    p_mode3_joint: float  # direct failure with an under-charged relay (outage certain)
    p_mode4_joint: float  # direct failure with cooperation that still fails
    p_out: float          # total system outage probability


def mean_snrs(params: SystemParams, links: LinkStats, cfg: BatteryConfig) -> MeanSnrs:
    """Average SNRs entering the closed form.

    The relay spends the discretized threshold energy (eps_t_level
    battery steps) per cooperative block, over half a block, so its
    transmit power is twice that energy. Using the discretized value
    here keeps the closed form and the simulator describing the same
    system even when e_t falls between levels.
    """
    eps_t = cfg.eps_t_level * cfg.step
    return MeanSnrs(
        gbar_sd=params.p_s * links.omega_sd / params.n0,
        gbar_rd=2.0 * eps_t * links.omega_rd / params.n0,
    )


def energy_sufficiency(pi: SteadyState, cfg: BatteryConfig) -> float:
    """Stationary probability that the battery sits at or above the threshold level."""
    return float(np.sum(pi.pi[cfg.eps_t_level:]))


def _exp_weighted_moments(g1: float, g2: float, gsd: float, grd: float,
                          count: int) -> list:
    """J_k = exp(-g2/grd) * integral_0^g1 exp(-c u) u^k du for k < count,
    with c = (grd - gsd) / (gsd * grd).

    Three evaluation routes keep the result accurate for either sign of
    c and free of overflow:
      * |c g1| small: Taylor series in c g1 (covers the singular point
        grd == gsd, whose limit is g1^(k+1) / (k+1));
      * c > 0: the incomplete-gamma form;
      * c < 0: a Poisson-expectation form with the exponential factor
        folded in, whose exponent -(g2 - g1)/grd - g1/gsd stays negative
        no matter how small grd gets.
    """
    c = (grd - gsd) / (gsd * grd)
    z = c * g1
    out = []
    if abs(z) < 1e-3:
        w = math.exp(-g2 / grd)
        for k in range(count):
            term = 1.0
            total = 1.0 / (k + 1.0)
            for m in range(1, 40):
                term *= -z / m
                incr = term / (k + m + 1.0)
                total += incr
                if abs(incr) < 1e-18 * abs(total):
                    break
            out.append(w * g1 ** (k + 1) * total)
    elif c > 0.0:
        w = math.exp(-g2 / grd)
        for k in range(count):
            out.append(w * lower_incomplete_gamma(k + 1.0, z) / c ** (k + 1))
    else:
        d = -c
        w = math.exp(-(g2 - g1) / grd - g1 / gsd)
        for k in range(count):
            avg = poisson_mean_inverse_shift(d * g1, k + 1.0)
            out.append(w * g1 ** (k + 1) * avg)
    return out


def mode4_joint_cdf(thr: Thresholds, snrs: MeanSnrs, n_antennas: int) -> float:
    """Pr{(gamma_SD + gamma_RD < gamma2) and (gamma_SD < gamma1)}.

    gamma_SD is exponential with mean gbar_sd; gamma_RD is the sum of
    n_antennas exponentials, each with mean gbar_rd. Expanding the
    Erlang CDF of gamma_RD under the exponential density of gamma_SD
    gives

        Pr{gamma_SD < gamma1}
          - sum_p sum_k binom(p,k) gamma2^(p-k) (-1)^k J_k
                / (gbar_sd * gbar_rd^p * p!)

    with the exponentially weighted moments J_k of _exp_weighted_moments.
    """
    if n_antennas < 1:
        raise ValidationError(f"n_antennas must be >= 1, got {n_antennas!r}")
    g1, g2 = thr.gamma1, thr.gamma2
    gsd, grd = snrs.gbar_sd, snrs.gbar_rd
    direct_fail = -math.expm1(-g1 / gsd)
    moments = _exp_weighted_moments(g1, g2, gsd, grd, n_antennas)
    total = 0.0
    for p in range(n_antennas):
        inner = 0.0
        for k in range(p + 1):
            inner += math.comb(p, k) * g2 ** (p - k) * (-1.0) ** k * moments[k]
        total += inner / (gsd * grd**p * math.factorial(p))
    return min(max(direct_fail - total, 0.0), direct_fail)


def outage_probability(params: SystemParams, links: LinkStats, thr: Thresholds,
                       cfg: BatteryConfig, pi: SteadyState) -> OutageBreakdown:
    """Total outage probability for a solved battery steady state.

    pi must be the stationary distribution of the chain built from the
    same (params, links, thr, cfg).
    """
    f_direct = cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
    f_relay_decode = cdf_h_sr(thr.gamma2 * params.n0 / params.p_s, params, links.omega_sr)
    return _breakdown(params, links, thr, cfg, pi, f_direct, f_relay_decode)


def _breakdown(params: SystemParams, links: LinkStats, thr: Thresholds,
               cfg: BatteryConfig, pi: SteadyState, f_direct: float,
               f_relay_decode: float) -> OutageBreakdown:
    """outage_probability given the two threshold-independent link CDFs:
    the direct link missing gamma1 and the relay failing to decode."""
    p_e = energy_sufficiency(pi, cfg)
    m4 = mode4_joint_cdf(thr, mean_snrs(params, links, cfg), params.n_antennas)
    p_mode3 = (1.0 - p_e) * f_direct
    p_mode4 = p_e * ((1.0 - f_relay_decode) * m4 + f_direct * f_relay_decode)
    return OutageBreakdown(
        p_e=p_e,
        p_mode3_joint=p_mode3,
        p_mode4_joint=p_mode4,
        p_out=p_mode3 + p_mode4,
    )


def direct_baseline(params: SystemParams, links: LinkStats, thr: Thresholds) -> float:
    """Per-block outage of a source sending a fresh packet every slot
    with no relay: the direct link simply misses gamma1."""
    return cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)


def optimize_threshold(params: SystemParams, links: LinkStats, thr: Thresholds,
                       capacity: float, levels: int) -> tuple:
    """Exhaustive search of the threshold level minimizing total outage.

    Evaluates every candidate e_t = k * capacity / levels, k = 1..levels,
    taking each candidate's chain from one ChainFamily, so the CDF tables,
    and the two link CDFs of the outage expression, are computed once.
    Candidates whose discretized levels coincide share one chain, and
    the family solves the chains in stacks (ChainFamily.steady_states).
    Each candidate's outage equals outage_probability's, bit for bit.
    Returns (best level, best outage); the smallest level wins ties.
    Candidates that fail numerically are skipped with a warning.
    """
    family = ChainFamily(params, links, thr, capacity, levels)
    cfgs = [BatteryConfig(capacity=capacity, levels=levels, e_t=k * capacity / levels)
            for k in range(1, levels + 1)]
    laws = family.steady_states({cfg.eps_t_level for cfg in cfgs})
    best_level = None
    best_outage = None
    for k, cfg in enumerate(cfgs, start=1):
        try:
            pi = laws[cfg.eps_t_level]
            if isinstance(pi, NumericalError):
                raise pi
            p_out = _breakdown(params, links, thr, cfg, pi, family.fail_direct,
                               family.fail_relay_decode).p_out
        except NumericalError as exc:
            warnings.warn(f"threshold level {k} skipped: {exc}", stacklevel=2)
            continue
        if best_outage is None or p_out < best_outage:
            best_level = k
            best_outage = p_out
    if best_level is None:
        raise NumericalError("every threshold candidate failed numerically")
    return best_level, best_outage
