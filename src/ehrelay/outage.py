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

import inspect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .battery import (BatteryConfig, ChainFamily, SteadyState, TransitionMatrix,
                      build_transition_matrix, harvest_grid, stacked_steady_states)
from .channel import (LinkStats, SystemParams, Thresholds, cdf_h_sd, cdf_h_sr,
                      link_stats, thresholds)
from .errors import NumericalError, ValidationError
from .specfun import lower_incomplete_gamma, poisson_mean_inverse_shift

__all__ = [
    "MeanSnrs",
    "OutageBreakdown",
    "Point",
    "mean_snrs",
    "energy_sufficiency",
    "mode4_joint_cdf",
    "outage_probability",
    "direct_baseline",
    "evaluate_point",
    "evaluate_points",
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
    A mean SNR that is not finite, or a sum that overflows, divides by an
    underflowed zero or is not finite, raises NumericalError.
    """
    if not (isinstance(n_antennas, (int, np.integer)) and n_antennas >= 1):
        raise ValidationError(f"n_antennas must be >= 1, got {n_antennas!r} (integers only)")
    g1, g2 = thr.gamma1, thr.gamma2
    gsd, grd = snrs.gbar_sd, snrs.gbar_rd
    direct_fail = -math.expm1(-g1 / gsd)
    try:
        if not (math.isfinite(gsd) and math.isfinite(grd)):
            # a mean SNR that overflowed upstream
            raise OverflowError
        moments = _exp_weighted_moments(g1, g2, gsd, grd, n_antennas)
        total = 0.0
        for p in range(n_antennas):
            inner = 0.0
            for k in range(p + 1):
                inner += math.comb(p, k) * g2 ** (p - k) * (-1.0) ** k * moments[k]
            total += inner / (gsd * grd**p * math.factorial(p))
    except (OverflowError, ZeroDivisionError):
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"mode-4 closed form leaves the float range at gamma2={g2!r}, "
                             f"gbar_sd={gsd!r}, gbar_rd={grd!r}")
    return min(max(direct_fail - total, 0.0), direct_fail)


def outage_probability(params: SystemParams, links: LinkStats, thr: Thresholds,
                       cfg: BatteryConfig, pi: SteadyState) -> OutageBreakdown:
    """Total outage probability for a solved battery steady state.

    pi must be the stationary distribution of the chain built from the
    same (params, links, thr, cfg).
    """
    f_direct = cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
    f_relay_decode = cdf_h_sr(thr.gamma2 * params.n0 / params.p_s, params, links.omega_sr)
    return _breakdown(pi, cfg, f_direct,
                      _charged_outage(params, links, thr, cfg, f_direct, f_relay_decode))


def _charged_outage(params: SystemParams, links: LinkStats, thr: Thresholds,
                    cfg: BatteryConfig, f_direct: float, f_relay_decode: float) -> float:
    """c, the probability that a block with a charged relay is lost: the
    direct link misses gamma1 (f_direct), and the relay either fails to
    decode (f_relay_decode) or the combined SNR misses gamma2."""
    m4 = mode4_joint_cdf(thr, mean_snrs(params, links, cfg), params.n_antennas)
    return (1.0 - f_relay_decode) * m4 + f_direct * f_relay_decode


def _breakdown(pi: SteadyState, cfg: BatteryConfig, f_direct: float,
               charged: float) -> OutageBreakdown:
    """outage_probability given the direct link's failure probability and
    c = _charged_outage: p_out = (1 - p_e) f_direct + p_e c."""
    p_e = energy_sufficiency(pi, cfg)
    p_mode3 = (1.0 - p_e) * f_direct
    p_mode4 = p_e * charged
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


def _candidate(capacity: float, levels: int, k: int) -> BatteryConfig:
    """Battery of threshold candidate k: e_t = k * capacity / levels, capped
    at capacity, which k = levels can round above (levels = 57 at 5 mJ)."""
    return BatteryConfig(capacity=capacity, levels=levels,
                         e_t=min(k * capacity / levels, capacity))


# relative error the threshold search allows p_e's solve and its bound u, and
# the cap of its pruning margin in units of fd (see _search)
_PRUNE_MARGIN = 1e-12


def _search(family: ChainFamily, params: SystemParams, links: LinkStats,
            thr: Thresholds) -> tuple:
    """Exact pruned search of the threshold candidate minimizing total outage.

    The candidates are e_t = k * capacity / levels, k = 1..levels, of
    `family`'s battery; those whose discretized levels coincide share one
    chain. Level j's outage is p_out = fd - p_e (fd - c), with fd the
    direct-link failure probability and c = _charged_outage in closed
    form. The mean drift of the battery is zero in its stationary law,
    and no level charges more a block than the empty battery
    (ChainFamily.mean_charge: g_f under full, (1 - fd) g_h under half
    harvest), so p_e <= u = min(1, g_f / (fd j + g_f - (1 - fd) g_h))
    when that denominator is positive (else u = 1). Above L/2 a renewal
    bound tightens u (Ross, Stochastic Processes, 1996, ch. 3): each
    block at or above j discharges with probability fd to below
    L - j < j, and the battery then needs T[2j - L] blocks in expectation
    (ChainFamily.climb_times) to climb back, so (1 - p_e) / p_e >=
    fd T[2j - L] and p_e <= 1 / (1 + fd T[2j - L]); this is exact at
    j = L. Then LB = fd - u max(fd - c, 0) <= p_out without solving the
    chain, up to rounding, which m = min(1e-12 fd, 16 fd min(eps, u) +
    1e-12 u max(fd - c, 0)), eps = 2**-52, covers. Its second term is a
    1e-12 relative error in p_e (the solve's, and that of the sums behind
    u), which enters p_out only through p_e (fd - c). Its first covers
    the rounding of 1 - p_e and of the products and sums in p_out and LB:
    each is at most half an ulp at fd's scale (c <= fd), and at most the
    term it adds to or takes from fd, at most u fd (1 - p_e rounds to 1
    while p_e < eps/4). So m is 0 where u = 0, as in a frozen chain,
    whose p_e = 0 gives LB = p_out = fd exactly. Rounding is monotone, so
    LB - m stays <= p_out, a float, once it is rounded itself. Levels are
    solved in (LB - m, j) order: first the lowest alone, whose outage most
    often prunes every other level, then the survivors one GTH stack at a
    time, each stack's levels in increasing order through
    stacked_steady_states, the driver that solves a sweep's chains too.
    After each stack, level j is dropped unsolved once
    (LB - m, j) > (best, j_best), the best outage so far and its level:
    it cannot win, since the smallest level wins ties. A chain's law does
    not depend on its stack, so the result is the exhaustive search's,
    bit for bit.

    Returns (best candidate k, its BatteryConfig, its SteadyState); the
    smallest candidate wins ties. Solved candidates that fail numerically are
    skipped with one warning each, attributed to the first caller outside
    this module (that of evaluate_point or evaluate_points); a dropped
    candidate is never solved and cannot warn.
    If every level fails, one NumericalError names the first failed
    candidate and its cause, and nothing is warned.
    """
    cfgs = [_candidate(family.capacity, family.levels, k)
            for k in range(1, family.levels + 1)]
    fd = family.fail_direct
    gain_full, gain_half = family.mean_charge()
    climb = family.climb_times()
    by_level = {cfg.eps_t_level: cfg for cfg in cfgs}
    failed, charged, bound = {}, {}, {}
    for j, cfg in by_level.items():
        try:
            charged[j] = _charged_outage(params, links, thr, cfg, fd,
                                         family.fail_relay_decode)
        except NumericalError as exc:
            failed[j] = exc
            continue
        drain = fd * j + gain_full - gain_half
        u = min(1.0, gain_full / drain) if drain > 0.0 else 1.0
        if 2 * j > family.levels and fd > 0.0:
            # fd * inf would be NaN at fd = 0, where this bound is 1 anyway
            u = min(u, 1.0 / (1.0 + fd * climb[2 * j - family.levels]))
        spread = max(fd - charged[j], 0.0)
        # LB - m, the margin m as in the docstring
        bound[j] = fd - u * spread - min(_PRUNE_MARGIN * fd, 16.0 * fd * min(2.0**-52, u)
                                          + _PRUNE_MARGIN * u * spread)
    queue = sorted(bound, key=lambda j: (bound[j], j))
    laws, outage = {}, {}
    size = 1
    while queue:
        # levels in increasing order, so the chains of a stack have nearly one band
        stack, queue = sorted(queue[:size]), queue[size:]
        size = family.stack_size
        for j, law in zip(stack, stacked_steady_states([(family, j) for j in stack])):
            if isinstance(law, NumericalError):
                failed[j] = law
                continue
            laws[j] = law
            outage[j] = _breakdown(law, by_level[j], fd, charged[j]).p_out
        if outage:
            best = min((p_out, j) for j, p_out in outage.items())
            queue = [j for j in queue if (bound[j], j) <= best]
    skipped = [(k, failed[cfg.eps_t_level]) for k, cfg in enumerate(cfgs, start=1)
               if cfg.eps_t_level in failed]
    if not outage:
        k, exc = skipped[0]
        raise NumericalError(f"every threshold candidate failed numerically, "
                             f"the first at threshold level {k}: {exc}")
    # the stacklevel of the first frame outside this module: the caller of
    # evaluate_point or of evaluate_points, whichever entry ran the search
    frame, level = inspect.currentframe(), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    for k, exc in skipped:
        warnings.warn(f"threshold level {k} skipped: {exc}", stacklevel=level)
    k = next(k for k, cfg in enumerate(cfgs, start=1) if cfg.eps_t_level == best[1])
    return k, cfgs[k - 1], laws[best[1]]


@dataclass(frozen=True)
class Point:
    """The closed form at one configuration, stage by stage.

    A Point holds the inputs of its chain, not its matrix: reading `tm`
    builds the matrix again, with TransitionMatrix's checks.
    """

    params: SystemParams
    links: LinkStats
    thr: Thresholds
    battery: BatteryConfig        # the battery evaluated: the chosen one with optimize
    pi: SteadyState               # stationary law from the empty battery
    breakdown: OutageBreakdown
    optimal_level: int | None     # the threshold search's choice; None without optimize

    @property
    def tm(self) -> TransitionMatrix:
        """The chain whose law is pi, filled again by build_transition_matrix."""
        return build_transition_matrix(self.params, self.links, self.thr, self.battery)


def evaluate_point(params: SystemParams, battery: BatteryConfig,
                   optimize: bool = False) -> Point:
    """Closed-form outage at one (P_S, E_T) configuration: evaluate_points
    of the one pair.

    Derives the link statistics and thresholds once and builds one
    ChainFamily, so the point makes one cdf_h_sr call; reading its `tm`
    builds the matrix and makes one more. With optimize,
    the threshold search (_search) runs on that family over
    battery.capacity and battery.levels, and the point is evaluated at
    the chosen candidate's battery instead of `battery`, with the law the
    search solved. The chain, law and breakdown are bit for bit those of
    build_transition_matrix, reachable_steady_state and
    outage_probability for the evaluated battery.
    """
    return next(evaluate_points([(params, battery)], optimize))


def evaluate_points(points, optimize: bool = False):
    """Yield evaluate_point(params, battery, optimize) for each (params,
    battery) pair of `points`, in order, bit for bit.

    Pairs with the same params, capacity and levels share one ChainFamily
    (an e_t grid builds one), and the families of one source-relay link
    take their CDF tables from one cdf_h_sr call over their concatenated
    harvest grids (harvest_grid): the Marcum-Q pass stops where `a`
    alone says, so each family's slice is what its own call gives. A
    power grid thus makes one call. Without optimize, every point's chain
    is solved by stacked_steady_states, ChainFamily.stack_size at a time;
    with optimize, each point runs its own threshold search on its family.
    Points are evaluated as they are taken, and a grid holds one stack of
    chains at a time.

    Fail-fast as one point at a time: the first pair that fails, in its
    input, its setup or its solve, raises what it raises alone once the
    points before it are taken. A shared cdf_h_sr call that raises is
    made again by each of its families alone, so its first point names
    only its own arguments.
    """
    setups, pairs, failure = {}, [], None
    try:
        for params, battery in points:
            key = (params, battery.capacity, battery.levels)
            if key not in setups:
                thr = thresholds(params.rate)
                setups[key] = (params, link_stats(params), thr,
                               harvest_grid(params, thr, battery.capacity, battery.levels))
            pairs.append((key, battery))
    except (ValidationError, NumericalError) as exc:
        failure = exc
    tables = _shared_tables(setups)
    families = {}
    for i, (key, battery) in enumerate(pairs):
        if key not in families:
            params, links, thr, _ = setups[key]
            try:
                families[key] = ChainFamily(params, links, thr, battery.capacity,
                                            battery.levels, tables.get(key))
            except (ValidationError, NumericalError) as exc:
                failure, pairs = exc, pairs[:i]
                break
    laws = ([None] * len(pairs) if optimize else
            stacked_steady_states([(families[key], battery.eps_t_level)
                                   for key, battery in pairs]))
    for (key, battery), law in zip(pairs, laws):
        params, links, thr, _ = setups[key]
        yield _point(families[key], params, links, thr, battery, law, optimize)
    if failure is not None:
        raise failure


def _point(family: ChainFamily, params: SystemParams, links: LinkStats, thr: Thresholds,
           battery: BatteryConfig, law, optimize: bool) -> Point:
    """The Point of `battery` on `family`, given its chain's law (a
    SteadyState, or the NumericalError of its fill or solve), or with
    optimize that of the candidate the threshold search chooses."""
    optimal_level = None
    if optimize:
        optimal_level, battery, law = _search(family, params, links, thr)
    if isinstance(law, NumericalError):
        raise law
    breakdown = _breakdown(law, battery, family.fail_direct, _charged_outage(
        params, links, thr, battery, family.fail_direct, family.fail_relay_decode))
    return Point(params=params, links=links, thr=thr, battery=battery, pi=law,
                 breakdown=breakdown, optimal_level=optimal_level)


def _shared_tables(setups: dict) -> dict:
    """cdf_h_sr at every setup's harvest grid, one call per source-relay link
    (n_antennas, rician_k, omega_sr), split back by setup key. The setups of
    a link whose call raises are left out, to make their own calls."""
    links = {}
    for key, (params, stats, _, grid) in setups.items():
        links.setdefault((params.n_antennas, params.rician_k, stats.omega_sr),
                         []).append((key, params, stats, grid))
    tables = {}
    for members in links.values():
        _, params, stats, _ = members[0]
        grids = [grid for *_, grid in members]
        try:
            f = cdf_h_sr(np.concatenate(grids), params, stats.omega_sr)
        except (ValidationError, NumericalError):
            continue
        ends = np.cumsum([grid.size for grid in grids])[:-1]
        tables.update(zip((key for key, *_ in members), np.split(f, ends)))
    return tables
