"""Monte Carlo engine executing the relaying protocol block by block.

This is the independent ground-truth path for the closed-form
analysis: mode selection, energy accumulation with the same battery
discretization, SNR combining and outage counting are all simulated
directly from sampled fades. Unlike the analysis, the under-charged
retransmission mode is scored honestly against the doubled-rate
threshold instead of being assumed lost, so agreement between the two
paths also validates that assumption.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .battery import BatteryConfig, discretize_harvest
from .channel import (FadeSample, LinkStats, SystemParams, Thresholds,
                      sample_fade_blocks)
from .errors import ValidationError

__all__ = ["Mode", "BlockOutcome", "SimulationResult", "step", "simulate"]


class Mode(enum.Enum):
    """Operating mode of one block, set by the direct-link outcome and
    the battery state: I/II direct link up (harvest vs decode-ready),
    III/IV direct link down (source retransmits vs relay forwards)."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class BlockOutcome:
    """What happened during a single transmission block."""

    mode: Mode
    outage: bool
    battery_level_before: int
    battery_level_after: int


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated counts from one simulation run (post warm-up)."""

    blocks: int
    outages: int
    mode_counts: tuple        # blocks spent in modes (I, II, III, IV)
    mode_outages: tuple       # outages per mode; only III/IV can be nonzero
    level_occupancy: tuple    # blocks starting at each battery level, 0..L
    outage_estimate: float
    outage_stderr: float
    seed: int


def _direct_fails(h_sd, params: SystemParams, thr: Thresholds):
    return h_sd < thr.gamma1 * params.n0 / params.p_s


def _retransmit_outage(h_sd, params: SystemParams, thr: Thresholds):
    # two coherent copies of the same direct-link SNR vs the doubled-rate threshold
    return 2.0 * (params.p_s * h_sd / params.n0) < thr.gamma2


def _forward_outage(h_sd, h_sr, h_rd, relay_power, params: SystemParams,
                    thr: Thresholds):
    gamma_sr = params.p_s * h_sr / params.n0
    gamma_combined = params.p_s * h_sd / params.n0 + relay_power * h_rd / params.n0
    return np.minimum(gamma_sr, gamma_combined) < thr.gamma2


def _harvest_full(params: SystemParams, h_sr):
    return params.eta * params.p_s * h_sr


def step(state: int, fades: FadeSample, params: SystemParams, links: LinkStats,
         thr: Thresholds, cfg: BatteryConfig) -> BlockOutcome:
    """Execute one transmission block from the given battery level.

    Modes with a healthy direct link never lose the block; a failed
    direct link either triggers a retransmission (battery below the
    threshold, full-block harvest continues) or relay forwarding
    (battery drops by exactly the threshold level count).
    """
    if not 0 <= state <= cfg.levels:
        raise ValidationError(f"battery level must be in 0..{cfg.levels}, got {state!r}")
    failed = bool(_direct_fails(fades.h_sd, params, thr))
    ready = state >= cfg.eps_t_level
    if ready and failed:
        relay_power = 2.0 * (cfg.eps_t_level * cfg.step)
        outage = bool(_forward_outage(fades.h_sd, fades.h_sr, fades.h_rd,
                                      relay_power, params, thr))
        return BlockOutcome(Mode.IV, outage, state, state - cfg.eps_t_level)
    if ready:
        gained = discretize_harvest(0.5 * _harvest_full(params, fades.h_sr), cfg)
        return BlockOutcome(Mode.II, False, state, min(state + gained, cfg.levels))
    gained = discretize_harvest(_harvest_full(params, fades.h_sr), cfg)
    after = min(state + gained, cfg.levels)
    if failed:
        return BlockOutcome(Mode.III, bool(_retransmit_outage(fades.h_sd, params, thr)),
                            state, after)
    return BlockOutcome(Mode.I, False, state, after)


def _discretize_many(e_h: np.ndarray, cfg: BatteryConfig) -> np.ndarray:
    lvl = np.ceil(e_h / cfg.step).astype(np.int64) - 1
    np.clip(lvl, 0, cfg.levels, out=lvl)
    return lvl


def simulate(params: SystemParams, links: LinkStats, thr: Thresholds,
             cfg: BatteryConfig, blocks: int, seed: int,
             warmup_blocks: int = 10_000,
             continuous_battery: bool = False) -> SimulationResult:
    """Simulate the protocol over `blocks` measured transmission blocks.

    Starts from an empty battery, runs warmup_blocks unmeasured blocks
    first, then aggregates. Fades are drawn independently per block and
    held over both slots. With continuous_battery=True the battery
    stores raw joules instead of discrete levels (no rounding loss, raw
    e_t drained per cooperation), which quantifies what the level
    discretization costs; occupancy is then reported by binning the
    stored energy onto the level grid.

    The same seed always produces the identical result, field for field.
    """
    if blocks < 1:
        raise ValidationError(f"blocks must be >= 1, got {blocks!r}")
    if warmup_blocks < 0:
        raise ValidationError(f"warmup_blocks must be >= 0, got {warmup_blocks!r}")
    rng = np.random.default_rng(seed)
    total = warmup_blocks + blocks
    h_sd, h_sr, h_rd = sample_fade_blocks(params, links, rng, total)

    failed = _direct_fails(h_sd, params, thr).tolist()
    retransmit_out = _retransmit_outage(h_sd, params, thr).tolist()
    if continuous_battery:
        relay_power = 2.0 * cfg.e_t
    else:
        relay_power = 2.0 * (cfg.eps_t_level * cfg.step)
    forward_out = _forward_outage(h_sd, h_sr, h_rd, relay_power, params, thr).tolist()
    e_full = _harvest_full(params, h_sr)

    occupancy = [0] * (cfg.levels + 1)
    n1 = n2 = n3 = n4 = 0
    out3 = out4 = 0

    if continuous_battery:
        gain_full = e_full.tolist()
        gain_half = (0.5 * e_full).tolist()
        cap, e_t = cfg.capacity, cfg.e_t
        bin_scale = cfg.levels / cfg.capacity
        energy = 0.0
        for m in range(total):
            counted = m >= warmup_blocks
            if counted:
                occupancy[min(int(energy * bin_scale), cfg.levels)] += 1
            if energy >= e_t:
                if failed[m]:
                    if counted:
                        n4 += 1
                        if forward_out[m]:
                            out4 += 1
                    energy -= e_t
                else:
                    if counted:
                        n2 += 1
                    energy = min(energy + gain_half[m], cap)
            else:
                if counted:
                    if failed[m]:
                        n3 += 1
                        if retransmit_out[m]:
                            out3 += 1
                    else:
                        n1 += 1
                energy = min(energy + gain_full[m], cap)
    else:
        gain_full = _discretize_many(e_full, cfg).tolist()
        gain_half = _discretize_many(0.5 * e_full, cfg).tolist()
        top, k_thr = cfg.levels, cfg.eps_t_level
        level = 0
        for m in range(total):
            counted = m >= warmup_blocks
            if counted:
                occupancy[level] += 1
            if level >= k_thr:
                if failed[m]:
                    if counted:
                        n4 += 1
                        if forward_out[m]:
                            out4 += 1
                    level -= k_thr
                else:
                    if counted:
                        n2 += 1
                    level = min(level + gain_half[m], top)
            else:
                if counted:
                    if failed[m]:
                        n3 += 1
                        if retransmit_out[m]:
                            out3 += 1
                    else:
                        n1 += 1
                level = min(level + gain_full[m], top)

    outages = out3 + out4
    estimate = outages / blocks
    stderr = math.sqrt(estimate * (1.0 - estimate) / blocks)
    return SimulationResult(
        blocks=blocks,
        outages=outages,
        mode_counts=(n1, n2, n3, n4),
        mode_outages=(0, 0, out3, out4),
        level_occupancy=tuple(occupancy),
        outage_estimate=estimate,
        outage_stderr=stderr,
        seed=seed,
    )
