"""Monte Carlo engine executing the relaying protocol block by block.

This is the independent ground-truth path for the closed-form
analysis: mode selection, energy accumulation with the same battery
discretization, SNR combining and outage counting are all simulated
directly from sampled fades. Unlike the analysis, the under-charged
retransmission mode is scored honestly against the doubled-rate
threshold instead of being assumed lost, so agreement between the two
paths also validates that assumption.

One recursion records the battery at the start of every block; the
mode, outage and occupancy counts are vectorized reductions over that
path. `step` executes a single block and is the per-block reference.
"""

import array
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


def _battery_path(gain_full: np.ndarray, gain_half: np.ndarray, failed: np.ndarray,
                  drain, cap) -> np.ndarray:
    """Battery state at the start of every block, from an empty battery.

    At or above `drain` a failed direct link drains `drain`, otherwise
    half-block harvest is added; below `drain` the full-block harvest is
    added; charging saturates at `cap`. Integer gains give levels, float
    gains joules. An `array.array` holds the path at one machine word per
    block (a list would hold one Python object each).
    """
    integer = gain_full.dtype.kind == "i"
    path = array.array("q" if integer else "d")
    record = path.append
    state = 0 if integer else 0.0
    for g_full, g_half, down in zip(gain_full.tolist(), gain_half.tolist(),
                                    failed.tolist()):
        record(state)
        if state >= drain:
            if down:
                state -= drain
            else:
                state = min(state + g_half, cap)
        else:
            state = min(state + g_full, cap)
    return np.frombuffer(path, dtype=np.int64 if integer else np.float64)


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
    h_sd, h_sr, h_rd = sample_fade_blocks(params, links, rng, warmup_blocks + blocks)
    failed = _direct_fails(h_sd, params, thr)
    e_full = _harvest_full(params, h_sr)
    if continuous_battery:
        drain, relay_energy = cfg.e_t, cfg.e_t
        path = _battery_path(e_full, 0.5 * e_full, failed, drain, cfg.capacity)
    else:
        drain, relay_energy = cfg.eps_t_level, cfg.eps_t_level * cfg.step
        path = _battery_path(_discretize_many(e_full, cfg),
                             _discretize_many(0.5 * e_full, cfg), failed, drain, cfg.levels)

    measured = slice(warmup_blocks, None)
    path, failed = path[measured], failed[measured]
    h_sd, h_sr, h_rd = h_sd[measured], h_sr[measured], h_rd[measured]
    ready = path >= drain
    retransmit, forward = ~ready & failed, ready & failed
    modes = (~ready & ~failed, ready & ~failed, retransmit, forward)
    out3 = int(np.count_nonzero(_retransmit_outage(h_sd[retransmit], params, thr)))
    out4 = int(np.count_nonzero(_forward_outage(h_sd[forward], h_sr[forward], h_rd[forward],
                                                2.0 * relay_energy, params, thr)))
    if continuous_battery:
        path = np.minimum((path * (cfg.levels / cfg.capacity)).astype(np.int64), cfg.levels)
    occupancy = np.bincount(path, minlength=cfg.levels + 1)

    outages = out3 + out4
    estimate = outages / blocks
    stderr = math.sqrt(estimate * (1.0 - estimate) / blocks)
    return SimulationResult(
        blocks=blocks,
        outages=outages,
        mode_counts=tuple(int(np.count_nonzero(mask)) for mask in modes),
        mode_outages=(0, 0, out3, out4),
        level_occupancy=tuple(occupancy.tolist()),
        outage_estimate=estimate,
        outage_stderr=stderr,
        seed=seed,
    )
