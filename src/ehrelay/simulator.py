"""Monte Carlo engine for the relaying protocol, driven by sampled fades.

This is the independent ground-truth path for the closed-form
analysis: mode selection, energy accumulation with the same battery
discretization, SNR combining and outage counting are all simulated
directly from sampled fades. Unlike the analysis, the under-charged
retransmission mode is scored honestly against the doubled-rate
threshold instead of being assumed lost, so agreement between the two
paths also validates that assumption.

One recursion records the battery at the start of every block; the
mode, outage and occupancy counts are vectorized reductions over that
path. The recursion does Python-level work once per regime change
(a discharge, or a crossing of the cooperation threshold), filling the
blocks in between with one running sum each. The library has no
per-block entry point: the one-block reference that `simulate` is
checked against is `tests/helpers.py::reference_block`, written
separately from the protocol rules below.
"""

import math
from dataclasses import dataclass

import numpy as np

from .battery import BatteryConfig, discretize_harvest
from .channel import LinkStats, SystemParams, Thresholds, sample_fade_blocks
from .errors import ValidationError

__all__ = ["SimulationResult", "simulate"]

# below the threshold the path searches for the crossing in a window of
# this many blocks, doubling up to the second size while none is found
_WINDOW_FIRST, _WINDOW_LAST = 64, 65536

# largest blocks + warmup_blocks of one run: a run peaks at about 66 bytes
# of numpy arrays a block (fades, gains, path), about 1.8 GiB at this bound
_MAX_BLOCKS = 30_000_000


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


def _charge(seg: np.ndarray, state, gains: np.ndarray, cap) -> np.ndarray:
    """Fill seg with state, then min(cap, state + running sum of gains), in place."""
    seg[0] = state
    seg[1:] = gains
    np.add.accumulate(seg, out=seg)
    return np.minimum(seg, cap, out=seg)


def _battery_path(gain_full: np.ndarray, gain_half: np.ndarray, failed: np.ndarray,
                  drain, cap) -> np.ndarray:
    """Battery state at the start of every block, from an empty battery.

    At or above `drain` a failed direct link drains `drain`, otherwise
    half-block harvest is added; below `drain` the full-block harvest is
    added; charging saturates at `cap`. Integer gains give levels, float
    gains joules; the path has the gains' dtype.

    The path is filled one segment per regime change, not one step per
    block. Between discharges the state is min(cap, running sum of
    gains): `np.add.accumulate` adds in block order, as the recursion
    does, and for nonnegative gains clipping the running sum once gives
    what clipping after every add gives, so both battery modes keep the
    recursion's exact values. At or above `drain` a segment runs to the
    next direct-link failure, which drains. Below it, a segment ends
    where the path first reaches `drain`, searched in a window that
    doubles while the battery stays below.
    """
    n = len(gain_full)
    path = np.empty(n, dtype=gain_full.dtype)
    downs = np.flatnonzero(failed)
    state = path.dtype.type(0)
    start, window = 0, _WINDOW_FIRST
    while start < n:
        if state >= drain:
            # up to and including the next direct-link failure, which drains
            k = downs.searchsorted(start)
            end = int(downs[k]) + 1 if k < len(downs) else n
            seg = _charge(path[start:end], state, gain_half[start:end - 1], cap)
            state, start, window = seg[-1] - drain, end, _WINDOW_FIRST
        else:
            end = min(start + window, n)
            seg = _charge(path[start:end], state, gain_full[start:end - 1], cap)
            cross = int(seg.searchsorted(drain))
            if cross < len(seg):
                state, start = seg[cross], start + cross
            else:
                state = min(seg[-1] + gain_full[end - 1], cap)
                start, window = end, min(2 * window, _WINDOW_LAST)
    return path


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

    The seed must be >= 0; the same seed always produces the identical
    result, field for field.
    Every block is held in memory at once, so blocks + warmup_blocks is
    refused above 30000000.
    """
    if blocks < 1:
        raise ValidationError(f"blocks must be >= 1, got {blocks!r}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed!r}")
    if warmup_blocks < 0:
        raise ValidationError(f"warmup_blocks must be >= 0, got {warmup_blocks!r}")
    if blocks + warmup_blocks > _MAX_BLOCKS:
        raise ValidationError(
            f"blocks + warmup_blocks = {blocks + warmup_blocks} exceeds the largest "
            f"simulation, {_MAX_BLOCKS} blocks")
    rng = np.random.default_rng(seed)
    h_sd, h_sr, h_rd = sample_fade_blocks(params, links, rng, warmup_blocks + blocks)
    failed = _direct_fails(h_sd, params, thr)
    e_full = _harvest_full(params, h_sr)
    if continuous_battery:
        drain, relay_energy = cfg.e_t, cfg.e_t
        path = _battery_path(e_full, 0.5 * e_full, failed, drain, cfg.capacity)
    else:
        drain, relay_energy = cfg.eps_t_level, cfg.eps_t_level * cfg.step
        path = _battery_path(discretize_harvest(e_full, cfg),
                             discretize_harvest(0.5 * e_full, cfg), failed, drain, cfg.levels)

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
