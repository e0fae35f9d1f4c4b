"""The benchmark's workloads: which operations each runs, and why.

Every operation goes through the entry points the `ehrelay` CLI verbs
use. A sweep is `load_config -> run_sweep -> write_csv`, with
`sweep_kind="optimal_threshold"` for `sweep --optimize-threshold`. A
simulation is `load_config -> link_stats -> thresholds -> simulate`, as
in `ehrelay simulate --config`.

A workload is a fixed list of operations, one round; run.py repeats
rounds and turns their timings into metrics. Each operation feeds one
of two speed metrics: `primary_speed` for the case the workload was
built around, and `secondary_speed` for a companion case that a change
to the primary case must not slow.
"""

from dataclasses import dataclass, replace

import ehrelay
from ehrelay import cli

# the seed picks one of this many sub-step offsets of the 1 dB power
# grids, (seed % GRID_OFFSETS) / GRID_OFFSETS dB; references exist for each
GRID_OFFSETS = 10


@dataclass(frozen=True)
class Op:
    """One operation of a round."""

    kind: str                 # "sweep" or "simulate"
    group: str                # "primary" or "secondary" speed metric
    levels: int               # battery levels L
    n_antennas: int           # relay antennas N
    p_s_dbm: tuple            # sweep grid, or the one power of a simulation
    optimize: bool = False    # sweep --optimize-threshold
    continuous: bool = False  # simulate --continuous-battery
    blocks: int = 0           # measured Monte Carlo blocks
    mc_seed: int = 0
    repeat: int = 1           # executions a round, so short ops get several pairs

    @property
    def items(self) -> int:
        """Work an operation does: sweep points or Monte Carlo blocks."""
        return len(self.p_s_dbm) if self.kind == "sweep" else self.blocks

    @property
    def attempts(self) -> int:
        """Operations counted by `attempted`: sweep points or simulate calls."""
        return len(self.p_s_dbm) if self.kind == "sweep" else 1

    @property
    def key(self) -> str:
        """Reference key: every input except the Monte Carlo seed."""
        grid = ",".join(repr(p) for p in self.p_s_dbm)
        return (f"{self.kind} L={self.levels} N={self.n_antennas} P={grid} "
                f"opt={int(self.optimize)} cont={int(self.continuous)} blocks={self.blocks}")

    def config_text(self) -> str:
        """The flat key-value config file this operation loads."""
        power_key = "p_s_dbm_grid" if self.kind == "sweep" else "p_s_dbm"
        return (f"levels = {self.levels}\n"
                f"n_antennas = {self.n_antennas}\n"
                f"{power_key} = {','.join(repr(p) for p in self.p_s_dbm)}\n")


def grid_offset(seed: int) -> float:
    return (seed % GRID_OFFSETS) / GRID_OFFSETS


def _grid(start: float, step: float, count: int, offset: float) -> tuple:
    return tuple(round(start + k * step + offset, 6) for k in range(count))


def _analytic_ops(seed: int, tiny: bool) -> list:
    grid = _grid(15.0, 1.0, 16, grid_offset(seed))
    if tiny:
        return [Op("sweep", "primary", 200, 1, grid[::8]),
                Op("sweep", "secondary", 20, 1, grid[::4])]
    return ([Op("sweep", "primary", 200, n, grid) for n in (1, 2, 3)]
            + [Op("sweep", "secondary", 20, n, grid) for n in (1, 2, 3)])


def _opt_ops(seed: int, tiny: bool) -> list:
    off = grid_offset(seed)
    small = _grid(15.0, 3.0, 6, off)
    if tiny:
        return [Op("sweep", "primary", 200, 1, _grid(18.0, 1.0, 1, off), optimize=True),
                Op("sweep", "secondary", 20, 1, small[::3], optimize=True)]
    big = [Op("sweep", "primary", 200, n, _grid(p, 1.0, 1, off), optimize=True)
           for n, p in ((1, 18.0), (2, 24.0), (3, 30.0))]
    return big + [Op("sweep", "secondary", 20, n, small, optimize=True, repeat=3)
                  for n in (1, 2, 3)]


# (label, L, N, dBm) of the four battery regimes, with the discrete
# battery's block shares at seed 0 (modes I / II / III / IV):
#   below threshold        99.2 / 0    / 0.8 / 0     battery never charges
#   hovering               75.3 / 24.2 / 0.4 / 0.1   crosses the threshold often
#   always charged         0    / 99.9 / 0   / 0.1   full after warm-up
#   frequent cooperation   15.2 / 83.2 / 0.3 / 1.3   deep discharges at L=200
REGIMES = (("below_threshold", 20, 1, 18.0),
           ("hovering", 20, 3, 20.0),
           ("always_charged", 20, 2, 27.0),
           ("frequent_cooperation", 200, 3, 15.0))


def _mc_ops(seed: int, tiny: bool) -> list:
    blocks = 100_000 if tiny else 1_000_000
    regimes = REGIMES[1:2] if tiny else REGIMES
    ops = []
    for index, (_, levels, n, p) in enumerate(regimes):
        # discrete and continuous share a seed, so they see the same fades
        mc_seed = seed * 100 + index
        for continuous in (False, True):
            ops.append(Op("simulate", "secondary" if continuous else "primary",
                          levels, n, (p,), continuous=continuous, blocks=blocks,
                          mc_seed=mc_seed))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primary: str               # the operations behind primary_speed
    secondary: str             # the operations behind secondary_speed
    predicted: tuple           # spans predicted to hold most traced self time
    expected: tuple            # spans that must be called; zero calls = bypassed
    build: object              # (seed, tiny) -> list of Op

    def ops(self, seed: int, tiny: bool = False) -> list:
        return self.build(seed, tiny)


_CLI_SPANS = ("cli.load_config", "cli.run_sweep", "cli.write_csv")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="analytic_sweep",
        why=("source-power sweeps (analytic + baseline, no Monte Carlo) at "
             "N=1..3 and L=20/200: Marcum-Q CDF tables and GTH dominate at "
             "L=200, Python overhead at L=20"),
        primary="analytic sweeps at L=200 (48 points a round)",
        secondary="analytic sweeps at L=20 (48 points a round)",
        predicted=("specfun.marcum_q", "channel.cdf_h_sr", "battery.reachable_steady_state"),
        expected=_CLI_SPANS + ("specfun.marcum_q", "channel.cdf_h_sr",
                               "battery.build_transition_matrix",
                               "battery.reachable_steady_state",
                               "outage.outage_probability", "outage.direct_baseline"),
        build=_analytic_ops),
    Workload(
        name="opt_sweep",
        why=("sweep --optimize-threshold at L=200 (N=1..3, 18-30 dBm), 200 GTH "
             "solves a point; L=20 sweeps check that small chains do not slow"),
        primary="optimized sweep points at L=200 (3 a round)",
        secondary="optimized sweeps at L=20 (18 points, 3 times a round)",
        predicted=("battery.reachable_steady_state",),
        expected=_CLI_SPANS + ("outage.optimize_threshold",
                               "battery.reachable_steady_state",
                               "outage.outage_probability"),
        build=_opt_ops),
    Workload(
        name="mc_validate",
        why=("simulate 1e6 blocks, discrete and continuous battery, in four "
             "battery regimes; the per-block loop and fade sampling dominate"),
        primary="discrete-battery simulations (4e6 blocks a round)",
        secondary="continuous-battery simulations (4e6 blocks a round)",
        predicted=("simulator.simulate", "channel.sample_fade_blocks"),
        expected=("cli.load_config", "simulator.simulate", "channel.sample_fade_blocks"),
        build=_mc_ops),
)}


def execute(package, op: Op, config_path: str, csv_path: str):
    """Run one operation the way the CLI verb does, with `package` (ehrelay
    or its pinned copy); return its output."""
    spec = package.cli.load_config(config_path)
    if op.kind == "sweep":
        if op.optimize:
            spec = replace(spec, sweep_kind="optimal_threshold")
        rows = package.cli.run_sweep(spec)
        package.cli.write_csv(rows, csv_path)
        return rows
    links = package.link_stats(spec.params)
    thr = package.thresholds(spec.params.rate)
    return package.simulate(spec.params, links, thr, spec.battery, op.blocks, op.mc_seed,
                            warmup_blocks=spec.warmup_blocks,
                            continuous_battery=op.continuous)


def closed_form(config_path: str) -> float:
    """Analytic outage at a simulation's configuration, by the public API."""
    spec = cli.load_config(config_path)
    links = ehrelay.link_stats(spec.params)
    thr = ehrelay.thresholds(spec.params.rate)
    tm = ehrelay.build_transition_matrix(spec.params, links, thr, spec.battery)
    pi = ehrelay.reachable_steady_state(tm)
    return ehrelay.outage_probability(spec.params, links, thr, spec.battery, pi).p_out
