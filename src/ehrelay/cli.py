"""Experiment front-end: configuration, sweep execution, CSV output.

The CLI is the single place where dBm values exist; everything below
it works in watts and joules. Config files are flat key-value text
(`key = value`, one per line, `#` comments); unspecified keys fall
back to the defaults below.
"""

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .battery import BatteryConfig
from .channel import SystemParams, link_stats, thresholds
from .errors import NumericalError, ValidationError
from .outage import direct_baseline, evaluate_point
from .simulator import simulate

__all__ = ["SweepSpec", "SweepRow", "load_config", "run_sweep", "write_csv",
           "dbm_to_watts", "main"]

DEFAULTS = {
    "p_s_dbm": 20.0,
    "n0_dbm": -60.0,
    "eta": 0.5,
    "rate": 1.0,
    "n_antennas": 1,
    "rician_k": 10.0,
    "d_sd": 80.0,
    "d_sr": 10.0,
    "d_rd": 70.0,
    "alpha": 3.0,
    "capacity": 5e-3,
    "levels": 20,
    "e_t": 1e-3,
    "mc_blocks": 100_000,
    "seed": 0,
    "include_baseline": True,
    "include_mc": False,
    "warmup_blocks": 10_000,
}

_INT_KEYS = {"n_antennas", "levels", "mc_blocks", "seed", "warmup_blocks"}
_BOOL_KEYS = {"include_baseline", "include_mc"}
_GRID_KEYS = {"p_s_dbm_grid", "e_t_grid"}
_FLOAT_KEYS = {"p_s_dbm", "n0_dbm", "eta", "rate", "rician_k", "d_sd", "d_sr",
               "d_rd", "alpha", "capacity", "e_t"}


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _key_watts(key: str, dbm: float) -> float:
    """dbm_to_watts for config key `key`, refusing powers outside the float range."""
    try:
        watts = dbm_to_watts(dbm)
    except OverflowError:
        watts = math.inf
    if not 0.0 < watts < math.inf:
        raise ValidationError(f"{key} = {dbm!r} dBm is outside the float range in watts")
    return watts


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a grid of sweep values over a base configuration."""

    sweep_kind: str            # source_power | energy_threshold | optimal_threshold
    grid: tuple                # dBm for power sweeps, joules for threshold sweeps
    params: SystemParams       # base physical parameters (watts)
    battery: BatteryConfig
    mc_blocks: int
    seed: int
    include_baseline: bool
    include_mc: bool
    warmup_blocks: int

    def __post_init__(self):
        kinds = ("source_power", "energy_threshold", "optimal_threshold")
        if self.sweep_kind not in kinds:
            raise ValidationError(f"sweep_kind must be one of {kinds}, got {self.sweep_kind!r}")
        if len(self.grid) == 0:
            raise ValidationError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValidationError(f"sweep grid must be strictly increasing, got {self.grid}")
        if self.include_mc and self.mc_blocks < 10_000:
            raise ValidationError(
                f"mc_blocks must be >= 10000 when include_mc is set, got {self.mc_blocks}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_blocks < 0:
            raise ValidationError(f"warmup_blocks must be >= 0, got {self.warmup_blocks}")


@dataclass(frozen=True)
class SweepRow:
    """One output row of a sweep."""

    sweep_value: float
    analytic_outage: float
    mc_outage: float | None
    mc_stderr: float | None
    baseline_outage: float | None
    p_e: float
    optimal_level: int | None


_ROW_FIELDS = ("sweep_value", "analytic_outage", "mc_outage", "mc_stderr",
               "baseline_outage", "p_e", "optimal_level")


def _parse_flat_file(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        val = val.strip()
        known = _INT_KEYS | _BOOL_KEYS | _GRID_KEYS | _FLOAT_KEYS
        if key not in known:
            raise ValidationError(f"unknown config key {key!r} (line {lineno})")
        if key in values:
            raise ValidationError(f"duplicate config key {key!r} (line {lineno})")
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _BOOL_KEYS:
                lowered = val.lower()
                if lowered in ("true", "yes", "1"):
                    values[key] = True
                elif lowered in ("false", "no", "0"):
                    values[key] = False
                else:
                    raise ValueError(val)
            elif key in _GRID_KEYS:
                values[key] = tuple(float(v) for v in val.split(","))
            else:
                values[key] = float(val)
        except ValueError:
            raise ValidationError(
                f"could not parse value for {key!r}: {val!r} (line {lineno})"
            ) from None
        if key in _GRID_KEYS | _FLOAT_KEYS:
            parsed = values[key] if key in _GRID_KEYS else (values[key],)
            if not all(map(math.isfinite, parsed)):
                raise ValidationError(f"{key!r} must be finite, got {val!r} (line {lineno})")
    return values


def _spec_from_values(overrides: dict) -> SweepSpec:
    grids = {k: overrides.pop(k) for k in list(overrides) if k in _GRID_KEYS}
    merged = dict(DEFAULTS)
    merged.update(overrides)
    for value in grids.get("p_s_dbm_grid", ()):
        _key_watts("p_s_dbm_grid", value)
    params = SystemParams(
        p_s=_key_watts("p_s_dbm", merged["p_s_dbm"]),
        n0=_key_watts("n0_dbm", merged["n0_dbm"]),
        eta=merged["eta"],
        rate=merged["rate"],
        n_antennas=merged["n_antennas"],
        rician_k=merged["rician_k"],
        d_sd=merged["d_sd"],
        d_sr=merged["d_sr"],
        d_rd=merged["d_rd"],
        alpha=merged["alpha"],
    )
    battery = BatteryConfig(capacity=merged["capacity"], levels=merged["levels"],
                            e_t=merged["e_t"])
    if "e_t_grid" in grids:
        kind, grid = "energy_threshold", grids["e_t_grid"]
    elif "p_s_dbm_grid" in grids:
        kind, grid = "source_power", grids["p_s_dbm_grid"]
    else:
        kind, grid = "source_power", (merged["p_s_dbm"],)
    return SweepSpec(
        sweep_kind=kind,
        grid=grid,
        params=params,
        battery=battery,
        mc_blocks=merged["mc_blocks"],
        seed=merged["seed"],
        include_baseline=merged["include_baseline"],
        include_mc=merged["include_mc"],
        warmup_blocks=merged["warmup_blocks"],
    )


def load_config(path: str) -> SweepSpec:
    """Read a flat key-value config file into a validated SweepSpec.

    An empty file yields the full default setup (80/10/70 m geometry,
    alpha 3, K 10, noise -60 dBm, eta 0.5, rate 1, 5 mJ battery in 20
    levels, 1 mJ threshold, source at 20 dBm).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file {path}: not UTF-8 at byte {exc.start} "
                                  f"({exc.reason})") from None
    overrides = _parse_flat_file(text)
    if "p_s_dbm_grid" in overrides and "e_t_grid" in overrides:
        raise ValidationError("give either p_s_dbm_grid or e_t_grid, not both")
    return _spec_from_values(overrides)


def _run_point(spec: SweepSpec, index: int, value: float) -> SweepRow:
    params, battery = spec.params, spec.battery
    if spec.sweep_kind == "energy_threshold":
        battery = replace(battery, e_t=value)
    else:  # source_power, or optimal_threshold: the best level at this source power
        params = replace(params, p_s=dbm_to_watts(value))
    point = evaluate_point(params, battery, optimize=spec.sweep_kind == "optimal_threshold")
    mc_outage = mc_stderr = None
    if spec.include_mc:
        result = simulate(params, point.links, point.thr, point.battery, spec.mc_blocks,
                          seed=spec.seed + index, warmup_blocks=spec.warmup_blocks)
        mc_outage, mc_stderr = result.outage_estimate, result.outage_stderr
    baseline = (direct_baseline(params, point.links, point.thr)
                if spec.include_baseline else None)
    return SweepRow(
        sweep_value=value,
        analytic_outage=point.breakdown.p_out,
        mc_outage=mc_outage,
        mc_stderr=mc_stderr,
        baseline_outage=baseline,
        p_e=point.breakdown.p_e,
        optimal_level=point.optimal_level,
    )


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate every grid point of a sweep, in grid order, fail-fast.

    Each point gets its own derived Monte Carlo seed (spec.seed plus the
    point index), so a whole run is deterministic for a given spec.
    """
    rows = []
    for index, value in enumerate(spec.grid):
        try:
            rows.append(_run_point(spec, index, value))
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"sweep point {value!r}: {exc}") from exc
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.9e}"


def write_csv(rows: list, path: str) -> None:
    """Write sweep rows as CSV: header naming every field, reals in
    scientific notation with 10 significant digits, empty cells for
    absent optional fields, trailing newline, UTF-8."""
    if not rows:
        raise ValidationError("refusing to write an empty sweep")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_ROW_FIELDS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(getattr(row, name)) for name in _ROW_FIELDS) + "\n")


def _write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(f"{v:.17e}" for v in row) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route those through the
    # validation path instead so exit codes stay meaningful
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ehrelay",
                     description="Outage analysis and simulation of an "
                                 "energy-harvesting incremental relay network.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="closed-form outage at a single configuration")
    p.add_argument("--config", help="flat key-value config file (defaults if omitted)")

    p = sub.add_parser("sweep", help="run a sweep config and write a CSV")
    p.add_argument("config", help="sweep config file")
    p.add_argument("--out", default="sweep.csv", help="output CSV path")
    p.add_argument("--optimize-threshold", action="store_true",
                   help="optimize e_t at every grid point of a source-power sweep")

    p = sub.add_parser("simulate", help="Monte Carlo run at a single configuration")
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--blocks", type=int, help="measured blocks (default: mc_blocks)")
    p.add_argument("--seed", type=int, help="RNG seed (default: config seed)")
    p.add_argument("--continuous-battery", action="store_true",
                   help="store raw joules instead of discrete levels")

    p = sub.add_parser("optimize", help="exhaustive threshold search at a single configuration")
    p.add_argument("--config", help="flat key-value config file")

    p = sub.add_parser("dump-chain", help="dump the transition matrix and steady state as CSV")
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--out-z", default="chain_z.csv", help="transition matrix CSV path")
    p.add_argument("--out-pi", default="chain_pi.csv", help="steady state CSV path")

    return parser


def _load_base(config_path) -> SweepSpec:
    if config_path is None:
        return _spec_from_values({})
    return load_config(config_path)


def _cmd_analyze(args) -> int:
    spec = _load_base(args.config)
    point = evaluate_point(spec.params, spec.battery)
    breakdown = point.breakdown
    print(f"p_e             {breakdown.p_e:.9e}")
    print(f"p_mode3_joint   {breakdown.p_mode3_joint:.9e}")
    print(f"p_mode4_joint   {breakdown.p_mode4_joint:.9e}")
    print(f"p_out           {breakdown.p_out:.9e}")
    print(f"direct_baseline {direct_baseline(spec.params, point.links, point.thr):.9e}")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_config(args.config)
    if args.optimize_threshold:
        if spec.sweep_kind != "source_power":
            raise ValidationError("--optimize-threshold applies to source-power sweeps only")
        spec = replace(spec, sweep_kind="optimal_threshold")
    rows = run_sweep(spec)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_base(args.config)
    blocks = args.blocks if args.blocks is not None else spec.mc_blocks
    seed = args.seed if args.seed is not None else spec.seed
    links = link_stats(spec.params)
    thr = thresholds(spec.params.rate)
    result = simulate(spec.params, links, thr, spec.battery, blocks, seed,
                      warmup_blocks=spec.warmup_blocks,
                      continuous_battery=args.continuous_battery)
    n1, n2, n3, n4 = result.mode_counts
    print(f"blocks          {result.blocks}")
    print(f"outage_estimate {result.outage_estimate:.9e}")
    print(f"outage_stderr   {result.outage_stderr:.9e}")
    print(f"mode_counts     I={n1} II={n2} III={n3} IV={n4}")
    print(f"seed            {result.seed}")
    return 0


def _cmd_optimize(args) -> int:
    spec = _load_base(args.config)
    point = evaluate_point(spec.params, spec.battery, optimize=True)
    print(f"best_level  {point.optimal_level}")
    print(f"best_e_t    {point.battery.e_t:.9e}")
    print(f"best_outage {point.breakdown.p_out:.9e}")
    return 0


def _cmd_dump_chain(args) -> int:
    spec = _load_base(args.config)
    point = evaluate_point(spec.params, spec.battery)
    _write_matrix_csv(point.tm.z, args.out_z)
    _write_matrix_csv(point.pi.pi, args.out_pi)
    print(f"wrote {args.out_z} and {args.out_pi}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "dump-chain": _cmd_dump_chain,
}


def main(argv=None) -> int:
    """CLI entry point. Exit codes: 0 success, 1 validation error,
    2 numerical error, 3 I/O error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
