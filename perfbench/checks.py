"""Output checks behind `failed`: references, tolerances and invariants.

Sweeps, at every seed:
  * every analytic value (analytic_outage, p_e, baseline_outage) agrees
    with the reference within REL_TOL, relative;
  * optimal_level and sweep_value match exactly, and the Monte Carlo
    columns are empty;
  * each CSV cell parses back to the row it was written from (within
    CSV_TOL, the rounding of 10 significant digits).
  At the default grid offset (seed % 10 == 0) the CSV must also match
  the reference byte for byte.

Simulations, at every seed:
  * counters sum to `blocks`, modes I and II have no outages, and the
    estimate is outages / blocks;
  * discrete battery: the estimate agrees with the closed form within
    Z_MAX standard errors (all four regimes mix, or stay frozen in a
    way the closed form also sees, at 1e6 blocks);
  * continuous battery: the estimate agrees with the reference run
    within Z_MAX combined standard errors. Its float rounding may
    change, so it is never compared exactly.
  At the default seed the discrete SimulationResult must equal the
  reference field for field.

A standard error is floored at one event in `blocks`, so a run with no
outages is still compared with a finite tolerance.
"""

import dataclasses
import json

REL_TOL = 1e-9
CSV_TOL = 1e-9
Z_MAX = 5.0
CSV_HEADER = "sweep_value,analytic_outage,mc_outage,mc_stderr,baseline_outage,p_e,optimal_level"


def load_reference(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def sweep_reference(rows, csv_text, with_csv: bool) -> dict:
    entry = {"rows": [[r.sweep_value, r.analytic_outage, r.p_e, r.baseline_outage,
                       r.optimal_level] for r in rows]}
    if with_csv:
        entry["csv"] = csv_text
    return entry


def simulation_reference(result) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(result)))


def _close(got, want, tol) -> bool:
    if got is None or want is None:
        return got is want
    return got == want or abs(got - want) <= tol * max(abs(got), abs(want))


def _csv_cells_match(line: str, row) -> bool:
    cells = line.split(",")
    if len(cells) != 7 or cells[2] or cells[3]:
        return False
    level = None if cells[6] == "" else int(cells[6])
    reals = [None if c == "" else float(c) for c in (cells[0], cells[1], cells[4], cells[5])]
    want = (row.sweep_value, row.analytic_outage, row.baseline_outage, row.p_e)
    return level == row.optimal_level and all(_close(g, w, CSV_TOL) for g, w in zip(reals, want))


def check_sweep(op, rows, csv_text: str, ref) -> list:
    """Problems found in one sweep, one string per failing point."""
    n = len(op.p_s_dbm)
    if ref is None:
        return [f"{op.key}: no reference"] * n
    expected = ref["rows"]
    lines = csv_text.split("\n")
    if len(rows) != n or len(expected) != n:
        return [f"{op.key}: {len(rows)} rows, reference has {len(expected)}"] * n
    if lines[0] != CSV_HEADER or len(lines) != n + 2 or lines[-1] != "":
        return [f"{op.key}: CSV header or line count differs"] * n
    ref_lines = ref["csv"].split("\n") if "csv" in ref else None
    problems = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        value, analytic, p_e, baseline, level = want
        why = []
        if row.sweep_value != value:
            why.append(f"sweep_value {row.sweep_value!r} != {value!r}")
        for label, got, ref_value in (("analytic_outage", row.analytic_outage, analytic),
                                      ("p_e", row.p_e, p_e),
                                      ("baseline_outage", row.baseline_outage, baseline)):
            if not _close(got, ref_value, REL_TOL):
                why.append(f"{label} {got!r} != {ref_value!r}")
        if row.optimal_level != level:
            why.append(f"optimal_level {row.optimal_level!r} != {level!r}")
        if row.mc_outage is not None or row.mc_stderr is not None:
            why.append("Monte Carlo columns filled")
        if ref_lines is not None:
            if lines[i + 1] != ref_lines[i + 1]:
                why.append(f"CSV line {lines[i + 1]!r} != {ref_lines[i + 1]!r}")
        elif not _csv_cells_match(lines[i + 1], row):
            why.append(f"CSV line {lines[i + 1]!r} does not match its row")
        if why:
            problems.append(f"{op.key} point {i}: " + "; ".join(why))
    return problems


def _stderr(estimate: float, blocks: int) -> float:
    se = (estimate * (1.0 - estimate) / blocks) ** 0.5
    return max(se, 1.0 / blocks)


def check_simulation(op, result, ref, closed_form: float) -> list:
    """Problems found in one simulation (at most one failed operation)."""
    why = []
    b = op.blocks
    if result.blocks != b or result.seed != op.mc_seed:
        why.append(f"blocks/seed {result.blocks}/{result.seed} != {b}/{op.mc_seed}")
    if sum(result.mode_counts) != b or sum(result.level_occupancy) != b:
        why.append(f"counters do not sum to {b}: modes {result.mode_counts}")
    if len(result.level_occupancy) != op.levels + 1:
        why.append(f"{len(result.level_occupancy)} occupancy bins for L={op.levels}")
    if result.mode_outages[0] or result.mode_outages[1]:
        why.append(f"outages in modes I/II: {result.mode_outages}")
    if result.outages != sum(result.mode_outages) or result.outage_estimate != result.outages / b:
        why.append("outage total or estimate inconsistent with the mode counts")
    estimate = result.outage_estimate
    if op.continuous:
        if ref is None:
            why.append("no reference")
        else:
            want = ref["outage_estimate"]
            tol = Z_MAX * (_stderr(estimate, b) ** 2 + _stderr(want, ref["blocks"]) ** 2) ** 0.5
            if abs(estimate - want) > tol:
                why.append(f"continuous estimate {estimate:.4e} vs reference {want:.4e} "
                           f"differs by more than {Z_MAX} stderr")
    else:
        if abs(estimate - closed_form) > Z_MAX * _stderr(estimate, b):
            why.append(f"estimate {estimate:.4e} vs closed form {closed_form:.4e} "
                       f"differs by more than {Z_MAX} stderr")
        if ref is None:
            why.append("no reference")
        elif ref["seed"] == op.mc_seed and simulation_reference(result) != ref:
            why.append("SimulationResult differs from the reference run")
    return [f"{op.key} seed {op.mc_seed}: " + "; ".join(why)] if why else []
