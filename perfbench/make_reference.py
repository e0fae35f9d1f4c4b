"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every operation of every workload once, for each of the grid
offsets a seed can select (sweeps) and for the default seed 0
(simulations), in full and tiny size, and writes
perfbench/reference/<workload>.json. A reference records the program
as it stood when it was made: regenerate it only in a change that is
meant to alter outputs, and say so there.
"""

import json
import os
import shutil
import sys
import tempfile

import env


def main() -> int:
    ehrelay = env.prepare()
    import checks
    import workloads

    env.WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=str(env.WORK_DIR))
    try:
        for name, workload in workloads.WORKLOADS.items():
            entries = {}
            for seed in range(workloads.GRID_OFFSETS):
                for tiny in (False, True):
                    for op in workload.ops(seed, tiny):
                        if op.key in entries or (op.kind == "simulate" and seed != 0):
                            continue
                        config_path = os.path.join(work, "op.cfg")
                        csv_path = os.path.join(work, "op.csv")
                        with open(config_path, "w", encoding="utf-8") as fh:
                            fh.write(op.config_text())
                        output = workloads.execute(ehrelay, op, config_path, csv_path)
                        if op.kind == "sweep":
                            with open(csv_path, "r", encoding="utf-8", newline="") as fh:
                                csv_text = fh.read()
                            entries[op.key] = checks.sweep_reference(output, csv_text, seed == 0)
                        else:
                            entries[op.key] = checks.simulation_reference(output)
                        print(f"{name}: {op.key}", file=sys.stderr)
            path = env.REFERENCE_DIR / f"{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"ops": entries}, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
