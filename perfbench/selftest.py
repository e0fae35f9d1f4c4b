"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on each workload's tiny operation list:
  1. an untraced run emits exactly the end-to-end metrics of
     BENCHMARK.json, and a traced run exactly its per-layer metrics,
     with their units, and both pass every output check;
  2. with one reference value perturbed, the run reports failures, so
     the output check catches a wrong output;
  3. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when all hold and 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import env

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root: Path, workload: str, seed: int, trace: int, *extra) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--tiny", *extra],
                          capture_output=True, text=True, timeout=600, cwd=str(root))


def _result(done: subprocess.CompletedProcess):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def _perturb(ref_dir: Path) -> None:
    """Change one reference value per workload, at the tiny default-seed ops."""
    def edit(name, fn):
        path = ref_dir / f"{name}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        fn(doc["ops"])
        path.write_text(json.dumps(doc), encoding="utf-8")

    def analytic(ops):
        entry = ops["sweep L=20 N=1 P=15.0,19.0,23.0,27.0 opt=0 cont=0 blocks=0"]
        entry["rows"][0][1] *= 1.0 + 1e-6       # analytic_outage, 1e-6 relative

    def opt(ops):
        entry = ops["sweep L=200 N=1 P=18.0 opt=1 cont=0 blocks=0"]
        entry["rows"][0][4] += 1                # optimal_level

    def mc(ops):
        entry = ops["simulate L=20 N=3 P=20.0 opt=0 cont=0 blocks=100000"]
        entry["mode_counts"][0] += 1            # one block moved between modes
        entry["mode_counts"][1] -= 1

    edit("analytic_sweep", analytic)
    edit("opt_sweep", opt)
    edit("mc_validate", mc)


def main() -> int:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    for workload in workloads:
        for trace in (0, 1):
            result = _result(_run(env.ROOT, workload, 0, trace))
            if result is None:
                failures.append(f"{workload} trace {trace}: no result")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{workload} trace {trace}: failed "
                                f"{result['failed']} of {result['attempted']}")
            print(f"ok? {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    env.WORK_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=str(env.WORK_DIR)))
    try:
        ref_dir = scratch / "reference"
        shutil.copytree(env.REFERENCE_DIR, ref_dir)
        _perturb(ref_dir)
        for workload in workloads:
            result = _result(_run(env.ROOT, workload, 0, 0, "--reference", str(ref_dir)))
            caught = result is not None and result["failed"] > 0 and not result["correct"]
            if not caught:
                failures.append(f"{workload}: perturbed reference not caught ({result})")
            print(f"perturbed {workload}: "
                  f"{'caught' if caught else 'MISSED'}", file=sys.stderr)

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy2(env.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(env.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        done = _run(bare, workloads[0], 0, 0)
        if done.returncode == 0 or _result(done) is not None or "{" in done.stdout:
            failures.append(f"bare checkout: exit {done.returncode}, stdout {done.stdout!r}")
        print(f"bare checkout: exit {done.returncode}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
