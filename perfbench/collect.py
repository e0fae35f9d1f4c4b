"""Run workloads over several seeds and summarize each end-to-end metric.

    python3 perfbench/collect.py --workloads opt_sweep --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --baseline perfbench/baseline.json

Each run is a separate `run.py` process, one after another, measuring
BENCHMARK.json's run_seconds unless --seconds says otherwise. For every
workload and metric the summary gives the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. With --baseline it also
makes one traced run per workload at seed 0 and writes the medians,
quartiles, raw program items per second and per-layer numbers to the
given file, for later changes to cite as "before".
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import env

RUN = str(env.BENCH_DIR / "run.py")


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _raw_rates(workload: str, seed: int) -> dict:
    """Program items per second per group, from the run's full record."""
    with open(env.OUT_DIR / f"{workload}-seed{seed}-trace0.json", "r", encoding="utf-8") as fh:
        speeds = json.load(fh)["properties"]["speeds"]
    return {group: s["program_items_per_s"] for group, s in speeds.items()}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900, cwd=str(env.ROOT))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="analytic_sweep,opt_sweep,mc_validate")
    parser.add_argument("--seeds", default="1-10", help="a range 'a-b' or a list 'a,b,c'")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--baseline", default=None, help="write a baseline file here")
    args = parser.parse_args(argv)
    with open(env.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results, raw = [], []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            results.append(_run(workload, seed, seconds, 0))
            raw.append(_raw_rates(workload, seed))
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                  f"failed {results[-1]['failed']}/{results[-1]['attempted']}", file=sys.stderr)
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results), "metrics": {},
                 "program_items_per_s": {g: _summary([r[g] for r in raw]) for g in raw[0]}}
        for name in results[0]["metrics"]:
            summary = _summary([r["metrics"][name]["value"] for r in results])
            summary["unit"] = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = summary
            bound = bounds[name]
            flag = "" if summary["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:15s} {name:16s} median {summary['median']:12.6g} {summary['unit']:5s}"
                  f" spread {summary['spread']:.4f} (bound {bound}){flag}")
        if args.baseline:
            entry["trace_seed0"] = _run(workload, 0, seconds, 1)["metrics"]
        report["workloads"][workload] = entry

    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(env.OUT_DIR / f"collect-{int(time.time())}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.baseline:
        report["seeds"] = args.seeds
        report["platform"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                              "machine": platform.machine()}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
