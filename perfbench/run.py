"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py. With `--trace 0` the run reports
the end-to-end metrics, with tracing off:

  setup_s          median time for a fresh interpreter to import ehrelay
                   and load and validate the workload's config files
  primary_speed    the program's speed relative to a pinned copy of itself
                   on the primary operations: per operation the median of
                   pinned seconds over program seconds, paired executions
                   back to back, then the geometric mean over operations
                   (see pinned/README.md); 1.0 at the commit that defined
                   the benchmark, above 1 when the program got faster
  secondary_speed  the same for the secondary operations
  peak_rss_mib     the benchmark process's maximum resident set size

Raw throughputs (sweep points or blocks per second) of the program and
of the pinned copy are printed and recorded beside them.

With `--trace 1` it runs some rounds untraced, then the rest with spans
installed (spans.py), and reports per-layer metrics per round: calls and
self time of each layer's public functions, boundary counters, the span
coverage of the traced wall time, the tracing overhead, and whether the
workload's predicted dominant layers held. The pinned copy is not run.

Every operation's output is checked (checks.py); `failed` counts sweep
points and simulate calls that raised or failed a check. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. A fuller record, with workload properties, goes to
perfbench/_out/. Exits 2 without a result when the checkout holds no
ehrelay source.
"""

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import env

SETUP_REPEATS = 7
UNTRACED_SHARE = 1 / 3   # of --seconds, in a traced run, before spans go in
GROUPS = ("primary", "secondary")

# loads every config path given after the source directory, in a fresh
# interpreter, and prints the seconds from its first line to the last load
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ehrelay
from ehrelay import cli
for path in sys.argv[2:]:
    cli.load_config(path)
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload's small operation list (self-test)")
    parser.add_argument("--reference", default=None,
                        help="reference directory (default: perfbench/reference)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _measure_setup(config_paths) -> float:
    env_vars = dict(os.environ, **env.THREAD_ENV)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(env.SRC), *config_paths],
                              capture_output=True, text=True, timeout=120, check=True,
                              env=env_vars, cwd=str(env.ROOT))
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _timed(workloads, package, op, config_path, csv_path) -> tuple:
    t0 = time.perf_counter()
    try:
        output = workloads.execute(package, op, config_path, csv_path)
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        output = exc
    return time.perf_counter() - t0, output


class PinnedWorker:
    """The pinned copy, executing operations in a process of its own."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(env.BENCH_DIR / "pinned_worker.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                      cwd=str(env.ROOT))

    def seconds(self, op, config_path, csv_path) -> float:
        request = {"op": dataclasses.asdict(op), "config": config_path,
                   "csv": csv_path + ".pinned"}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            # the pinned copy never changes, so this is the benchmark's own
            # failure and must stop the run
            raise RuntimeError(f"pinned worker exited with {self._proc.wait()}")
        return float(answer)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def _run_round(workloads, program, pinned, ops, paths, index: int) -> dict:
    """Execute each operation `op.repeat` times with the program and, unless
    `pinned` (a PinnedWorker) is None, as often with the pinned copy, each pinned execution
    right before or after its program execution; which goes first
    alternates from one execution and one round to the next.

    Returns the round's wall time and one record per program execution:
    (op index, seconds, output, pinned seconds or None), where a sweep's
    output is its rows and the CSV text it wrote."""
    start = time.perf_counter()
    runs = []
    turn = index
    for i, (op, (config_path, csv_path)) in enumerate(zip(ops, paths)):
        for _ in range(op.repeat):
            turn += 1
            pinned_first = turn % 2 == 1
            pinned_s = None
            if pinned is not None and pinned_first:
                pinned_s = pinned.seconds(op, config_path, csv_path)
            seconds, output = _timed(workloads, program, op, config_path, csv_path)
            if pinned is not None and not pinned_first:
                pinned_s = pinned.seconds(op, config_path, csv_path)
            if op.kind == "sweep" and not isinstance(output, Exception):
                with open(csv_path, "r", encoding="utf-8", newline="") as fh:
                    output = (output, fh.read())
            runs.append((i, seconds, output, pinned_s))
    return {"wall": time.perf_counter() - start, "runs": runs}


def _measure(workloads, program, pinned, ops, paths, budget: float) -> list:
    """Repeat rounds while another round of median length fits the budget
    (always at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        # the benchmark's own objects (references, earlier outputs) would
        # otherwise make every full collection inside the program slower
        # here than in the pinned worker
        gc.freeze()
        rounds.append(_run_round(workloads, program, pinned, ops, paths, len(rounds)))
        median_wall = statistics.median(r["wall"] for r in rounds)
        if time.perf_counter() - start + median_wall > budget:
            return rounds


def _speeds(ops, rounds) -> dict:
    """Per group: the speed metric and raw items per second.

    An operation's speed is the median, over its executions in the run,
    of pinned seconds over program seconds; a group's speed is the
    geometric mean of its operations' speeds, so every operation counts
    and a single slow execution does not."""
    out = {}
    all_runs = _all_runs(rounds)
    for group in GROUPS:
        members = [i for i, op in enumerate(ops) if op.group == group]
        per_op = {i: statistics.median(p / s for j, s, _, p in all_runs if j == i)
                  for i in members}
        runs = [(ops[j].items, s, p) for j, s, _, p in all_runs if j in members]
        out[group] = {
            "speed": math.exp(statistics.fmean(math.log(v) for v in per_op.values())),
            "per_op_speed": list(per_op.values()),
            "program_items_per_s": sum(n for n, _, _ in runs) / sum(s for _, s, _ in runs),
            "pinned_items_per_s": sum(n for n, _, _ in runs) / sum(p for _, _, p in runs),
        }
    return out


def _all_runs(rounds):
    return [run for r in rounds for run in r["runs"]]


def _check(checks, ops, paths, rounds, reference, closed_forms) -> tuple:
    attempted = failed = 0
    problems = []
    for i, _, output, _ in _all_runs(rounds):
        op = ops[i]
        attempted += op.attempts
        if isinstance(output, Exception):
            failed += op.attempts
            problems.append(f"{op.key}: raised {type(output).__name__}: {output}")
            continue
        ref = reference.get(op.key)
        if op.kind == "sweep":
            found = checks.check_sweep(op, output[0], output[1], ref)
        else:
            found = checks.check_simulation(op, output, ref, closed_forms.get(paths[i][0]))
        failed += len(found)
        problems.extend(found)
    return attempted, failed, problems


def _mode_shares(ops, rounds) -> list:
    shares = []
    for i, _, result, _ in rounds[0]["runs"]:
        if ops[i].kind == "simulate" and not isinstance(result, Exception):
            shares.append({"op": dataclasses.asdict(ops[i]),
                           "shares_I_II_III_IV": [c / result.blocks for c in result.mode_counts]})
    return shares


def _layer_metrics(spans, workload, recorder, traced, untraced) -> tuple:
    reduced = recorder.reduce()
    n = len(traced)
    traced_wall = sum(r["wall"] for r in traced)
    metrics = {}
    for name in spans.LAYER_SPANS:
        metrics[f"{name}.calls"] = (reduced["calls"].get(name, 0) / n, "count")
        metrics[f"{name}.self_s"] = (reduced["self_s"].get(name, 0.0) / n, "s")
    for name in spans.COUNTERS:
        unit = "B" if name == "cli.csv_bytes" else "count"
        metrics[name] = (recorder.counters.get(name, 0.0) / n, unit)
    tried = recorder.counters.get("outage.candidates_tried", 0.0)
    skipped = recorder.counters.get("outage.candidates_skipped", 0.0)
    metrics["outage.candidate_ok_ratio"] = ((tried - skipped) / tried if tried else 0.0, "ratio")
    predicted = sum(reduced["self_s"].get(s, 0.0) for s in workload.predicted) / traced_wall
    bypassed = [s for s in workload.expected if reduced["calls"].get(s, 0) == 0]
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in untraced), "s")
    metrics["trace.span_coverage"] = (reduced["root_s"] / traced_wall, "ratio")
    metrics["trace.predicted_share"] = (predicted, "ratio")
    metrics["trace.prediction_held"] = (1.0 if predicted >= 0.5 else 0.0, "bool")
    metrics["trace.bypassed_spans"] = (float(len(bypassed)), "count")
    sizes = recorder.reach_sizes
    properties = {
        "traced_rounds": n,
        "untraced_rounds": len(untraced),
        "predicted_dominant": list(workload.predicted),
        "prediction_held": predicted >= 0.5,
        "bypassed_spans": bypassed,
        "observer_misses": recorder.counters.get("trace.observer_misses", 0),
        "reachable_states": ({"solves": len(sizes), "min": min(sizes), "max": max(sizes),
                              "mean": sum(sizes) / len(sizes)} if sizes else None),
        "candidates_skipped_per_round": skipped / n,
        "self_s_per_round": {k: v / n for k, v in sorted(reduced["self_s"].items())},
        "calls_per_round": {k: v / n for k, v in sorted(reduced["calls"].items())},
    }
    for name in bypassed:
        print(f"wrapper bypassed: {name} was never called through its span "
              "(a refactor moved the call, this is not a speed-up)", file=sys.stderr)
    return metrics, properties


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        ehrelay = env.prepare()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # imported only now: they import numpy and ehrelay, which must see the
    # thread pins and the checkout's src/ that prepare() set up
    import numpy
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops(args.seed, args.tiny)
    ref_dir = args.reference or str(env.REFERENCE_DIR)
    reference = checks.load_reference(os.path.join(ref_dir, f"{workload.name}.json"))

    env.WORK_DIR.mkdir(parents=True, exist_ok=True)
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=str(env.WORK_DIR))
    properties = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                  "tiny": args.tiny, "grid_offset_db": workloads.grid_offset(args.seed),
                  "primary": workload.primary, "secondary": workload.secondary,
                  "ops": [dataclasses.asdict(op) for op in ops]}
    try:
        paths = []
        for i, op in enumerate(ops):
            config_path = os.path.join(work, f"op{i}.cfg")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(op.config_text())
            paths.append((config_path, os.path.join(work, f"op{i}.csv")))
        closed_forms = {c: workloads.closed_form(c) for (c, _), op in zip(paths, ops)
                        if op.kind == "simulate" and not op.continuous}

        recorder = None
        if args.trace:
            untraced = _measure(workloads, ehrelay, None, ops, paths,
                                args.seconds * UNTRACED_SHARE)
            recorder = spans.SpanRecorder()
            spent = sum(r["wall"] for r in untraced)
            with recorder.installed(ehrelay):
                rounds = _measure(workloads, ehrelay, None, ops, paths,
                                  max(args.seconds - spent, 0.0))
            metrics, properties["trace"] = _layer_metrics(spans, workload, recorder,
                                                          rounds, untraced)
            checked = untraced + rounds
        else:
            setup_s = _measure_setup([c for c, _ in paths])
            pinned = PinnedWorker()
            try:
                rounds = _measure(workloads, ehrelay, pinned, ops, paths, args.seconds)
            finally:
                pinned.close()
            speeds = _speeds(ops, rounds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup_s, "s"),
                       "primary_speed": (speeds["primary"]["speed"], "x"),
                       "secondary_speed": (speeds["secondary"]["speed"], "x"),
                       "peak_rss_mib": (peak, "MiB")}
            properties["speeds"] = speeds
            checked = rounds
        attempted, failed, problems = _check(checks, ops, paths, checked,
                                             reference, closed_forms)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    properties.update({
        "rounds": len(rounds),
        "round_wall_s": [r["wall"] for r in rounds],
        "runs_op_seconds_pinned": [[(i, t, p) for i, t, _, p in r["runs"]] for r in rounds],
        "mode_shares": _mode_shares(ops, rounds),
        "failed_share": failed / attempted,
        "problems": problems[:20],
        "platform": {"nproc": os.cpu_count(),
                     "cores_allowed": sorted(os.sched_getaffinity(0)),
                     "python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "machine": platform.machine(),
                     "thread_env": env.THREAD_ENV},
    })
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if recorder is not None:
        recorder.write(env.OUT_DIR / f"{stem}.spans.json.gz")
    record = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "properties": properties}
    with open(env.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace} rounds={len(rounds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for group, speed in properties.get("speeds", {}).items():
        print(f"  {group + ' items/s (program, pinned)':40s} "
              f"{speed['program_items_per_s']:14.6g} {speed['pinned_items_per_s']:.6g}")
    print(f"  {'failed_share':40s} {failed / attempted:14.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
