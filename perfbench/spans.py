"""Spans around ehrelay's public functions, recorded from outside the package.

`SpanRecorder.installed()` replaces every module attribute bound to a
name in `ehrelay.__all__` (in the package and in each of its modules)
by a wrapper, plus `cli.load_config`, `cli.run_sweep` and
`cli.write_csv`. Callers inside the package look these names up in
their module's globals at call time, so calls between layers go through
the wrappers too; private helpers are not wrapped and count toward the
self time of the public function that calls them. Leaving the context
restores every original.

A span is (id, parent id, name, start, end); ids start at 1 and a root
span has parent 0. Spans stay in memory until `write()`.
"""

import functools
import gzip
import inspect
import json
import os
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("specfun", "channel", "battery", "outage", "simulator", "cli")
CLI_EXTRA = ("load_config", "run_sweep", "write_csv")

# spans whose calls and self time are reported as per-layer metrics:
# every wrapped function that some workload calls
LAYER_SPANS = (
    "specfun.marcum_q",
    "specfun.lower_incomplete_gamma",
    "channel.cdf_h_sr",
    "channel.cdf_h_sd",
    "channel.sample_fade_blocks",
    "channel.link_stats",
    "battery.build_transition_matrix",
    "battery.reachable_steady_state",
    "outage.optimize_threshold",
    "outage.outage_probability",
    "outage.mode4_joint_cdf",
    "outage.direct_baseline",
    "simulator.simulate",
    "cli.load_config",
    "cli.run_sweep",
    "cli.write_csv",
)
COUNTERS = (
    "channel.fade_blocks",
    "battery.states_solved",
    "outage.candidates_tried",
    "outage.candidates_skipped",
    "simulator.mode_counts.I",
    "simulator.mode_counts.II",
    "simulator.mode_counts.III",
    "simulator.mode_counts.IV",
    "cli.csv_bytes",
)
OBSERVE = "trace.observe"   # benchmark-side bookkeeping inside a traced call


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def reachable_size(z: np.ndarray, start: int = 0) -> int:
    """Number of states reachable from `start` on the nonzero pattern."""
    adj = z > 0.0
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return int(seen.sum())


class SpanRecorder:
    """Collects spans and boundary counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.reach_sizes = []
        self._stack = []
        self._next_id = 1

    # observers run after the wrapped call returns; their time is booked
    # to an OBSERVE span so it never inflates a layer's self time
    def _observe_fades(self, bound, result):
        self.counters["channel.fade_blocks"] += bound.arguments["n"]

    def _observe_solve(self, bound, result):
        size = reachable_size(bound.arguments["tm"].z, bound.arguments.get("start", 0))
        self.reach_sizes.append(size)
        self.counters["battery.states_solved"] += size

    def _observe_simulate(self, bound, result):
        for label, count in zip(("I", "II", "III", "IV"), result.mode_counts):
            self.counters[f"simulator.mode_counts.{label}"] += count

    def _observe_csv(self, bound, result):
        self.counters["cli.csv_bytes"] += os.path.getsize(bound.arguments["path"])

    def _observe_search(self, bound, result):
        self.counters["outage.candidates_tried"] += bound.arguments["levels"]

    def _counting_skips(self, fn):
        """Wrap optimize_threshold so its skipped-candidate warnings are
        counted and then shown as they would have been."""
        @functools.wraps(fn)
        def search(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if str(w.message).startswith("threshold level"):
                    self.counters["outage.candidates_skipped"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result
        return search

    def _wrap(self, fn):
        name = span_name(fn)
        observers = {
            "channel.sample_fade_blocks": self._observe_fades,
            "battery.reachable_steady_state": self._observe_solve,
            "simulator.simulate": self._observe_simulate,
            "cli.write_csv": self._observe_csv,
            "outage.optimize_threshold": self._observe_search,
        }
        observe = observers.get(name)
        signature = inspect.signature(fn)
        inner = self._counting_skips(fn) if name == "outage.optimize_threshold" else fn
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if observe is not None:
                try:
                    observe(signature.bind(*args, **kwargs), result)
                except (TypeError, KeyError, AttributeError):
                    # the function's signature or result changed shape;
                    # its counter then reads low, and the miss is reported
                    self.counters["trace.observer_misses"] += 1
                oid = self._next_id
                self._next_id += 1
                spans.append((oid, parent, OBSERVE, end, time.perf_counter()))
            return result
        return span

    @contextmanager
    def installed(self, package):
        """Install the wrappers on `package` and its modules, then restore."""
        targets = [package] + [getattr(package, m) for m in MODULES]
        wanted = [(t, n) for t in targets for n in package.__all__]
        wanted += [(package.cli, n) for n in CLI_EXTRA]
        wrappers = {}
        saved = []
        for target, attr in wanted:
            fn = getattr(target, attr, None)
            if not inspect.isfunction(fn):
                continue
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            saved.append((target, attr, fn))
            setattr(target, attr, wrappers[fn])
        try:
            yield self
        finally:
            for target, attr, fn in saved:
                setattr(target, attr, fn)

    def reduce(self) -> dict:
        """Calls and self time per span name, and the total of root spans."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        root_s = 0.0
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time.get(sid, 0.0)
            if parent == 0 and name != OBSERVE:
                root_s += end - start
        return {"calls": dict(calls), "self_s": dict(self_s), "root_s": root_s}

    def write(self, path) -> None:
        """Write every span as gzipped JSON: names once, then rows of
        [id, parent, name index, start, end]."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, parent, index[name], start, end]
                for sid, parent, name, start, end in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
