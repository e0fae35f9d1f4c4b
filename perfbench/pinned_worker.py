"""Execute operations with the pinned copy of ehrelay, one per request.

run.py starts this in a process of its own, so the pinned copy's memory
stays out of the benchmark process's peak RSS. Each line on stdin is a
JSON request {"op": <Op fields>, "config": <path>, "csv": <path>}; each
answer on stdout is the seconds the execution took.
"""

import gc
import json
import sys
import time

import env


def main() -> int:
    env.prepare()
    pinned = env.import_pinned()
    import workloads

    gc.collect()
    gc.freeze()
    for line in sys.stdin:
        request = json.loads(line)
        fields = dict(request["op"], p_s_dbm=tuple(request["op"]["p_s_dbm"]))
        op = workloads.Op(**fields)
        t0 = time.perf_counter()
        workloads.execute(pinned, op, request["config"], request["csv"])
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
