"""One timed pass of a perfbench workload, in a fresh interpreter.

The launcher writes a JSON request on stdin:

    {"workload": ..., "inputs": ..., "spawned": <launcher perf_counter at
     spawn>, "trace": bool, "setup_only": bool, "spans_path": str | null}

The worker parses the inputs, installs the span wrappers when tracing, runs
every task once and prints one JSON line.  ``setup_s`` runs from the spawn to
the first timed op (perf_counter is the system-wide monotonic clock on Linux,
so the two processes share it); each task row has its own duration.

Between tasks, outside their timings, the worker times a fixed reference
computation (``reference_s``).  The launcher divides each duration by the
reference time measured next to it, which cancels the host's speed changes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


_REF_MATRIX = np.full((96, 96), 0.5 + 0.25j)


def reference_s() -> float:
    """Seconds a fixed computation takes right now: Fraction and dict work
    like the exact engine's, then complex matmuls like the oracle's."""
    t = time.perf_counter()
    acc, f = {}, Fraction(1, 3)
    for i in range(1500):
        f = f * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        f = Fraction(f.numerator % 10007, f.denominator % 10009 + 1)
        acc[i % 97, i % 13] = acc.get((i % 97, i % 13), 0) + 1
    for _ in range(4):
        _REF_MATRIX @ _REF_MATRIX
    return time.perf_counter() - t


def run_pass(req: dict) -> dict:
    tasks = workloads.prepare(req["workload"], req["inputs"])
    tracer = None
    if req.get("trace"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
    clock = time.perf_counter
    setup_s = clock() - req["spawned"]
    reference_s()  # first call pays one-time costs; not a sample
    ref = reference_s()
    if req.get("setup_only"):
        return {"setup_s": setup_s, "setup_ref_s": ref}
    result = {"setup_s": setup_s, "setup_ref_s": ref}
    rows, errors, wrong = [], [], []
    for i, task in enumerate(tasks):
        t = clock()
        try:
            if tracer is not None:
                tracer.current_op = i
                out = tracer.span(task.span, task.run)
            else:
                out = task.run()
            dt = clock() - t
            attempted, failed = task.check(out)
        except Exception:
            dt = clock() - t
            attempted = failed = task.ops
            errors.append(f"{task.label}: {traceback.format_exc(limit=4)}")
        else:
            if failed:
                wrong.append(f"{task.label}: got {str(out)[:300]}")
        # the lower of the samples around the task: a spike only slows one
        before, ref = ref, reference_s()
        rows.append({"label": task.label, "s": dt, "ref_s": min(before, ref),
                     "attempted": attempted, "failed": failed,
                     "expected_ops": task.ops})
    result.update({
        "wall_s": sum(r["s"] for r in rows),
        "tasks": rows,
        "errors": errors,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": tracing.cache_stats(),
    })
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if req.get("spans_path"):
            tracer.write(req["spans_path"])
    return result


def main() -> int:
    req = json.load(sys.stdin)
    print(json.dumps(run_pass(req)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
