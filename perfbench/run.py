"""twistcalc benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The launcher builds the workload's
inputs from the seed, then measures for about S seconds by starting one
fresh worker interpreter per pass (``perfbench/worker.py``), so every engine
cache starts cold as it does for a ``twistcalc`` CLI call.  Every op's verdict
is checked against its known answer.

With ``--trace 0`` the passes run untraced and the last stdout line carries
the end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` untraced
and traced passes alternate; the last line carries the per-layer metrics and
``trace.overhead_ratio`` (traced wall over untraced wall).  The lines above it
give every metric with its unit and sample count, the machine, and the
failures.  Full results go to ``.perfbench_out/`` in the checkout, spans of
the last traced pass to ``.perfbench_out/spans-<workload>-seed<N>.npz``.

The exit code is 0 only when every op was decided correctly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# one thread for every BLAS / OpenMP runtime NumPy may load; fixed str hashing
ENV_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}
MIN_PASSES = 2          # untraced passes per run, however long a pass takes
MIN_SETUPS = 5          # set-up samples per run; short set-up-only spawns top up
WORKER_TIMEOUT_S = 150  # a pass that takes longer is killed and fails the run
# Times are reported in reference seconds: measured seconds times
# NOMINAL_REF_S over the time the worker's fixed reference computation took
# next to them.  The host's speed changes cancel out: on a shared 2-vCPU KVM
# guest (Intel Xeon, 2.1 GHz) identical passes moved between speeds 1.6x
# apart in phases of seconds to minutes, giving ten-seed spreads of 0.31 in
# raw wall time.  NOMINAL_REF_S is the reference's time on that guest in a
# fast phase, so reference seconds read close to seconds there; the raw
# medians are printed beside them.
NOMINAL_REF_S = 0.0095


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(ROOT)}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_pass(workload: str, inputs: dict, trace: bool, seed: int,
               setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    req = {"workload": workload, "inputs": inputs, "trace": trace,
           "setup_only": setup_only,
           "spans_path": str(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
           if trace else None}
    req["spawned"] = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(req), capture_output=True,
                          text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, inputs: dict, seed: int, seconds: float,
            trace: bool) -> tuple[list, list, list]:
    """Untraced passes (and, with trace, one traced pass after each) until
    ``seconds`` would be exceeded; then set-up-only spawns up to MIN_SETUPS."""
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(spawn_pass(workload, inputs, False, seed))
        if trace:
            traced.append(spawn_pass(workload, inputs, True, seed))
        elapsed = time.perf_counter() - started
        rounds = len(plain)
        if rounds >= (1 if trace else MIN_PASSES) and \
                elapsed + elapsed / rounds > seconds:
            break
    setups = [(p["setup_s"], p["setup_ref_s"]) for p in plain]
    while len(setups) < MIN_SETUPS:
        p = spawn_pass(workload, inputs, False, seed, setup_only=True)
        setups.append((p["setup_s"], p["setup_ref_s"]))
    return plain, traced, setups


def corrected(p: dict) -> list[float]:
    """Each task's duration in one pass, in reference seconds: seconds times
    NOMINAL_REF_S over the reference time measured next to the task."""
    return [r["s"] * NOMINAL_REF_S / r["ref_s"] for r in p["tasks"]]


def latencies(p: dict) -> list[float]:
    """Latencies of one pass in reference ms, one per engine call that
    decides ops: a decision, a charge, an oracle check, or a whole suite (the
    engine gives no per-case time).  Set-up calls inside the pass are left
    out."""
    return [1e3 * c for c, r in zip(corrected(p), p["tasks"])
            if r["expected_ops"]]


def end_to_end(plain: list, setups: list) -> tuple[dict, dict]:
    """Metric values (medians over the run) and sample counts."""
    lat = [latencies(p) for p in plain]
    walls = [sum(corrected(p)) for p in plain]
    ops = [sum(r["attempted"] for r in p["tasks"]) for p in plain]
    med = statistics.median
    values = {
        "setup_s": med(s * NOMINAL_REF_S / ref for s, ref in setups),
        "wall_s": med(walls),
        "ops_per_s": med(n / w for n, w in zip(ops, walls)),
        "op_p50_ms": med(med(x) for x in lat),
        "op_p90_ms": med(statistics.quantiles(x, n=10, method="inclusive")[-1]
                         for x in lat),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "raw.setup_s": med(s for s, _ in setups),
        "raw.wall_s": med(p["wall_s"] for p in plain),
    }
    n_lat = sum(len(x) for x in lat)
    samples = {"setup_s": len(setups), "wall_s": len(plain),
               "ops_per_s": len(plain), "op_p50_ms": n_lat, "op_p90_ms": n_lat,
               "peak_rss_mb": len(plain), "raw.setup_s": len(setups),
               "raw.wall_s": len(plain)}
    return values, samples


def per_layer(plain: list, traced: list) -> tuple[dict, dict]:
    """Span metrics (times in reference seconds, median over traced passes;
    counts from the first), suite walls and cache ratios from the untraced
    passes."""
    import workloads
    med = statistics.median
    values = {}
    scale = [NOMINAL_REF_S / med(r["ref_s"] for r in t["tasks"])
             for t in traced]
    for name, first in traced[0]["layers"].items():
        if name.endswith("_s"):
            values[name] = med(t["layers"][name] * k
                               for t, k in zip(traced, scale))
        else:
            values[name] = first
    for suite in workloads.SUITES:  # 0 on workloads that run no suite
        label = f"suites.{suite}"
        walls = [c for p in plain for c, r in zip(corrected(p), p["tasks"])
                 if r["label"] == label]
        cases = [r["attempted"] for r in plain[0]["tasks"] if r["label"] == label]
        values[f"{label}.cases"] = cases[0] if cases else 0
        values[f"{label}.wall_s"] = med(walls) if walls else 0.0
    for name, (hits, misses) in plain[0]["caches"].items():
        values[f"{name}.hits"] = hits
        values[f"{name}.misses"] = misses
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.overhead_ratio"] = (med(sum(corrected(t)) for t in traced)
                                      / med(sum(corrected(p)) for p in plain))
    samples = {name: len(traced) for name in values}
    return values, samples


def declared(kind: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        inputs_hook=None) -> tuple[dict, int]:
    """Measure one workload; returns (result line, exit code)."""
    import workloads
    t = time.perf_counter()
    inputs = workloads.build_inputs(workload, seed)
    if inputs_hook is not None:
        inputs = inputs_hook(inputs)
    gen_s = time.perf_counter() - t
    plain, traced, setups = measure(workload, inputs, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(r["attempted"] for p in passes for r in p["tasks"])
    failed = sum(r["failed"] for p in passes for r in p["tasks"])
    short = sum(max(r["expected_ops"] - r["attempted"], 0)
                for p in passes for r in p["tasks"])
    problems = [e for p in passes for e in p["errors"] + p["wrong"]]
    correct = failed == 0 and short == 0 and not problems and attempted > 0
    if trace:
        values, samples = per_layer(plain, traced)
        units = declared("per_layer")
    else:
        values, samples = end_to_end(plain, setups)
        units = declared("end_to_end")
    info = machine_info()
    print(f"# twistcalc perfbench: workload={workload} seed={seed} "
          f"seconds={seconds} trace={int(trace)}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# input build {gen_s:.3f} s; {len(plain)} untraced and "
          f"{len(traced)} traced passes; failed_ratio "
          f"{failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} ops)")
    for name in sorted(values):
        unit = units.get(name, "")
        print(f"{name} = {values[name]:.6g} {unit} (samples={samples[name]})"
              + ("" if name in units else " [not declared]"))
    for name in sorted(set(units) - set(values)):
        print(f"{name}: not measured (entry or cache not found), reported as 0")
    for msg in problems[:20]:
        print(f"# FAILED {msg}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": info, "input_build_s": gen_s,
              "metrics": values, "samples": samples,
              "attempted": attempted, "failed": failed, "problems": problems,
              "passes": plain, "traced_passes": [
                  {k: v for k, v in p.items() if k != "layers"} for p in traced]}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()}}
    return line, 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twistcalc" / "__init__.py").is_file():
        print(f"perfbench: no twistcalc sources under {ROOT / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    os.environ.update(ENV_PINS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    line, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
