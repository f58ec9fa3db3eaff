"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.  Checks:

1. gate: on a reduced input of each workload a run passes, and the same run
   fed one wrong expected answer reports ``correct: false``, counts the op as
   failed and exits nonzero;
2. repeatability: two traced passes of one seed give identical counts
   (span calls, term pairs, rational multiplies, monomial-matrix hits, model
   bytes, cache hits and misses, ops attempted), and every op has a span of
   its own entry point, so no call escapes the trace;
3. coverage: once the wrappers are installed, no twistcalc module, class or
   module-level container still binds an original entry point, and the
   cross-module bindings named below are wrapped.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# names bound by import in another module than the one defining them
CROSS_BINDINGS = (
    ("twistcalc.chern", "reduce_mod_c"), ("twistcalc.chern", "integrate_form"),
    ("twistcalc.suites", "haar_plane"), ("twistcalc.sphere", "haar_plane"),
    ("twistcalc.sphere", "epsilon_q"), ("twistcalc", "instanton_projector"),
    ("twistcalc", "in_quotient_ideal"), ("twistcalc", "check_sphere_class"),
    ("twistcalc.cli", "haar_plane"),
)


def reduce(name: str, inputs: dict) -> dict:
    """A few seconds' worth of the workload, still crossing its layers."""
    if name == "concordance":
        return {"groups": inputs["groups"][:1],
                "one_shots": inputs["one_shots"]}
    keep = ("qphase", "ncalg", "haar", "chern", "oracle")
    suites = inputs["suites"]
    return {"suites": {**suites, "suites": [s for s in suites["suites"]
                                            if s["name"] in keep]},
            "membership": {"ops": inputs["membership"]["ops"][:12]},
            "charge": {"ops": [op for op in inputs["charge"]["ops"]
                               if op["n"] <= 2]}}


def corruptions(name: str) -> list:
    """Ways to flip one known answer, each one a yes-only procedure or an
    oracle returning 0 would miss; every one must make the run fail."""
    def suite_count(inputs):
        inputs["suites"]["suites"][0]["cases"] += 1

    def membership_no(inputs):
        next(op for op in inputs["membership"]["ops"]
             if not op["expected"])["expected"] = True

    def charge_value(inputs):
        inputs["charge"]["ops"][0]["expected"] = "2"

    def oracle_control(inputs):
        next(op for op in inputs["groups"][0]["ops"]
             if op["kind"] == "sphere_control")["kind"] = "sphere_member"

    if name == "concordance":
        return [oracle_control]
    return [suite_count, membership_no, charge_value]


def quiet_run(name: str, hook) -> tuple[dict, int]:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(name, SEED, 0.1, False, inputs_hook=hook)


def check_gate(name: str) -> list[str]:
    errors = []
    line, code = quiet_run(name, lambda x: reduce(name, x))
    if not line["correct"] or code or line["failed"]:
        errors.append(f"{name}: reduced run failed without corruption")
    for corrupt in corruptions(name):
        def hook(x, corrupt=corrupt):
            x = reduce(name, x)
            corrupt(x)
            return x
        line, code = quiet_run(name, hook)
        if line["correct"] or not code or not line["failed"]:
            errors.append(f"{name}: gate did not fire on {corrupt.__name__}")
    return errors


def counts(result: dict) -> dict:
    out = {k: v for k, v in result["layers"].items() if isinstance(v, int)}
    out.update({f"caches.{k}": v for k, v in result["caches"].items()})
    out["attempted"] = [r["attempted"] for r in result["tasks"]]
    return out


# the entry point each task must reach, by task label prefix (first match);
# None: the task's own span, named after its label
ENTRY_OF = (("suites.", None), ("in_quotient_ideal", "sphere.in_quotient_ideal"),
            ("sphere_equal", "sphere.in_quotient_ideal"),
            ("charge", "chern.instanton_projector"),
            ("BatchChecker", "oracle.batch_init"),
            ("sphere_", "oracle.sphere_sup"), ("product", "oracle.eval_element"),
            ("one-shot", "oracle.check_one_shot"))


def escaped_ops(name: str, inputs: dict) -> list[str]:
    """Tasks of the last traced pass with no span of their entry point."""
    import numpy as np
    spans = np.load(run.OUT_DIR / f"spans-{name}-seed{SEED}.npz")
    names = list(spans["names"])
    errors = []
    for i, task in enumerate(workloads.prepare(name, inputs)):
        entry = next(e or task.label for p, e in ENTRY_OF
                     if task.label.startswith(p))
        hit = entry in names and i in set(
            spans["op"][spans["name_id"] == names.index(entry)].tolist())
        if not hit:
            errors.append(f"{name}: op {i} ({task.label}) recorded no {entry} "
                          "span: its call escaped the trace")
    return errors


def check_repeat(name: str) -> list[str]:
    inputs = reduce(name, workloads.build_inputs(name, SEED))
    first, second = (counts(run.spawn_pass(name, inputs, True, SEED))
                     for _ in range(2))
    errors = [f"{name}: {k} differs between traced runs: {first[k]} vs "
              f"{second.get(k)}" for k in first if first[k] != second.get(k)]
    return errors + escaped_ops(name, inputs)


def check_coverage() -> list[str]:
    import importlib
    import tracing
    originals = tracing.install(tracing.Tracer())
    errors = [f"unwrapped binding {b}"
              for b in tracing.unwrapped_bindings(originals)]
    for module, name in CROSS_BINDINGS:
        if not hasattr(getattr(importlib.import_module(module), name),
                       "__wrapped__"):
            errors.append(f"{module}.{name} is not wrapped")
    return errors


def main() -> int:
    os.environ.update(run.ENV_PINS)
    errors = []
    for name in workloads.WORKLOADS:
        errors += check_gate(name)
        errors += check_repeat(name)
        print(f"selftest {name}: gate and repeatability checked", flush=True)
    errors += check_coverage()  # last: it patches this process's engine
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "all checks passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
