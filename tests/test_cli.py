"""Command line surface: outputs, JSON schema, exit codes, determinism."""

import json
import math
import os
import pstats
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import frozenset_keys
import twistcalc
from helpers import basis_form, label_digest, recorded_run
from twistcalc import (DeformationContext, Element, chern, cli, identities,
                       oracle, qphase, suites)
from twistcalc.cli import main
from twistcalc.exprio import format_element, parse_expr
from twistcalc.sphere import hodge_sphere
from twistcalc.suites import SUITE_NAMES, SuiteReport, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _without_wall_times(payload):
    """A report's dict with every wall_time_s key dropped."""
    out = {k: v for k, v in payload.items() if k != "wall_time_s"}
    if "suites" in out:
        out["suites"] = {nm: {k: v for k, v in entry.items()
                              if k != "wall_time_s"}
                         for nm, entry in out["suites"].items()}
    return out


def test_charge_command(capsys):
    code, out, _ = run_cli(capsys, "charge", "--n", "1")
    assert code == 0
    assert "charge(n=1) = 1" in out
    code, out, _ = run_cli(capsys, "charge", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "1"
    assert payload["is_one"] is True
    # an order past the half-dimension limit is refused up front
    code, out, err = run_cli(capsys, "charge", "--n", "100")
    assert (code, out) == (2, "")
    assert f"n = 100 exceeds the limit {chern.MAX_HALF_DIM}" in err


def test_oversized_dimension_refused_before_the_pair_table():
    # a context of dimension D holds a D^2-entry pair table: at D = 10^6
    # each command must exit 2 with the limit's message, in a process whose
    # address space is capped, so that building the table shows as a
    # MemoryError or a timeout rather than exhausting the machine
    cap = 1 << 30
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(twistcalc.__file__).resolve().parents[1])}
    big = "1000000"
    for argv in (("haar", "--dim", big), ("hodge", "--sphere", big),
                 ("integrate", "--sphere", big), ("oracle", "--dim", big)):
        proc = subprocess.run(
            [sys.executable, "-m", "twistcalc.cli", *argv, "--expr", "x1"],
            capture_output=True, text=True, timeout=30, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert f"exceeds the limit {qphase.MAX_DIM}" in proc.stderr


def test_haar_command(capsys):
    code, out, _ = run_cli(capsys, "haar", "--dim", "5", "--expr", "x3^2")
    assert code == 0
    assert "1/5" in out
    code, out, _ = run_cli(capsys, "haar", "--dim", "5", "--expr", "x3^2",
                           "--json")
    payload = json.loads(out)
    assert payload["exact"] == "1/5"
    assert abs(payload["numeric"]["re"] - 0.2) < 1e-12


def test_integrate_command_json_schema(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--sphere", "2",
                           "--expr", "i*x3*dx1*dx2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"exact", "numeric", "degree"}
    assert payload["exact"] == "1/3"
    assert payload["degree"] == 0


def test_hodge_command_json_schema(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--sphere", "2", "--expr", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"exact", "numeric", "degree"}
    assert payload["degree"] == 2
    assert payload["numeric"] is None
    # a zero star is the only result with a numeric value
    code, out, _ = run_cli(capsys, "hodge", "--sphere", "2", "--expr",
                           "x1*dx1 - x1*dx1")
    assert code == 0
    assert json.loads(out) == {"exact": "0", "numeric": {"re": 0.0, "im": 0.0},
                               "degree": 0}


def test_hodge_takes_no_angles(capsys):
    # a sphere star's numeric value is 0 or null at every angle, so hodge
    # has no --theta to ignore: argparse refuses it
    with pytest.raises(SystemExit) as info:
        main(["hodge", "--sphere", "2", "--expr", "x1", "--theta", "0.3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --theta 0.3" in capsys.readouterr().err


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--dim", "5",
                           "--expr", "x1*x2 - q(1,2)^1*x2*x1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is True
    code, out, _ = run_cli(capsys, "oracle", "--dim", "5", "--expr", "x1",
                           "--moduli", "5,7", "--seed", "42", "--json")
    payload = json.loads(out)
    assert payload["zero"] is False


def test_oracle_command_size_reach_and_guard(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--dim", "7",
                           "--expr", "x1*x2 - q(1,2)^1*x2*x1", "--json")
    assert code == 0
    assert json.loads(out)["zero"] is True
    # modulus 1451 at D = 7: side 1451^2 is over the 2^21 cap
    code, _, err = run_cli(capsys, "oracle", "--dim", "7", "--moduli", "1451",
                           "--expr", "x1")
    assert code == 2
    assert "side 2105401" in err


def test_oracle_command_word_cap(capsys):
    # modulus 7 at D = 25: a side of 7^6 under the cap, but 25 words over it
    code, out, err = run_cli(capsys, "oracle", "--dim", "25", "--moduli", "7",
                             "--expr", "x1", "--json")
    assert (code, out) == (2, "")
    assert "side 117649 (modulus 7, 6 slots) needs 25 words" in err


def test_oracle_overflow_and_bad_input(capsys):
    # x1^2000 overflows at the plane points: the sup is inf, not a zero,
    # and the JSON still loads
    code, out, _ = run_cli(capsys, "oracle", "--dim", "5", "--json",
                           "--expr", "x1^2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is False
    assert payload["max_abs"] == math.inf
    # a zero denominator and an oversized power table are usage errors
    for expr, msg in (("1/0", "zero denominator (at position 2)"),
                      ("x1^30000", "power table of 3000100 entries")):
        code, out, err = run_cli(capsys, "oracle", "--dim", "5", "--expr",
                                 expr)
        assert (code, out) == (2, "")
        assert msg in err


def test_oracle_small_modulus_fails_fast(capsys):
    """A modulus too small for the dimension gives a model at once or exit
    2 with a message, never a long vector search."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--dim", "17", "--moduli", "3",
                             "--expr", "x1*x2 - q(1,2)^1*x2*x1", "--json")
    assert code == 0, err
    assert json.loads(out)["zero"] is True
    code, out, err = run_cli(capsys, "oracle", "--dim", "41", "--moduli", "3",
                             "--expr", "x1", "--json")
    assert (code, out) == (2, "")
    assert "modulus 3 is too small for 20 coordinates" in err
    assert time.perf_counter() - start < 10


def test_oracle_suite_reaches_default_moduli_at_d6(capsys):
    # the default models of D = 6 (sides 169 and 289)
    code, out, err = run_cli(capsys, "suite", "run", "oracle", "--dim", "6",
                             "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["cases"] == 8
    assert payload["failures"] == []


def test_profile_flag_writes_loadable_stats(capsys, tmp_path):
    for argv in (("suite", "run", "qphase"), ("charge", "--n", "1")):
        path = tmp_path / f"{argv[0]}.prof"
        code, _, _ = run_cli(capsys, *argv, "--profile", str(path))
        assert code == 0
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0


def test_suite_command_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "qphase", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["cases"] > 0
    assert set(payload) == {"suite", "cases", "failures", "seed",
                            "wall_time_s"}


def test_suite_run_all_reports_each_suite(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "suite", "run", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[:5] == ["suite", "cases", "failures", "seed",
                                 "wall_time_s"]
    per = payload["suites"]
    assert list(per) == [s for s in SUITE_NAMES if s != "all"]
    assert all(set(entry) == {"cases", "wall_time_s"} for entry in per.values())
    assert sum(entry["cases"] for entry in per.values()) == payload["cases"] == 846
    # the per-suite counts the benchmark gate holds each pass to
    assert {name: entry["cases"] for name, entry in per.items()} == {
        "qphase": 490, "ncalg": 105, "tensor": 123, "haar": 39, "sphere": 17,
        "hodge": 46, "chern": 18, "oracle": 8}
    # the text form lists the same breakdown; without wall times only the
    # case counts remain
    report = SuiteReport(suite="all", cases=3, seed=1, wall_time_s=0.5,
                         suites={"qphase": (2, 0.25), "ncalg": (1, 0.125)})
    assert _without_wall_times(report.to_dict())["suites"] == {
        "qphase": {"cases": 2}, "ncalg": {"cases": 1}}
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: report)
    code, out, _ = run_cli(capsys, "suite", "run", "all")
    assert code == 0
    assert out.splitlines()[1:] == ["  qphase: 2 cases (0.25s)",
                                    "  ncalg: 1 cases (0.12s)"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["suite", "run", "nosuch"])
    assert info.value.code == 2
    code, _, err = run_cli(capsys, "haar", "--dim", "5", "--expr", "x1*+")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "haar", "--dim", "5", "--expr", "dx1")
    assert code == 2  # wrong form degree is a usage error


@pytest.mark.parametrize("argv, message", [
    (("haar", "--dim", "5", "--expr", "x1*+"),
     "unexpected token '+' (at position 3)"),
    (("haar", "--dim", "5", "--expr", "dx1"),
     "the Haar functional is defined on functions only"),
    (("haar", "--dim", "7", "--expr", "x4^2", "--theta", "0.1,0.2"),
     "need 3 angles for dimension 7, got 2"),
    (("charge", "--n", "0"), "--n must be a positive integer"),
])
def test_usage_error_is_one_stderr_line(capsys, argv, message):
    # every usage error takes one path: one stderr line, nothing on stdout
    # and exit code 2
    assert run_cli(capsys, *argv) == (2, "", f"twistcalc: error: {message}\n")


def test_sample_counts_moduli_and_n_are_checked(capsys):
    """No samples, more samples than the tangent-basis cap, a modulus that
    cannot tell q from 1/q and a chern order below 1 exit 2 instead of
    answering."""
    x = "q(1,2)*x1 - q(1,2)^-1*x1"
    for argv, msg in (
            (("oracle", "--expr", "x1", "--points", "0", "--json"),
             "points must be at least 1, got 0"),
            (("oracle", "--expr", "x1", "--points", "-1"),
             "points must be at least 1, got -1"),
            (("oracle", "--expr", "x1", "--points", "2000000", "--json"),
             "2000000 points at D = 5 need 40000000 tangent basis entries"),
            (("oracle", "--expr", x, "--moduli", "2,2,2", "--json"),
             "modulus 2 cannot tell q from 1/q"),
            (("oracle", "--expr", "x1", "--moduli", "1,1,1"),
             "modulus 1 cannot tell q from 1/q")):
        code, out, err = run_cli(capsys, *argv[:1], "--dim", "5", *argv[1:])
        assert (code, out) == (2, ""), argv
        assert msg in err, argv
    code, out, _ = run_cli(capsys, "oracle", "--dim", "5", "--expr", x,
                           "--moduli", "3", "--json")
    assert code == 0 and json.loads(out)["zero"] is False
    for n in ("0", "-3"):
        code, _, err = run_cli(capsys, "suite", "run", "chern", "--n", n)
        assert code == 2
        assert f"n must be a positive integer, got {n}" in err
        with pytest.raises(ValueError, match="n must be a positive integer"):
            run_suite("chern", n=int(n))


@pytest.fixture(scope="module")
def all_run():
    return recorded_run("all", 5)


def test_run_all_suites_clean(all_run):
    report, _ = all_run
    assert report.failures == []
    assert {nm: cases for nm, (cases, _) in report.suites.items()} == {
        "qphase": 490, "ncalg": 105, "tensor": 123, "haar": 39, "sphere": 17,
        "hodge": 46, "chern": 18, "oracle": 8}


def test_case_labels_unique(all_run):
    # a failure record names its case, so no two cases may share a label
    for report, records in (all_run, recorded_run("haar", 3),
                            recorded_run("haar", 4)):
        labels = [label for _, label, _ in records]
        repeated = sorted(nm for nm, n in Counter(labels).items() if n > 1)
        assert len(labels) == report.cases and not repeated, repeated[:10]


def _one_offs() -> list:
    """A pattern per one-off case label the ``suites`` docstring lists, each
    ``{placeholder}`` standing for a number."""
    listed = suites.__doc__.split("one-offs of ``r.case``:")[1]
    return [re.compile(re.sub(r"\\\{\w+\\\}", r"\\d+",
                              re.escape(" ".join(nm.split()))))
            for nm in re.findall(r"``(.+?)``", listed, re.S)]


def test_identities_are_declared_in_the_catalogue(all_run):
    """Every case outside the docstring's one-offs comes from a catalogue
    family through r.check, so an identity declared inline in a suite
    fails here; and every listed one-off is still run."""
    _, records = all_run
    patterns = _one_offs()
    unchecked = [label for _, label, checked in records if not checked]
    assert [label for label in unchecked
            if not any(p.fullmatch(label) for p in patterns)] == []
    assert all(any(map(p.fullmatch, unchecked)) for p in patterns)
    assert len(unchecked) == 33


def test_failure_record_carries_both_sides(monkeypatch):
    """A moved identity that fails reports its two sides, not 0/nonzero:
    here each sphere integral comes out one more than the one before."""
    values = []
    integrate = identities.integrate_form

    def drifting(form):
        values.append(integrate(form) + form.ctx.scalar(len(values)))
        return values[-1]

    monkeypatch.setattr(identities, "integrate_form", drifting)
    report = run_suite("sphere", dim=5, seed=42)
    failure = next(f for f in report.failures
                   if f["expression"] == "integral[a w] = integral[w a]")
    # got = integral[a w] + k and expected = integral[w a] + k + 1, both in
    # the expression grammar
    ctx = DeformationContext(5)
    got, expected = (parse_expr(ctx, failure[k]) for k in ("got", "expected"))
    assert any(got == Element.from_scalar(ctx, lhs)
               and expected == Element.from_scalar(ctx, rhs)
               for lhs, rhs in zip(values, values[1:]))


# sha256 of the sorted (suite, label) lines of run_suite("all", dim, seed=42);
# a case renamed, dropped or added changes it
LABELS_SHA256 = {
    5: (846,
        "2657bbfb890f15c15da6b7a16562d7ab6a0678003f5b17f8adb79a1a615b3116"),
    6: (854,
        "93b72a457e29b192f64aaeb63e8baedf32e229401027d3c40c10592f2a59aba2"),
    7: (864,
        "f1bdcbf4e5188f7b70f6fb84e5785e90f01a1f90ff322803002a75ab75b6b108"),
}


@pytest.mark.parametrize("dim", sorted(LABELS_SHA256))
def test_case_labels_golden(dim, all_run):
    report, records = all_run if dim == 5 else recorded_run("all", dim)
    assert report.failures == []
    assert (report.cases, label_digest(records)) == LABELS_SHA256[dim]


# one monomial under four phases, which print in order of their exponents
_PHASES_OF_X1 = "q(1,3)^2*q(1,2)*x1 + x1 + q(2,3)*x1 + q(1,2)^-1*x1"

# run in a fresh interpreter: the suites at D = 5 and 7, the sphere Hodge
# stars of the basis 2-forms at D = 7 and _PHASES_OF_X1, with frozenset keys
_SWAPPED_KEYS = """
import json
from itertools import combinations

import frozenset_keys
rebound = frozenset_keys.install()
from helpers import basis_form, label_digest, recorded_run
from twistcalc import DeformationContext
from twistcalc.exprio import format_element, parse_expr
from twistcalc.sphere import hodge_sphere

out = {"rebound": rebound, "runs": {}}
for dim in (5, 7):
    report, records = recorded_run("all", dim)
    out["runs"][dim] = [report.to_dict(), label_digest(records)]
ctx = DeformationContext(7)
out["printed"] = []
for el in [hodge_sphere(basis_form(ctx, u)) for u in combinations(
        range(1, 8), 2)] + [parse_expr(ctx, PHASES)]:
    assert el and all(type(k) is frozenset for _, k in el.terms), el
    text = format_element(el)
    assert parse_expr(ctx, text) == el, text
    out["printed"].append(text)
print(json.dumps(out))
"""


def test_phase_key_encoding_lives_in_qphase(all_run):
    # only qphase knows the form of a phase key: with frozenset keys swapped
    # in for its tuples, every module computes the same values, so the
    # suites run the same cases under the same labels, and the Hodge stars
    # print the same text, which parses back
    src = Path(twistcalc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)])}
    script = f"PHASES = {_PHASES_OF_X1!r}\n" + _SWAPPED_KEYS
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {f"twistcalc.qphase.{name}" for name in
            frozenset_keys.KEY_FUNCTIONS} <= set(out["rebound"])
    for dim in (5, 7):
        report, digest = out["runs"][str(dim)]
        assert report["failures"] == []
        assert (report["cases"], digest) == LABELS_SHA256[dim]
    assert _without_wall_times(out["runs"]["5"][0]) == \
        _without_wall_times(all_run[0].to_dict())
    ctx = DeformationContext(7)
    assert out["printed"] == [format_element(hodge_sphere(basis_form(ctx, u)))
                              for u in combinations(range(1, 8), 2)] + [
        "q(1,2)^-1*x1 + x1 + q(2,3)^1*x1 + q(1,2)^1*q(1,3)^2*x1"]


def test_suite_size_limits_refused_before_any_work(capsys, monkeypatch):
    # the hodge suite at D = 11 and the chern suite at n = 7 take half a
    # minute or more; no suite starts
    monkeypatch.setattr(suites, "_SUITES", {})
    start = time.perf_counter()
    for argv, msg in (
            (("hodge", "--dim", "11"), "dim = 11 exceeds the limit 10"),
            (("chern", "--n", "7"), "n = 7 exceeds the limit 6"),
            # the sphere suites and the oracle suite start at D = 2, the
            # others at D = 1
            (("oracle", "--dim", "1"),
             "dim = 1 is below the lowest dimension 2 of suite 'oracle'"),
            (("all", "--dim", "1"),
             "dim = 1 is below the lowest dimension 2 of suite 'all'"),
            (("qphase", "--dim", "0"),
             "dim = 0 is below the lowest dimension 1 of suite 'qphase'")):
        code, out, err = run_cli(capsys, "suite", "run", *argv)
        assert (code, out) == (2, "")
        assert msg in err
    with pytest.raises(ValueError, match="exceeds the limit"):
        run_suite("all", dim=suites.MAX_DIM + 1)
    for name in ("all", "sphere", "hodge"):
        with pytest.raises(ValueError, match="below the lowest dimension 2"):
            run_suite(name, dim=1)
    assert time.perf_counter() - start < 1


def test_reports_deterministic_for_fixed_seed():
    a = _without_wall_times(run_suite("haar", dim=4, seed=123).to_dict())
    b = _without_wall_times(run_suite("haar", dim=4, seed=123).to_dict())
    assert a == b
    c = _without_wall_times(run_suite("oracle", dim=4, seed=7).to_dict())
    d = _without_wall_times(run_suite("oracle", dim=4, seed=7).to_dict())
    assert c == d


def test_failing_numeric_case_records_its_measurement(monkeypatch):
    """A one-off numeric case that fails reports the sup it measured and
    the bound it missed: here every plane sup of the oracle suite reads
    0.25, so the two cases that want a zero sup fail."""
    monkeypatch.setattr(oracle.BatchChecker, "element_sup",
                        lambda self, el: 0.25)
    report = run_suite("oracle", dim=4, seed=42)
    failed = {f["expression"]: f for f in report.failures}
    assert set(failed) == {"defining relation vanishes in the model",
                           "check(0) = true"}
    for record in failed.values():
        assert float(record["got"]) == 0.25
        assert record["expected"] == f"< {oracle.DEFAULT_TOL!r}"


# README's command-line examples in their JSON form (hodge and integrate
# always print JSON), with the output they gave before the flat term store
_README_GOLDEN = (
    (["haar", "--dim", "5", "--expr", "x3^2", "--json"],
     '{"exact": "1/5", "numeric": {"re": 0.2, "im": 0.0}}'),
    (["integrate", "--sphere", "2", "--expr", "i*x3*dx1*dx2"],
     '{"exact": "1/3", "numeric": {"re": 0.3333333333333333, "im": 0.0},'
     ' "degree": 0}'),
    (["hodge", "--sphere", "4", "--expr", "dx1*dx2"],
     '{"exact": "x3*dx1*dx2 - q(1,2)^1*x2*dx1*dx3 + x1*dx2*dx3",'
     ' "numeric": null, "degree": 2}'),
    (["charge", "--n", "2", "--numeric-check", "--json"],
     '{"n": 2, "exact": "1", "is_one": true,'
     ' "numeric": {"re": 1.0, "im": 0.0}}'),
    (["oracle", "--dim", "5", "--moduli", "5,7", "--seed", "42", "--expr",
      "x1*x2 - q(1,2)^1*x2*x1", "--json"],
     '{"max_abs": 0.0, "zero": true, "seed": 42, "points": 20,'
     ' "mode": "plane"}'),
)


def _same_output(got, want) -> bool:
    """Equal JSON values with keys in the same order, floats to 12
    significant digits and everything else exactly."""
    if isinstance(want, float):
        return isinstance(got, float) and f"{got:.12g}" == f"{want:.12g}"
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(_same_output(got[k], v) for k, v in want.items()))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("argv, want", _README_GOLDEN,
                         ids=[argv[0] for argv, _ in _README_GOLDEN])
def test_readme_examples_keep_their_output(argv, want, capsys):
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert _same_output(json.loads(got), json.loads(want)), got
