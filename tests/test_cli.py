"""Command line surface: outputs, JSON schema, exit codes, determinism."""

import json
import pstats
import time
from collections import Counter

import pytest

from twistcalc import cli, suites
from twistcalc.cli import main
from twistcalc.suites import SUITE_NAMES, SuiteReport, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    code, out, err = run_cli(capsys, "charge", "--n", "40")
    assert (code, out) == (2, "")
    assert "n = 40 exceeds the limit 12" in err


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
    assert report.to_dict(include_wall_time=False)["suites"] == {
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


def test_sample_counts_moduli_and_n_are_checked(capsys):
    """No samples, a modulus that cannot tell q from 1/q and a chern order
    below 1 exit 2 instead of answering."""
    x = "q(1,2)*x1 - q(1,2)^-1*x1"
    for argv, msg in (
            (("oracle", "--expr", "x1", "--points", "0", "--json"),
             "points must be at least 1, got 0"),
            (("oracle", "--expr", "x1", "--points", "-1"),
             "points must be at least 1, got -1"),
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


def _recorded_run(name: str, dim: int):
    """run_suite(name, dim, seed=42) and the label of every case it ran."""
    labels = []
    case = suites._Runner.case

    def record(self, expression, *args, **kwargs):
        labels.append(expression)
        return case(self, expression, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites._Runner, "case", record)
        return run_suite(name, dim=dim, seed=42), labels


@pytest.fixture(scope="module")
def all_run():
    return _recorded_run("all", 5)


def test_run_all_suites_clean(all_run):
    report, _ = all_run
    assert report.failures == []
    assert {nm: cases for nm, (cases, _) in report.suites.items()} == {
        "qphase": 490, "ncalg": 105, "tensor": 123, "haar": 39, "sphere": 17,
        "hodge": 46, "chern": 18, "oracle": 8}


def test_case_labels_unique(all_run):
    # a failure record names its case, so no two cases may share a label
    for report, labels in (all_run, _recorded_run("haar", 3),
                           _recorded_run("haar", 4)):
        repeated = sorted(nm for nm, n in Counter(labels).items() if n > 1)
        assert len(labels) == report.cases and not repeated, repeated[:10]


def test_reports_deterministic_for_fixed_seed():
    a = run_suite("haar", dim=4, seed=123).to_dict(include_wall_time=False)
    b = run_suite("haar", dim=4, seed=123).to_dict(include_wall_time=False)
    assert a == b
    c = run_suite("oracle", dim=4, seed=7).to_dict(include_wall_time=False)
    d = run_suite("oracle", dim=4, seed=7).to_dict(include_wall_time=False)
    assert c == d
