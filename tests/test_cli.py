"""Command line surface: outputs, JSON schema, exit codes, determinism."""

import json
import pstats

import pytest

from twistcalc.cli import main
from twistcalc.suites import run_suite


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
    code, _, err = run_cli(capsys, "oracle", "--dim", "8", "--expr", "x1")
    assert code == 2
    assert "side 86822723" in err


def test_oracle_suite_reaches_default_moduli_at_d6(capsys):
    # side 13*17*19 = 4199: above the dense-view cap, so no dense matrix
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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["suite", "run", "nosuch"])
    assert info.value.code == 2
    code, _, err = run_cli(capsys, "haar", "--dim", "5", "--expr", "x1*+")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "haar", "--dim", "5", "--expr", "dx1")
    assert code == 2  # wrong form degree is a usage error


def test_run_all_suites_clean():
    report = run_suite("all", dim=5, seed=42)
    assert report.failures == []
    assert report.cases > 500


def test_reports_deterministic_for_fixed_seed():
    a = run_suite("haar", dim=4, seed=123).to_dict(include_wall_time=False)
    b = run_suite("haar", dim=4, seed=123).to_dict(include_wall_time=False)
    assert a == b
    c = run_suite("oracle", dim=4, seed=7).to_dict(include_wall_time=False)
    d = run_suite("oracle", dim=4, seed=7).to_dict(include_wall_time=False)
    assert c == d
