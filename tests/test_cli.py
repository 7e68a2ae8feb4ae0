import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wreathlitt import partitions
from wreathlitt.branching import branching_coefficient
from wreathlitt.cli import main
from wreathlitt.partitions import parse_partition
from wreathlitt.wreath import parse_label


def run_cli(args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "wreathlitt.cli", *args],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_coeff_examples(capsys):
    assert main(["coeff", "--m", "2", "--rho", "0:1", "--lambda", "2"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["coeff", "--m", "1", "--rho", "0:2", "--lambda", "2"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_coeff_hypothesis_violation(capsys):
    code = main(["coeff", "--m", "2", "--rho", "1:1", "--lambda", "1,1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "len(lambda) <= |rho|" in err


def test_usage_errors(capsys):
    assert main(["coeff", "--m", "2", "--rho", "0:1"]) == 1  # missing --lambda
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main(["coeff", "--m", "2", "--rho", "0:x", "--lambda", "1"]) == 1
    capsys.readouterr()


def test_table_csv_shape(capsys):
    assert main(["table", "--m", "2", "--n", "2", "--max-deg", "2", "--format", "csv", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rho", "lambda", "d"]
    assert len(rows) == 1 + 20  # 5 labels x partitions [], (1), (2), (1,1)


def test_table_json_round_trip(capsys):
    assert main(["table", "--m", "2", "--n", "2", "--max-deg", "2", "--format", "json", "--jobs", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 2 and obj["n"] == 2 and obj["max_degree"] == 2
    for cell in obj["cells"]:
        rho = parse_label(cell["rho"], obj["m"])
        lam = parse_partition(cell["lambda"])
        assert branching_coefficient(rho, lam) == cell["d"]


def test_table_matches_oracle(capsys):
    from wreathlitt.oracle import branching_by_pairing

    assert main(["table", "--m", "1", "--n", "3", "--max-deg", "4", "--format", "json", "--jobs", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    for cell in obj["cells"]:
        rho = parse_label(cell["rho"], 1)
        lam = parse_partition(cell["lambda"])
        assert branching_by_pairing(rho, lam) == cell["d"]


def test_verify_and_identities_exit_codes(capsys):
    assert main(["verify", "--m", "2", "--n", "2", "--max-deg", "3"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert main(["identities", "--m", "2", "--dx", "2", "--dy", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert main(["identities", "--m", "1", "--dx", "0", "--dy", "0"]) == 0
    capsys.readouterr()


def test_verify_fault_injection_exits_2(capsys, monkeypatch):
    true_character = partitions.symmetric_group_character

    def corrupted(lam, mu):
        value = true_character(lam, mu)
        if lam == (2, 1) and mu == (3,):
            return value + 1
        return value

    monkeypatch.setattr(partitions, "symmetric_group_character", corrupted)
    code = main(["verify", "--m", "1", "--n", "3", "--max-deg", "3", "--format", "json"])
    assert code == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is False
    failing = [c for c in obj["checks"] if not c["passed"]][0]
    assert "rho" in failing["counterexample"] and "lambda" in failing["counterexample"]


def test_coeff_dump_writes_series_json(tmp_path, capsys):
    dump = tmp_path / "series.json"
    assert main(["coeff", "--m", "2", "--rho", "0:1", "--lambda", "2", "--dump", str(dump)]) == 0
    capsys.readouterr()
    payload = json.loads(dump.read_text())
    assert payload["rho"] == "0:1"
    series = payload["series"]
    assert series["basis"] in ("p", "h", "s")
    assert all(set(entry) == {"partition", "coeff"} for entry in series["terms"])


def test_verify_dump_covers_all_labels(tmp_path, capsys):
    dump = tmp_path / "all.json"
    assert main(["verify", "--m", "2", "--n", "2", "--max-deg", "2", "--dump", str(dump)]) == 0
    capsys.readouterr()
    payload = json.loads(dump.read_text())
    assert len(payload) == 5


def test_byte_determinism_across_jobs():
    base = ["table", "--m", "2", "--n", "2", "--max-deg", "3", "--format", "csv"]
    code1, out1, _ = run_cli([*base, "--jobs", "1"])
    code8, out8, _ = run_cli([*base, "--jobs", "8"])
    assert code1 == code8 == 0
    assert out1 == out8
    code1b, out1b, _ = run_cli([*base, "--jobs", "1"])
    assert out1 == out1b


def test_cache_round_trip(tmp_path):
    import os

    env = dict(os.environ, WREATHLITT_CACHE_DIR=str(tmp_path / "cache"))
    args = ["table", "--m", "1", "--n", "3", "--max-deg", "3", "--format", "csv", "--jobs", "1"]
    code, cold, _ = run_cli(args, env=env)
    assert code == 0
    files = sorted(p.name for p in (tmp_path / "cache").glob("*.json"))
    assert files, "cache files were not written"
    code, warm, _ = run_cli(args, env=env)
    assert code == 0 and warm == cold
    # deleting the cache never changes output
    for p in (tmp_path / "cache").glob("*.json"):
        p.unlink()
    code, fresh, _ = run_cli(args, env=env)
    assert code == 0 and fresh == cold
    # corrupt cache files are ignored, not trusted
    bad = tmp_path / "cache" / "char_table_3.json"
    bad.write_text("{\"not\": \"a table\"}")
    code, after, _ = run_cli(args, env=env)
    assert code == 0 and after == cold


def test_cache_flag_used_when_env_absent(tmp_path):
    import os

    env = {k: v for k, v in os.environ.items() if k != "WREATHLITT_CACHE_DIR"}
    cache = tmp_path / "flagged"
    args = [
        "coeff", "--m", "1", "--rho", "0:2", "--lambda", "1",
        "--cache-dir", str(cache),
    ]
    code, out, _ = run_cli(args, env=env)
    assert code == 0 and out == b"1\n"
    assert list(cache.glob("char_table_*.json"))


DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["coeff", "--m", "0", "--rho", "0:1", "--lambda", "1"], "--m"),
        (["coeff", "--m", "-1", "--rho", "0:1", "--lambda", "1"], "--m"),
        (["table", "--m", "2", "--n", "0", "--max-deg", "2"], "--n"),
        (["table", "--m", "2", "--n", "2", "--max-deg", "2", "--jobs", "0"], "--jobs"),
        (["table", "--m", "2", "--n", "2", "--max-deg", "-1"], "--max-deg"),
        (["verify", "--m", "2", "--n", "2", "--max-deg", "-1"], "--max-deg"),
        (["identities", "--m", "2", "--dx", "-1", "--dy", "2"], "--dx"),
    ],
)
def test_out_of_range_flags_exit_1_with_one_line(args, flag, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and f"argument {flag}: must be >=" in lines[0], captured.err


def test_coeff_m_zero_has_no_traceback():
    code, out, err = run_cli(["coeff", "--m", "0", "--rho", "0:1", "--lambda", "1"])
    assert code == 1 and out == b"" and b"Traceback" not in err


@pytest.mark.parametrize("error", ["NonIntegralError", "NotRationalError", "ToleranceExceededError"])
def test_arithmetic_errors_exit_2_with_json_line(error, capsys, monkeypatch):
    from wreathlitt import cli, exactnum, oracle, wreath

    cls = {
        "NonIntegralError": wreath.NonIntegralError,
        "NotRationalError": exactnum.NotRationalError,
        "ToleranceExceededError": oracle.ToleranceExceededError,
    }[error]
    detail = {"rho": "0:1", "lambda": "1", "numeric": "0.5", "exact": "1"}
    exc = cls(detail) if cls is oracle.ToleranceExceededError else cls("boom")

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "branching_table", failing)
    assert main(["table", "--m", "1", "--n", "1", "--max-deg", "1", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"command": "table", "error": error, "message": str(exc)}


def test_non_integral_read_off_exits_2(capsys, monkeypatch):
    table = partitions.character_table(3)
    monkeypatch.setitem(table, ((2, 1), (3,)), table[((2, 1), (3,))] + 1)
    assert main(["coeff", "--m", "1", "--rho", "0:2", "--lambda", "2,1"]) == 2
    failure = json.loads(capsys.readouterr().err)
    assert failure["error"] == "NonIntegralError" and "came out 4/3" in failure["message"]


@pytest.mark.parametrize(
    "m, rho, lam, value, golden",
    [
        ("1", "0:3,2,1", "4,2,1", "56", "coeff_dump_m1.json"),
        ("3", "0:2;1:1;2:1", "3,2,1", "1", "coeff_dump_m3.json"),
    ],
)
def test_coeff_dump_is_byte_identical_to_golden(m, rho, lam, value, golden, tmp_path, capsys):
    dump = tmp_path / "series.json"
    assert main(["coeff", "--m", m, "--rho", rho, "--lambda", lam, "--dump", str(dump)]) == 0
    assert capsys.readouterr().out == value + "\n"
    assert dump.read_bytes() == (DATA / golden).read_bytes()
