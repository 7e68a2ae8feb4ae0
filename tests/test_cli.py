import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert main(["table", "--m", "2", "--n", "2", "--max-deg", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rho", "lambda", "d"]
    assert len(rows) == 1 + 20  # 5 labels x partitions [], (1), (2), (1,1)


def test_table_json_round_trip(capsys):
    assert main(["table", "--m", "2", "--n", "2", "--max-deg", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 2 and obj["n"] == 2 and obj["max_degree"] == 2
    for cell in obj["cells"]:
        rho = parse_label(cell["rho"], obj["m"])
        lam = parse_partition(cell["lambda"])
        assert branching_coefficient(rho, lam) == cell["d"]


def test_table_matches_oracle(capsys):
    from wreathlitt.oracle import branching_by_pairing

    assert main(["table", "--m", "1", "--n", "3", "--max-deg", "4", "--format", "json"]) == 0
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
    assert series["basis"] == "p"
    assert all(set(entry) == {"partition", "coeff"} for entry in series["terms"])


def test_verify_dump_covers_all_labels(tmp_path, capsys):
    dump = tmp_path / "all.json"
    assert main(["verify", "--m", "2", "--n", "2", "--max-deg", "2", "--dump", str(dump)]) == 0
    capsys.readouterr()
    payload = json.loads(dump.read_text())
    assert len(payload) == 5


def test_byte_determinism_across_runs():
    args = ["table", "--m", "2", "--n", "2", "--max-deg", "3", "--format", "csv"]
    runs = [run_cli(args) for _ in range(3)]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0][1] == runs[1][1] == runs[2][1]


def test_removed_cache_flag_is_a_usage_error(tmp_path, capsys):
    cache = str(tmp_path / "X")
    assert main(["table", "--m", "1", "--n", "3", "--max-deg", "3", "--cache-dir", cache]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and f"unrecognized arguments: --cache-dir {cache}" in lines[0], captured.err


def test_removed_jobs_flag_is_a_usage_error(capsys):
    assert main(["table", "--m", "1", "--n", "3", "--max-deg", "3", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "unrecognized arguments: --jobs 1" in lines[0], captured.err


def test_cache_environment_variable_is_ignored(tmp_path):
    variable = "WREATHLITT_CACHE_DIR"
    args = ["table", "--m", "1", "--n", "3", "--max-deg", "3", "--format", "csv"]
    unset = {k: v for k, v in os.environ.items() if k != variable}
    code, plain, _ = run_cli(args, env=unset)
    assert code == 0
    code, with_var, _ = run_cli(args, env={**unset, variable: str(tmp_path / "c")})
    assert code == 0 and with_var == plain
    assert list(tmp_path.iterdir()) == []


DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["coeff", "--m", "0", "--rho", "0:1", "--lambda", "1"], "--m"),
        (["coeff", "--m", "-1", "--rho", "0:1", "--lambda", "1"], "--m"),
        (["table", "--m", "2", "--n", "0", "--max-deg", "2"], "--n"),
        (["table", "--m", "1000001", "--n", "1", "--max-deg", "0"], "--m"),
        (["table", "--m", "2", "--n", "2", "--max-deg", "-1"], "--max-deg"),
        (["verify", "--m", "2", "--n", "2", "--max-deg", "-1"], "--max-deg"),
        (["identities", "--m", "2", "--dx", "-1", "--dy", "2"], "--dx"),
        (["coeff", "--m", "99999999999999999999", "--rho", "0:1", "--lambda", "1"], "--m"),
        (["verify", "--m", "1000001", "--n", "1", "--max-deg", "0"], "--m"),
        (["table", "--m", "1", "--n", "1", "--max-deg", "100000000000"], "--max-deg"),
        (["table", "--m", "1", "--n", "21", "--max-deg", "2"], "--n"),
        (["verify", "--m", "1", "--n", "21", "--max-deg", "0"], "--n"),
        (["verify", "--m", "1", "--n", "1", "--max-deg", "21"], "--max-deg"),
        (["identities", "--m", "1", "--dx", "21", "--dy", "0"], "--dx"),
        (["identities", "--m", "1", "--dx", "0", "--dy", "21"], "--dy"),
        (["coeff", "--m", "2", "--rho", "0:1", "--lambda", "99999999999999999999"], "--lambda"),
        (["coeff", "--m", "2", "--rho", "0:21", "--lambda", "1"], "--rho"),
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


@pytest.mark.parametrize("error", ["NonIntegralError", "NotRationalError"])
def test_arithmetic_errors_exit_2_with_json_line(error, capsys, monkeypatch):
    from wreathlitt import cli, exactnum, wreath

    cls = {
        "NonIntegralError": wreath.NonIntegralError,
        "NotRationalError": exactnum.NotRationalError,
    }[error]
    exc = cls("boom")

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "branching_table", failing)
    assert main(["table", "--m", "1", "--n", "1", "--max-deg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"command": "table", "error": error, "message": str(exc)}


def test_non_integral_read_off_exits_2(capsys, monkeypatch):
    table = partitions.character_table(3)
    monkeypatch.setitem(table[(2, 1)], (3,), table[(2, 1)][(3,)] + 1)
    assert main(["coeff", "--m", "1", "--rho", "0:2", "--lambda", "2,1"]) == 2
    failure = json.loads(capsys.readouterr().err)
    assert failure["error"] == "NonIntegralError" and "came out 4/3" in failure["message"]


VERIFY_M3_REPORT = """m=3 n=3 max_degree=5
triple_agreement: PASS (352 cells)
dimension_sums: PASS (16 cells)
all checks passed
"""


@pytest.mark.parametrize(
    "args, out, golden",
    [
        pytest.param(
            ["coeff", "--m", "1", "--rho", "0:3,2,1", "--lambda", "4,2,1"], "56\n", "coeff_dump_m1.json",
            id="1-0:3,2,1-4,2,1-56-coeff_dump_m1.json",
        ),
        pytest.param(
            ["coeff", "--m", "3", "--rho", "0:2;1:1;2:1", "--lambda", "3,2,1"], "1\n", "coeff_dump_m3.json",
            id="3-0:2;1:1;2:1-3,2,1-1-coeff_dump_m3.json",
        ),
        # every label's series, multi-slot products included
        pytest.param(
            ["verify", "--m", "3", "--n", "3", "--max-deg", "5"], VERIFY_M3_REPORT, "verify_dump_m3_n3_d5.json",
            id="verify_dump_m3_n3_d5.json",
        ),
    ],
)
def test_coeff_dump_is_byte_identical_to_golden(args, out, golden, tmp_path, capsys):
    dump = tmp_path / "series.json"
    assert main([*args, "--dump", str(dump)]) == 0
    assert capsys.readouterr().out == out
    assert dump.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize(
    "args, golden",
    [
        (["verify", "--m", "3", "--n", "3", "--max-deg", "5"], "verify_m3_n3_d5.json"),
        (["verify", "--m", "4", "--n", "3", "--max-deg", "4"], "verify_m4_n3_d4.json"),
        (["verify", "--m", "6", "--n", "3", "--max-deg", "3"], "verify_m6_n3_d3.json"),
        (["verify", "--m", "1", "--n", "5", "--max-deg", "6"], "verify_m1_n5_d6.json"),
        (["verify", "--m", "5", "--n", "2", "--max-deg", "4"], "verify_m5_n2_d4.json"),
        (["verify", "--m", "1", "--n", "7", "--max-deg", "11"], "verify_m1_n7_d11.json"),
        (["verify", "--m", "2", "--n", "6", "--max-deg", "10"], "verify_m2_n6_d10.json"),
        (["verify", "--m", "150", "--n", "1", "--max-deg", "0"], "verify_m150_n1_d0.json"),
        (["verify", "--m", "12", "--n", "2", "--max-deg", "3"], "verify_m12_n2_d3.json"),
        (["verify", "--m", "3", "--n", "5", "--max-deg", "8"], "verify_m3_n5_d8.json"),
        (["verify", "--m", "4", "--n", "4", "--max-deg", "4"], "verify_m4_n4_d4.json"),
        (["identities", "--m", "3", "--dx", "3", "--dy", "4"], "identities_m3_dx3_dy4.json"),
        (["identities", "--m", "4", "--dx", "3", "--dy", "2"], "identities_m4_dx3_dy2.json"),
        (["identities", "--m", "6", "--dx", "3", "--dy", "3"], "identities_m6_dx3_dy3.json"),
        (["table", "--m", "3", "--n", "3", "--max-deg", "5"], "table_m3_n3_d5.json"),
    ],
    ids=[
        "verify",
        "verify-non-prime-order",
        "verify-non-prime-power-order",
        "verify-order-1",
        "verify-degree-4-field",
        "verify-table-scope",
        "verify-wider-scope",
        "verify-large-order",
        "verify-order-12",
        "verify-two-column-cells",
        "verify-inverse-classes",
        "identities",
        "identities-dx-above-dy",
        "identities-non-prime-power-order",
        "table",
    ],
)
def test_json_stdout_is_byte_identical_to_golden(args, golden, capsys):
    assert main([*args, "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def test_pretty_table_is_byte_identical_to_golden(capsys):
    assert main(["table", "--m", "3", "--n", "3", "--max-deg", "5", "--format", "pretty"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "table_m3_n3_d5.txt").read_bytes()


_ALL_PATHS_SCRIPT = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from wreathlitt import cli, oracle
assert oracle.run_verification(3, 3, 5).passed
assert oracle.run_numeric_suite(3, 3, 4).passed
assert oracle.run_identity_suite(3, 3, 4).passed
assert cli.main(["verify", "--m", "3", "--n", "3", "--max-deg", "5", "--format", "json"]) == 0
assert sys.modules.get("numpy") is None, "numpy was imported"
"""


@pytest.mark.parametrize("mode", ["blocked", "plain"])
def test_library_runs_without_numpy(mode):
    # Neither the library nor its tests need numpy: every path, path C
    # included, runs on the standard library, and a plain run never imports it.
    proc = subprocess.run([sys.executable, "-c", _ALL_PATHS_SCRIPT, mode], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / "verify_m3_n3_d5.json").read_bytes()


def test_table_at_a_large_order_exits_0():
    # label enumeration must not recurse once per slot
    code, out, err = run_cli(["table", "--m", "1100", "--n", "1", "--max-deg", "0"])
    assert code == 0 and b"Traceback" not in err
    assert [line.split() for line in out.splitlines()[1:]] == [[f"{j}:1".encode(), b"%d" % (j == 0)] for j in range(1100)]


TIMING_LINE = re.compile(r"timing (\w+): (\d+\.\d+)s")


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize(
    "args, names",
    [
        (["verify", "--m", "2", "--n", "2", "--max-deg", "2"], ["triple_agreement", "dimension_sums"]),
        (
            ["identities", "--m", "2", "--dx", "2", "--dy", "2"],
            [
                "kernel_identity",
                "restriction_formula",
                "alphabet_transform",
                "reproducing_kernel",
                "eigenvalue_substitution",
                "evaluation_kernel_agreement",
            ],
        ),
    ],
    ids=["verify", "identities"],
)
def test_timings_go_to_stderr_one_line_per_check(args, names, fmt, capsys):
    assert main([*args, "--format", fmt]) == 0
    captured = capsys.readouterr()
    timings = [TIMING_LINE.fullmatch(line) for line in captured.err.splitlines()]
    assert all(timings), captured.err
    assert [match.group(1) for match in timings] == names
    assert "timing" not in captured.out and "seconds" not in captured.out


BAD_DUMP_PATHS = {
    "missing parent": lambda tmp: str(tmp / "missing" / "x.json"),
    "directory": str,
    "empty": lambda tmp: "",
}


@pytest.mark.parametrize("where", sorted(BAD_DUMP_PATHS))
@pytest.mark.parametrize(
    "args",
    [
        ["coeff", "--m", "1", "--rho", "0:1", "--lambda", "1"],
        ["verify", "--m", "1", "--n", "2", "--max-deg", "2"],
    ],
    ids=["coeff", "verify"],
)
def test_unwritable_dump_exits_1_with_one_line(args, where, tmp_path, capsys):
    assert main([*args, "--dump", BAD_DUMP_PATHS[where](tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("where", sorted(BAD_DUMP_PATHS))
def test_verify_opens_dump_before_verifying(where, tmp_path, capsys, monkeypatch):
    from wreathlitt import oracle

    def never(*args):
        raise AssertionError("verification started before the --dump path was opened")

    monkeypatch.setattr(oracle, "run_verification", never)
    args = ["verify", "--m", "2", "--n", "4", "--max-deg", "4", "--dump", BAD_DUMP_PATHS[where](tmp_path)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


# verify and identities grow fast with their sizes, so theirs stay small and
# the whole run takes seconds.  Huge --m values are all rejected at parse
# time, except the largest accepted one on coeff, which stays fast there.
# Sizes and degrees above the cap are rejected at parse time as well.
_SMALL = st.integers(-2, 2).map(str)
_INT = st.integers(-2, 4).map(str)
_HUGE = st.sampled_from(["1000001", "99999999999999999999", "-99999999999999999999"])
_M = st.one_of(_INT, _HUGE)
_ABOVE_CAP = st.sampled_from(["21", "100000000000"])
_SMALL_OR_ABOVE = st.one_of(_SMALL, _ABOVE_CAP)
_INT_OR_ABOVE = st.one_of(_INT, _ABOVE_CAP)
_FLAGS = {
    "coeff": {
        "--m": st.one_of(_M, st.just("1000000")),
        "--rho": st.sampled_from(["0:1", "0:2,1", "0:1;1:1", "1:2", "3:1", "", "0:", ":1", "0:1;0:1", "x:1", "0:1,2", "0:-1", "2", "0:21"]),
        "--lambda": st.sampled_from(["1", "2,1", "3", "1,1,1", "", "[]", "1,2", "0", "-1", "a", "2,,1", "99999999999999999999"]),
    },
    "table": {
        "--m": _M,
        "--n": _INT_OR_ABOVE,
        "--max-deg": _INT_OR_ABOVE,
        "--format": st.sampled_from(["csv", "json", "pretty", "xml"]),
    },
    "verify": {"--m": _M, "--n": _SMALL_OR_ABOVE, "--max-deg": _SMALL_OR_ABOVE, "--format": st.sampled_from(["json", "pretty"])},
    "identities": {"--m": _M, "--dx": _SMALL_OR_ABOVE, "--dy": _SMALL_OR_ABOVE},
}


@st.composite
def _argv(draw, dump_dir):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 5)) > 0:
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        paths = [str(dump_dir / "dump.json"), *(bad(dump_dir) for bad in BAD_DUMP_PATHS.values())]
        argv += ["--dump", draw(st.sampled_from(paths))]
    return argv


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_cli_fuzz_exits_0_1_or_2(dump_dir):
    @settings(max_examples=300, deadline=None)
    @given(argv=_argv(dump_dir))
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)

    run()
