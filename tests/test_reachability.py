"""Every function in src/wreathlitt is entered by a CLI command or a benchmark
entry point, or is named in ALLOWLIST with the reason it stays.

A fresh interpreter runs the CLI matrix and the calls perfbench/worker.py
makes under sys.setprofile, and reports every code object it entered; each
`def` in the package, methods and nested functions included, is then found
by its def line or its first decorator line (CPython puts a decorated
function's first line at one or the other, by version).  So code that a
refactor leaves with no caller fails here, and so does an allowlisted name
that the matrix enters or that no longer exists.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import wreathlitt

PACKAGE = Path(wreathlitt.__file__).resolve().parent

_PATCHED = "bound because perfbench/layertrace.py patches it by name, and smoke.py runs --trace 1"
_FAILURE = "entered only when a check or a cell fails, to report it"

ALLOWLIST = {
    "symfunc.plethysm": _PATCHED,
    "wreath.wreath_inner_product": _PATCHED,
    "wreath.frobenius_characteristic": _PATCHED,
    "oracle.branching_by_pairing": _PATCHED,
    "oracle.branching_by_character_average": _PATCHED,
    "oracle.numeric_branching_estimate": _PATCHED,
    "oracle.VerificationReport.first_failure": _FAILURE,
    "oracle._numeric_detail": _FAILURE,
    "oracle._packed_multiplicity": _FAILURE,
    "exactnum.Cyclotomic.__repr__": _FAILURE,
    "exactnum.Cyclotomic.to_rational": _FAILURE,
    "symfunc.SymSeries.__repr__": _FAILURE,
    "wreath.WreathLabel.__repr__": _FAILURE,
    "wreath.WreathSeries.__repr__": _FAILURE,
}

# Runs in a fresh interpreter: in the test process, warm lru_caches and the
# character tables earlier tests built would skip function bodies.
_PROBE = """
import contextlib, io, json, os, sys, tempfile

sys.path.insert(0, sys.argv[1])
entered = {}


def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code


sys.setprofile(profile)
import wreathlitt
from wreathlitt import cli, partitions

with tempfile.TemporaryDirectory() as tmp:
    dump = os.path.join(tmp, "dump.json")
    commands = [
        ["coeff", "--m", "3", "--rho", "0:2;1:1;2:1", "--lambda", "3,2,1"],
        ["coeff", "--m", "1", "--rho", "0:3,2,1", "--lambda", "4,2,1", "--dump", dump],
        ["table", "--m", "3", "--n", "2", "--max-deg", "3", "--format", "json"],
        ["table", "--m", "3", "--n", "2", "--max-deg", "3", "--format", "csv"],
        ["table", "--m", "3", "--n", "2", "--max-deg", "3", "--format", "pretty"],
        ["verify", "--m", "1", "--n", "3", "--max-deg", "4"],
        ["verify", "--m", "3", "--n", "2", "--max-deg", "3", "--format", "json"],
        ["verify", "--m", "4", "--n", "2", "--max-deg", "3", "--dump", dump],
        ["identities", "--m", "2", "--dx", "2", "--dy", "2"],
        ["identities", "--m", "3", "--dx", "2", "--dy", "2", "--format", "json"],
        ["coeff", "--m", "0", "--rho", "0:1", "--lambda", "1"],
        ["coeff", "--m", "2", "--rho", "0", "--lambda", "1"],
        ["coeff", "--m", "2", "--rho", "1:1", "--lambda", "1,1"],
    ]
    codes = []
    for args in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(args))

# the calls perfbench/worker.py makes, at its tiny scope
partitions.character_table(5)
wreathlitt.branching_table(1, 3, 5, jobs=2)
wreathlitt.run_verification(2, 2, 3)
wreathlitt.run_numeric_suite(2, 2, 2)
wreathlitt.branching_coefficient(wreathlitt.parse_label("0:1;1:2", 2), wreathlitt.parse_partition("2,1"))
sys.setprofile(None)

package = os.path.dirname(os.path.realpath(wreathlitt.__file__))
lines = sorted(
    (path, code.co_firstlineno)
    for code in entered.values()
    if os.path.dirname(path := os.path.realpath(code.co_filename)) == package
)
print(json.dumps({"exit_codes": codes, "entered": lines}))
"""


def _defs(node, prefix: str, path: str):
    """(qualified name, its possible first-line keys) for every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                lines = [child.lineno] + [d.lineno for d in child.decorator_list[:1]]
                yield name, {(path, line) for line in lines}
            yield from _defs(child, name, path)
        else:
            yield from _defs(child, prefix, path)


def test_every_function_is_reached_or_allowlisted():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PACKAGE.parent)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["exit_codes"] == [0] * 10 + [1] * 3
    entered = {tuple(key) for key in probe["entered"]}
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, keys in _defs(ast.parse(path.read_text()), path.stem, str(path)):
            defs[name] = keys
    # only what perfbench patches or a failure report enters may stay unreached:
    # a reference the tests compare against lives in tests/bruteforce.py
    assert sorted(set(ALLOWLIST.values()) - {_PATCHED, _FAILURE}) == []
    unentered = {name for name, keys in defs.items() if not keys & entered}
    assert sorted(unentered - ALLOWLIST.keys()) == [], "no CLI command or benchmark entry point enters these"
    assert sorted(ALLOWLIST.keys() - unentered) == [], "allowlisted, but entered or gone: take them off ALLOWLIST"


def test_exports_resolve():
    # a module's __all__ names what it defines, and __init__ re-exports only those names
    modules = {
        path.stem: importlib.import_module(f"wreathlitt.{path.stem}")
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }
    for stem, module in modules.items():
        if not hasattr(module, "__all__"):
            continue
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], stem
        public = {
            name for name, value in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert sorted(public - set(module.__all__)) == [], f"{stem} defines public names outside its __all__"
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = modules[node.module].__all__
            assert [alias.name for alias in node.names if alias.name not in exported] == [], node.module
