"""Benchmark of wreathlitt: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload table-m1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; it imports wreathlitt from ``src``.
Workloads are described in workloads.py.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` a separate traced run
reports the per-layer split (spans and counts recorded by layertrace.py
around each module's public functions) and the CLI's own wall time.

Set-up time is measured in fresh interpreters that import wreathlitt and
build the character tables the workload needs.  The workload itself runs in
worker.py, a fresh process whose peak RSS (and that of its children) is
reported.  Request latencies are scaled to a reference host speed by the
loop in hostloop.py, timed next to every request; each metric line also
shows the value as measured.  Outputs are checked here, outside every timed region, against
values recorded at the seed commit: the table's CSV digest and dimension
sums, the verification reports, and the coeff-mixed query pool.

Human-readable lines come first, with the environment, each metric's unit
and sample count, and the name the metric has in the workload's own terms.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from hostloop import REFERENCE_S, scaled
from workloads import POOL_PATH, SCOPES, TABLE_JOBS, WORKLOADS, load_pool, setup_degree

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 175  # every run must end within 180 s
SETUP_PROBES = 10
CLI_QUERIES = 5  # coeff-mixed queries also sent through the command line when traced

# name -> unit; the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "serial_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# What each generic metric is called in the terms of one workload.
ALIASES = {
    "table-m1": {
        "p50_ms": "table_s: one jobs=2 table",
        "tail_ms": "median jobs=2 table: too few tables for a tail",
        "serial_p50_ms": "table_serial_s: one jobs=1 table",
        "throughput_per_s": "jobs=2 tables per second",
    },
    "verify-m3": {
        "p50_ms": "verify_s: run_verification + run_numeric_suite",
        "tail_ms": "median verify pair: too few pairs for a tail",
        "serial_p50_ms": "verify_s (already one process)",
        "throughput_per_s": "verify pairs per second",
    },
    "coeff-mixed": {
        "p50_ms": "coeff_p50_ms",
        "tail_ms": "coeff_tail_ms",
        "serial_p50_ms": "coeff_p50_ms (already one process)",
        "throughput_per_s": "coeff_qps",
    },
}

SPANS = (
    "partitions.character_table",
    "symfunc.plethysm",
    "symfunc.product",
    "symfunc.readoff",
    "branching.series",
    "branching.row",
    "wreath.schur_at_eigenvalues",
    "wreath.frobenius_characteristic",
    "wreath.inner_product",
    "oracle.main",
    "oracle.path_a",
    "oracle.path_b",
    "oracle.path_c",
    "bench.request",
)
COUNTS = (
    "partitions.centralizer_order",
    "partitions.character",
    "exactnum.cyclotomic_mul",
    "exactnum.cyclotomic_add",
    "exactnum.to_rational",
)


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit; the order of BENCHMARK.json."""
    units = {}
    for span in SPANS:
        if span == "branching.row":
            units.update({"branching.row_s_sum": "s", "branching.row_s_max": "s", "branching.fanout_bound_s": "s"})
        else:
            units[f"{span}_s"] = "s"
        units[f"{span}_self_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update({f"{name}_calls": "count" for name in COUNTS})
    units.update({"symfunc.series_terms_max": "count", "symfunc.coeff_bits_max": "bits"})
    units.update({"cli.wall_s": "s", "cli.overhead_s": "s", "trace.overhead_frac": "ratio", "trace.uncovered_frac": "ratio"})
    return units


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ----------------------------------------------------------------------
# environment and processes
# ----------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "wreathlitt").glob("*.py"))),
    }


_SETUP_SNIPPET = (
    "import sys, wreathlitt\n"
    "wreathlitt.partitions.character_table(int(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


def setup_sample(degree: int) -> float:
    """Seconds from starting a fresh interpreter until wreathlitt is imported
    and the character tables up to degree are built."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_SNIPPET, str(degree)],
        stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise BenchError("set-up probe failed")
    return elapsed


def run_worker(args, deadline: float) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scope", args.scope,
    ]
    try:
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload process did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wreathlitt.cli", *argv],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=120,
    )
    return time.perf_counter() - start, proc


# ----------------------------------------------------------------------
# output checks, made outside every timed region
# ----------------------------------------------------------------------

def _hook_product(lam) -> int:
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    out = 1
    for i, row in enumerate(lam):
        for j in range(row):
            out *= (row - j) + (conj[j] - i) - 1
    return out


def _schur_at_ones(lam, n: int) -> int:
    """s_lambda(1^n) by the hook-content formula."""
    num = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
    return num // _hook_product(lam)


def _parse_parts(text: str) -> tuple[int, ...]:
    return () if text in ("", "[]") else tuple(int(part) for part in text.split(","))


def dimension_sums_hold(text: str, size: int) -> bool:
    """For an m = 1 table: sum over rho of d * dim(rho) equals s_lambda(1^n)
    for every lambda, with dim(rho) by the hook length formula."""
    weighted: dict[tuple[int, ...], int] = {}
    for row in csv.DictReader(io.StringIO(text)):
        slot, _, parts = row["rho"].partition(":")
        mu, lam = _parse_parts(parts), _parse_parts(row["lambda"])
        if slot != "0" or sum(mu) != size:
            return False
        dim = math.factorial(size) // _hook_product(mu)
        weighted[lam] = weighted.get(lam, 0) + int(row["d"]) * dim
    return bool(weighted) and all(total == _schur_at_ones(lam, size) for lam, total in weighted.items())


def check_table(raw: dict, scope: dict) -> tuple[int, int, list[str]]:
    size = scope["table"][1]
    good_csv = {digest: dimension_sums_hold(text, size) for digest, text in raw["csv"].items()}
    misses = []
    for table in raw["tables"]:
        if table["sha256"] != scope["table_sha256"]:
            misses.append(f"jobs={table['jobs']} table digest {table['sha256'][:12]} differs from the recorded one")
        elif not good_csv[table["sha256"]]:
            misses.append(f"jobs={table['jobs']} table fails the dimension sums")
    return len(raw["tables"]), len(misses), misses


def check_verify(raw: dict) -> tuple[int, int, list[str]]:
    misses = []
    for pair in raw["pairs"]:
        if not pair["verification"]["passed"]:
            misses.append("run_verification did not pass")
        if not pair["numeric_passed"]:
            misses.append("run_numeric_suite did not pass")
    return 2 * len(raw["pairs"]), len(misses), misses


def check_coeff(raw: dict, pool: list) -> tuple[int, int, list[str]]:
    answers = raw["queries"] + raw["traced_queries"]
    misses = []
    for query in answers:
        m, rho, lam, expected = pool[query["index"]]
        if query["answer"] != expected:
            detail = query.get("error") or f"got {query['answer']}"
            misses.append(f"coeff m={m} rho={rho} lambda={lam}: expected {expected}, {detail}")
    return len(answers), len(misses), misses


def cli_check(workload: str, raw: dict, scope: dict, pool: list | None) -> tuple[float, float, int, list[str]]:
    """Run the workload's work through the command line; return its wall
    time, the library's time for the same work, outputs made and misses."""
    if workload == "table-m1":
        order, size, max_degree = scope["table"]
        wall, proc = run_cli(["table", "--m", str(order), "--n", str(size), "--max-deg", str(max_degree), "--format", "csv"])
        library_csv = raw["csv"][raw["tables"][-1]["sha256"]]
        ok = proc.returncode == 0 and proc.stdout == library_csv
        return wall, raw["library_s"], 1, [] if ok else ["CLI table stdout differs from the library CSV"]
    if workload == "verify-m3":
        order, n, max_degree = scope["verify"]
        wall, proc = run_cli(["verify", "--m", str(order), "--n", str(n), "--max-deg", str(max_degree), "--format", "json"])
        ok = proc.returncode == 0 and json.loads(proc.stdout) == raw["pairs"][0]["verification"]
        return wall, raw["library_s"], 1, [] if ok else ["CLI verify report differs from the library report"]
    wall = library = 0.0
    misses = []
    timed = [q for q in raw["queries"] if q["seconds"] is not None][:CLI_QUERIES]
    for query in timed:
        m, rho, lam, expected = pool[query["index"]]
        elapsed, proc = run_cli(["coeff", "--m", str(m), "--rho", rho, "--lambda", lam])
        wall += elapsed
        library += query["seconds"]
        if proc.returncode != 0 or proc.stdout.strip() != str(expected):
            misses.append(f"CLI coeff m={m} rho={rho} lambda={lam} printed {proc.stdout.strip()!r}")
    return wall, library, len(timed), misses


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[str, float, int]:
    """The highest of p99, p90 and p50 with at least ten samples beyond it
    (nearest rank).  Fewer than 20 samples have no such percentile; the
    median stands in, since the maximum of a handful is mostly noise."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 90, 50):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return f"p{pct}", ordered[rank - 1], n - rank
    return "median", statistics.median(ordered), 0


def latencies(workload: str, raw: dict, scale: bool = True) -> tuple[list[float], list[float]]:
    """Request latencies in seconds at the reference host speed (or as
    measured): at the default parallelism, and in one process."""
    if workload == "table-m1":
        requests = [t for t in raw["tables"] if t["jobs"] == TABLE_JOBS]
        serial = [t for t in raw["tables"] if t["jobs"] == 1]
    elif workload == "verify-m3":
        requests = serial = raw["pairs"]
    else:
        requests = serial = [q for q in raw["queries"] if q["seconds"] is not None]

    def seconds(items):
        return [scaled(r["seconds"], r["host_s"]) if scale else r["seconds"] for r in items]

    return seconds(requests), seconds(serial)


def end_to_end(workload: str, raw: dict, setup: list[float]) -> tuple[dict, dict, list[str]]:
    default, serial = latencies(workload, raw)
    if not default:
        raise BenchError("no request completed")
    raw_default, raw_serial = latencies(workload, raw, scale=False)
    which, tail_s, beyond = tail(default)
    values = {
        "setup_s": statistics.median(setup),
        "p50_ms": 1000 * statistics.median(default),
        "tail_ms": 1000 * tail_s,
        "serial_p50_ms": 1000 * statistics.median(serial),
        "throughput_per_s": len(default) / sum(default),
        "peak_rss_mb": max(raw["rss_kb"]["self"], raw["rss_kb"]["children"]) / 1024,
    }
    samples = {
        "setup_s": f"{len(setup)} fresh processes",
        "p50_ms": f"{len(default)} requests; {1000 * statistics.median(raw_default):.4g} as measured",
        "tail_ms": f"{which} of {len(default)} requests" + (f", {beyond} beyond" if beyond else ""),
        "serial_p50_ms": f"{len(serial)} requests; {1000 * statistics.median(raw_serial):.4g} as measured",
        "throughput_per_s": f"{len(default)} requests; {len(raw_default) / sum(raw_default):.4g} as measured",
        "peak_rss_mb": "workload process and its children",
    }
    notes = []
    if workload == "coeff-mixed" and len(raw["queries"]) > raw["pool_size"]:
        notes.append(f"note: the run used up the pool of {raw['pool_size']} queries and repeated it")
    return values, samples, notes


def per_layer(raw: dict, cli_wall: float, cli_library: float) -> dict:
    trace = raw["trace"]
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "durations": None}
    values = {}
    for name in SPANS:
        span = trace["spans"].get(name, empty)
        if name == "branching.row":
            rows = span["durations"] or []
            values["branching.row_s_sum"] = span["total"]
            values["branching.row_s_max"] = max(rows, default=0.0)
            values["branching.fanout_bound_s"] = max(max(rows, default=0.0), span["total"] / TABLE_JOBS)
        else:
            values[f"{name}_s"] = span["total"]
        values[f"{name}_self_s"] = span["self"]
        values[f"{name}_calls"] = span["calls"]
    for name in COUNTS:
        values[f"{name}_calls"] = trace["counts"].get(name, 0)
    values["symfunc.series_terms_max"] = trace["maxima"].get("symfunc.series_terms", 0)
    values["symfunc.coeff_bits_max"] = trace["maxima"].get("symfunc.coeff_bits", 0)
    values["cli.wall_s"] = cli_wall
    values["cli.overhead_s"] = cli_wall - cli_library
    values["trace.overhead_frac"] = raw["traced_s"] / raw["untraced_s"] - 1
    request = trace["spans"].get("bench.request", empty)
    values["trace.uncovered_frac"] = request["self"] / request["total"] if request["total"] else 0.0
    return values


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def run_one(args) -> int:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "wreathlitt" / "__init__.py").is_file():
        raise BenchError(f"no wreathlitt sources under {SRC.name}/; run from the root of a checkout")
    if not POOL_PATH.is_file():
        raise BenchError(f"missing {POOL_PATH.name}")
    scope = SCOPES[args.scope]
    env = environment(args.seed)

    # Set-up is sampled before and after the workload, so that the median
    # spans more than one phase of a host whose speed drifts.
    degree = setup_degree(args.workload, scope)
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_sample(degree)  # writes bytecode caches; not counted
    setup = [setup_sample(degree) for _ in range(probes)]
    raw = run_worker(args, deadline)
    setup += [setup_sample(degree) for _ in range(probes)]
    if raw.get("loops"):
        loops = [1000 * x for x in raw["loops"]]
        env["host_loop_ms"] = {"reference": 1000 * REFERENCE_S, "min": min(loops), "median": statistics.median(loops), "max": max(loops)}
    pool = load_pool(scope) if args.workload == "coeff-mixed" else None
    if args.workload == "table-m1":
        attempted, failed, misses = check_table(raw, scope)
    elif args.workload == "verify-m3":
        attempted, failed, misses = check_verify(raw)
    else:
        attempted, failed, misses = check_coeff(raw, pool)

    print(f"wreathlitt benchmark: workload {args.workload}, scope {args.scope}, seed {args.seed}, "
          f"{args.seconds} s, tracing {'on' if args.trace else 'off'}")
    print("env " + json.dumps(env))
    if args.trace:
        wall, library, made, cli_misses = cli_check(args.workload, raw, scope, pool)
        attempted += made
        failed += len(cli_misses)
        misses += cli_misses
        values = per_layer(raw, wall, library)
        units = per_layer_units()
        for name, value in values.items():
            print(f"  {name:40s} {value:>14.6g} {units[name]}")
    else:
        values, samples, notes = end_to_end(args.workload, raw, setup)
        units = END_TO_END
        aliases = ALIASES[args.workload]
        for name, value in values.items():
            print(f"  {name:18s} {value:>12.6g} {units[name]:5s} {samples[name]:42s} {aliases.get(name, '')}")
        for line in notes:
            print(line)
    print(f"  {'error_rate':18s} {failed / attempted if attempted else 1.0:>12.6g} ratio {failed} of {attempted} outputs wrong or failed")
    for line in misses[:20]:
        print("miss: " + line)
    print(f"run took {time.perf_counter() - started:.1f} s")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scope", args.scope]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark wreathlitt on one workload, or on all of them.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run instead")
    parser.add_argument("--scope", choices=sorted(SCOPES), default="full",
                        help="tiny: the same workloads at sizes that finish in seconds (smoke check)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
