"""The workload process: set up, run one workload, report raw results.

run.py starts this in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH.  It prints one JSON object as its only stdout line: raw latency
samples, the outputs run.py checks, peak RSS and, with --trace 1, the
aggregated spans.  Nothing here decides whether an output is correct.

    python3 perfbench/worker.py --workload table-m1 --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import time

from hostloop import loop_seconds
from layertrace import Tracer, install
from workloads import SCOPES, TABLE_JOBS, WORKLOADS, load_pool, query_order, setup_degree

import wreathlitt
from wreathlitt import partitions

CALIBRATE_EVERY_S = 1.0


def _elapsed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _request(tracer: Tracer | None, fn, *args, **kwargs):
    """Time one request; traced requests run inside the root span."""
    if tracer is None:
        return _elapsed(fn, *args, **kwargs)
    return _elapsed(tracer.timed, "bench.request", fn, *args, **kwargs)


def _bracketed(tracer: Tracer, fn, *args, **kwargs):
    """Run fn untraced, traced, then untraced again; the tracing overhead is
    measured against the mean of the two runs on either side of the traced
    one.  Returns the three (seconds, result) pairs."""
    tracer.uninstall()
    before = _elapsed(fn, *args, **kwargs)
    install(tracer)
    traced = _request(tracer, fn, *args, **kwargs)
    tracer.uninstall()
    after = _elapsed(fn, *args, **kwargs)
    return before, traced, after


def _table_output(jobs: int, seconds: float, table, csv_by_digest: dict) -> dict:
    text = table.to_csv()
    digest = hashlib.sha256(text.encode()).hexdigest()
    csv_by_digest.setdefault(digest, text)
    return {"jobs": jobs, "seconds": seconds, "sha256": digest}


def run_table(scope: dict, seconds: float, tracer: Tracer | None) -> dict:
    order, size, max_degree = scope["table"]
    csvs: dict[str, str] = {}
    outputs = []
    if tracer is None:
        loops = [loop_seconds()]
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            for jobs in (TABLE_JOBS, 1):
                elapsed, table = _elapsed(wreathlitt.branching_table, order, size, max_degree, jobs=jobs)
                loops.append(loop_seconds())
                outputs.append(_table_output(jobs, elapsed, table, csvs))
                outputs[-1]["host_s"] = (loops[-2] + loops[-1]) / 2
            now = time.perf_counter()
            if now - start + (now - pair_start) / 2 > seconds:
                break
        return {"tables": outputs, "csv": csvs, "loops": loops}
    runs = _bracketed(tracer, wreathlitt.branching_table, order, size, max_degree, jobs=1)
    outputs += [_table_output(1, elapsed, table, csvs) for elapsed, table in runs]
    elapsed, table = _elapsed(wreathlitt.branching_table, order, size, max_degree, jobs=TABLE_JOBS)
    outputs.append(_table_output(TABLE_JOBS, elapsed, table, csvs))
    return {
        "tables": outputs,
        "csv": csvs,
        "untraced_s": (runs[0][0] + runs[2][0]) / 2,
        "traced_s": runs[1][0],
        "library_s": elapsed,
    }


def _verify_pair(scope: dict) -> dict:
    start = time.perf_counter()
    report = wreathlitt.run_verification(*scope["verify"])
    middle = time.perf_counter()
    numeric = wreathlitt.run_numeric_suite(*scope["numeric"])
    end = time.perf_counter()
    return {
        "seconds": end - start,
        "verification_s": middle - start,
        "verification": report.to_json_obj(),
        "numeric_passed": numeric.passed,
    }


def run_verify(scope: dict, seconds: float, tracer: Tracer | None) -> dict:
    if tracer is None:
        pairs, loops = [], [loop_seconds()]
        start = time.perf_counter()
        while True:
            pairs.append(_verify_pair(scope))
            loops.append(loop_seconds())
            pairs[-1]["host_s"] = (loops[-2] + loops[-1]) / 2
            if time.perf_counter() - start + pairs[-1]["seconds"] / 2 > seconds:
                break
        return {"pairs": pairs, "loops": loops}
    runs = _bracketed(tracer, _verify_pair, scope)
    return {
        "pairs": [pair for _, pair in runs],
        "untraced_s": (runs[0][0] + runs[2][0]) / 2,
        "traced_s": runs[1][0],
        "library_s": runs[2][1]["verification_s"],
    }


def _ask(tracer: Tracer | None, index: int, entry) -> dict:
    """One pool query: its answer and latency, or the error it raised."""
    m, rho, lam, _ = entry
    rho, lam = wreathlitt.parse_label(rho, m), wreathlitt.parse_partition(lam)
    try:
        elapsed, answer = _request(tracer, wreathlitt.branching_coefficient, rho, lam)
    except Exception as exc:  # a failed query counts as wrong; the loop goes on
        return {"index": index, "answer": None, "seconds": None, "error": f"{type(exc).__name__}: {exc}"}
    return {"index": index, "answer": answer, "seconds": elapsed}


def run_coeff(scope: dict, seconds: float, seed: int, tracer: Tracer | None) -> dict:
    """Closed loop over the pool in the seeded order until the time is up.

    The host-speed loop runs about once a second; each query is charged the
    mean of the loop times on either side of it.  Traced, each query runs
    untraced and then traced, so that both halves of the overhead ratio see
    the same host speed."""
    pool = load_pool(scope)
    order = query_order(len(pool), seed)
    plain, traced, segment = [], [], []
    loops = [loop_seconds()]
    start = last_loop = time.perf_counter()
    for i in itertools.count():
        index = order[i % len(order)]
        if tracer is not None:
            tracer.uninstall()
        plain.append(_ask(None, index, pool[index]))
        segment.append(plain[-1])
        if tracer is not None:
            install(tracer)
            traced.append(_ask(tracer, index, pool[index]))
        now = time.perf_counter()
        done = now - start >= seconds
        if done or now - last_loop >= CALIBRATE_EVERY_S:
            if tracer is not None:
                tracer.uninstall()
            loops.append(loop_seconds())
            for query in segment:
                query["host_s"] = (loops[-2] + loops[-1]) / 2
            segment, last_loop = [], time.perf_counter()
        if done:
            break
    result = {"queries": plain, "traced_queries": traced, "pool_size": len(pool), "loops": loops}
    if tracer is not None:
        result["untraced_s"] = sum(q["seconds"] for q in plain if q["seconds"] is not None)
        result["traced_s"] = sum(q["seconds"] for q in traced if q["seconds"] is not None)
    return result


def _trace_summary(tracer: Tracer) -> dict:
    return {
        "spans": {
            name: {"calls": s.calls, "total": s.total, "self": s.self_time, "durations": s.durations}
            for name, s in tracer.stats.items()
        },
        "counts": dict(tracer.counts),
        "maxima": tracer.maxima,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scope", choices=sorted(SCOPES), default="full")
    args = parser.parse_args()
    scope = SCOPES[args.scope]

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    partitions.character_table(setup_degree(args.workload, scope))

    if args.workload == "table-m1":
        result = run_table(scope, args.seconds, tracer)
    elif args.workload == "verify-m3":
        result = run_verify(scope, args.seconds, tracer)
    else:
        result = run_coeff(scope, args.seconds, args.seed, tracer)

    if tracer is not None:
        tracer.uninstall()
        result["trace"] = _trace_summary(tracer)
    result["rss_kb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
