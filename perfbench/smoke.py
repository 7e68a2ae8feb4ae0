"""Smoke check of the benchmark harness, in well under a minute.

Runs every workload at the tiny scope, untraced and traced, and checks that
each run passes its output checks and prints exactly the metrics that
BENCHMARK.json lists, with their units.  Then checks that run.py refuses to
run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scope", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ"
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], f"{workload} trace={trace}: metrics differ from BENCHMARK.json"
            print(f"ok  {workload:12s} trace={trace}  {result['attempted']} outputs checked")

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(bare.name, "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), "run.py ran without the program's sources"
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
