"""Workload scopes and the coeff-mixed query pool, shared by run.py and worker.py.

Why these workloads:

- table-m1: branching_table(1, 7, 11), 15 rows x 181 lambdas.  One slot and
  no cyclotomic numbers: the degree-11 plethysm and the per-lambda Hall
  read-offs do the work, and each row's series is reused by 181 columns.
  It runs with jobs=2 (what ``wreathlitt table`` uses on 2 cores) and with
  jobs=1 as the single-process baseline; row costs are uneven, so the
  fan-out shows its imbalance.
- verify-m3: run_verification(3, 3, 5) then run_numeric_suite(3, 3, 4).
  Oracle paths A and B do almost all the work in exact Q(zeta_3)
  arithmetic, so a change to symfunc alone predicts no change here.
- coeff-mixed: one client in a closed loop sends independent
  branching_coefficient queries.  Each builds its own series truncated at
  |lambda|, so nothing is shared between queries; m >= 2 adds slot
  products and the latency tail is heavy.

The tiny scope runs the same code paths at sizes that finish in seconds; it
exists for smoke.py.
"""

from __future__ import annotations

import gzip
import random
from pathlib import Path

WORKLOADS = ("table-m1", "verify-m3", "coeff-mixed")

SCOPES = {
    "full": {
        "table": (1, 7, 11),
        # sha256 of BranchingTable.to_csv() at the seed commit.
        "table_sha256": "6d8e8eaff9a3d949fbb259cbaed74bd8194d789b2d5c01e9a8eb1f6766ff37b3",
        "verify": (3, 3, 5),
        "numeric": (3, 3, 4),
        "coeff": {"m": 4, "n": 6, "degree": 10},
    },
    "tiny": {
        "table": (1, 3, 5),
        "table_sha256": "a6cba1dba93bda907404d3f8ff86a45b4f22c8fcfbe068847d8d2afd9ad5d952",
        "verify": (2, 2, 3),
        "numeric": (2, 2, 2),
        "coeff": {"m": 2, "n": 3, "degree": 5},
    },
}

TABLE_JOBS = 2

POOL_PATH = Path(__file__).with_name("coeff_pool.tsv.gz")


def setup_degree(workload: str, scope: dict) -> int:
    """Largest character-table degree the workload needs before its timed part."""
    if workload == "table-m1":
        _, size, max_degree = scope["table"]
        return max(size, max_degree)
    if workload == "verify-m3":
        return max(scope["verify"][1:] + scope["numeric"][1:])
    return scope["coeff"]["degree"]


def load_pool(scope: dict) -> list[tuple[int, str, str, int]]:
    """Pool entries (m, rho, lambda, d) within the scope's caps, in file order."""
    caps = scope["coeff"]
    out = []
    with gzip.open(POOL_PATH, "rt", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            m, rho, lam, d = line.rstrip("\n").split("\t")
            size = sum(int(part) for part in lam.split(","))
            n = sum(int(part) for item in rho.split(";") for part in item.split(":")[1].split(","))
            if int(m) <= caps["m"] and n <= caps["n"] and size <= caps["degree"]:
                out.append((int(m), rho, lam, int(d)))
    return out


def query_order(pool_size: int, seed: int) -> list[int]:
    """The seeded order in which a run sends the pool's queries."""
    return random.Random(seed).sample(range(pool_size), pool_size)
