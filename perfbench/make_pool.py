"""Regenerate coeff_pool.tsv.gz, the query pool of the coeff-mixed workload.

The pool is a fixed sample of branching_coefficient(rho, lambda) queries,
each stored with the answer the seed commit computed for it.  A benchmark
run draws a seeded permutation of the pool, so answers are checked against
values recorded once rather than against the code under test.

Distribution: m uniform in 1..4, n uniform in 2..6, rho uniform among the
wreath labels of size n, |lambda| uniform in n..10, lambda uniform among the
partitions of that size with at most n rows.  Draws are independent, so
small groups, which have few distinct queries, repeat.  A seeded sample of
the answers is cross-checked against the character-average oracle (path B)
before the file is written.

    PYTHONPATH=src python3 perfbench/make_pool.py
"""

from __future__ import annotations

import gzip
import multiprocessing
import random

from workloads import POOL_PATH

from wreathlitt import (
    branching_by_character_average,
    branching_coefficient,
    format_label,
    format_partition,
    parse_label,
    parse_partition,
    partitions_of,
    wreath_class_labels,
)

POOL_SEED = 20260101
POOL_SIZE = 40000
CROSS_CHECKED = 600
JOBS = 2


def draw_queries(size: int, seed: int) -> list[tuple[int, str, str]]:
    rng = random.Random(seed)
    labels: dict[tuple[int, int], list] = {}  # (m, n) -> wreath labels
    shapes: dict[tuple[int, int], list] = {}  # (|lambda|, n) -> lambdas
    out = []
    for _ in range(size):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        if (m, n) not in labels:
            labels[m, n] = wreath_class_labels(n, m)
        rho = rng.choice(labels[m, n])
        k = rng.randint(n, 10)
        if (k, n) not in shapes:
            shapes[k, n] = [lam for lam in partitions_of(k) if len(lam) <= n]
        out.append((m, format_label(rho), format_partition(rng.choice(shapes[k, n]))))
    return out


def _answer(query: tuple[int, str, str]) -> int:
    m, rho, lam = query
    return branching_coefficient(parse_label(rho, m), parse_partition(lam))


def _path_b(query: tuple[int, str, str]) -> int:
    m, rho, lam = query
    return branching_by_character_average(parse_label(rho, m), parse_partition(lam))


def main() -> None:
    queries = draw_queries(POOL_SIZE, POOL_SEED)
    distinct = sorted(set(queries))
    checked = random.Random(POOL_SEED + 1).sample(distinct, min(CROSS_CHECKED, len(distinct)))
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        answer = dict(zip(distinct, pool.map(_answer, distinct, chunksize=64)))
        oracle = pool.map(_path_b, checked, chunksize=8)
    for query, value in zip(checked, oracle):
        if answer[query] != value:
            raise SystemExit(f"path B disagrees at {query}: {answer[query]} != {value}")
    answers = [answer[query] for query in queries]
    with gzip.open(POOL_PATH, "wt", encoding="ascii", newline="\n") as fh:
        fh.write("# m\trho\tlambda\td\n")
        for (m, rho, lam), d in zip(queries, answers):
            fh.write(f"{m}\t{rho}\t{lam}\t{d}\n")
    print(
        f"wrote {len(queries)} queries ({len(distinct)} distinct) to {POOL_PATH.name}; "
        f"{len(checked)} checked against path B"
    )


if __name__ == "__main__":
    main()
