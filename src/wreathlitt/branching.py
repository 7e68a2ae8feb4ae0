"""Branching multiplicities from GL_n down to the wreath product subgroup.

The multiplicity of the irreducible labelled rho inside the restriction of
the highest-weight representation V^lambda is the Schur coefficient of a
product of plethysms: one factor per slot j, substituting the arithmetic-
progression alphabet h_j + h_{j+m} + h_{j+2m} + ... into the slot's Schur
function (the j = 0 alphabet includes the constant 1).  Everything on this
path is exact: the symfunc kernel works on integer z-scaled power-sum
coefficients, and the read-off is one integer division per cell.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction

from . import partitions

# hall_inner_product and to_rational are not called here but stay bound:
# perfbench/layertrace.py patches both by name in this module.
from .exactnum import common_denominator, to_rational  # noqa: F401
from .partitions import Partition, format_partition
from .symfunc import SymSeries, constant, hall_inner_product, plethysm, s_basis  # noqa: F401
from .wreath import NonIntegralError, WreathLabel, format_label, wreath_class_labels

__all__ = [
    "BranchingTable",
    "HypothesisViolationError",
    "branching_coefficient",
    "branching_series",
    "branching_table",
    "coefficient_and_series",
    "littlewood_coefficient",
]


class HypothesisViolationError(ValueError):
    """lambda has more rows than the wreath label has boxes."""


def _progression_alphabet(order: int, j: int, max_degree: int) -> SymSeries:
    # h_j + h_{j+m} + ... up to max_degree; for j = 0 the k = 0 term is h_0 = 1.
    # Integer coefficients keep the whole plethysm in integer arithmetic.
    terms = {(k,) if k else (): 1 for k in range(j, max_degree + 1, order)}
    return SymSeries("h", terms, max_degree)


def branching_series(rho: WreathLabel, max_degree: int) -> SymSeries:
    """The generating series whose Schur coefficients are the multiplicities
    d(rho, lambda), truncated by total degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    result = None
    for j, part in enumerate(rho.parts):
        if not part:
            continue
        alphabet = _progression_alphabet(rho.order, j, max_degree)
        factor = plethysm(s_basis(part, 1), alphabet, max_degree)
        result = factor if result is None else result * factor
        if result.is_zero():
            break
    return constant(Fraction(1), truncation=max_degree) if result is None else result


def _coefficients_from_series(series: SymSeries, lambdas) -> list[int]:
    """<f, s_lam> = sum over nu of [p_nu] f * chi^lam(nu) for a row of lambdas:
    one exact integer division each, over the coefficients' common denominator."""
    numerators, den = common_denominator(series.terms)
    by_degree: dict[int, list] = {}
    for nu, a in numerators.items():
        by_degree.setdefault(sum(nu), []).append((nu, a))
    row = []
    for lam in lambdas:
        chi = partitions.character_table(sum(lam))
        total = sum(a * chi[(lam, nu)] for nu, a in by_degree.get(sum(lam), ()))
        value, rem = divmod(total, den)
        if rem or value < 0:
            exact = Fraction(total, den)
            raise NonIntegralError(f"multiplicity at {format_partition(lam)} came out {exact}")
        row.append(value)
    return row


def coefficient_and_series(rho: WreathLabel, lam: Partition) -> tuple[int, SymSeries]:
    """The multiplicity d(rho, lam) and the generating series it was read from."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}")
    series = branching_series(rho, sum(lam))
    return _coefficients_from_series(series, [lam])[0], series


def branching_coefficient(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity of the irreducible labelled rho in the restriction of
    the highest-weight representation indexed by lam."""
    return coefficient_and_series(rho, lam)[0]


def littlewood_coefficient(mu: Partition, lam: Partition, n: int) -> int:
    """The classical m = 1 case: multiplicity of the Specht module mu in the
    restriction of V^lambda from GL_n to the symmetric group."""
    if sum(mu) != n:
        raise ValueError(f"|mu| = {sum(mu)} must equal n = {n}")
    return branching_coefficient(WreathLabel(1, (tuple(mu),)), lam)


@dataclass
class BranchingTable:
    """All multiplicities for a fixed group and degree bound, with fixed
    row (label) and column (partition) orders for reproducible output."""

    order: int
    size: int
    max_degree: int
    labels: list[WreathLabel]
    lambdas: list[Partition]
    cells: dict[tuple[WreathLabel, Partition], int] = field(repr=False)

    def value(self, rho: WreathLabel, lam: Partition) -> int:
        return self.cells[(rho, lam)]

    def rows(self):
        for rho in self.labels:
            for lam in self.lambdas:
                yield rho, lam, self.cells[(rho, lam)]

    def to_json_obj(self) -> dict:
        return {
            "m": self.order,
            "n": self.size,
            "max_degree": self.max_degree,
            "cells": [
                {"rho": format_label(rho), "lambda": format_partition(lam), "d": d}
                for rho, lam, d in self.rows()
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rho", "lambda", "d"])
        for rho, lam, d in self.rows():
            writer.writerow([format_label(rho), format_partition(lam), d])
        return buf.getvalue()

    def to_pretty(self) -> str:
        headers = ["rho \\ lambda"] + [format_partition(lam) for lam in self.lambdas]
        body = [
            [format_label(rho) or "(empty)"]
            + [str(self.cells[(rho, lam)]) for lam in self.lambdas]
            for rho in self.labels
        ]
        widths = [
            max(len(row[i]) for row in [headers] + body) for i in range(len(headers))
        ]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in [headers] + body
        ]
        return "\n".join(lines) + "\n"


def _lambda_grid(size: int, max_degree: int) -> list[Partition]:
    return [
        lam
        for k in range(max_degree + 1)
        for lam in partitions.partitions_of(k)
        if len(lam) <= size
    ]


def _table_row(args) -> list[int]:
    order, parts, max_degree, lambdas = args
    series = branching_series(WreathLabel(order, parts), max_degree)
    return _coefficients_from_series(series, lambdas)


def branching_table(
    order: int, size: int, max_degree: int, jobs: int | None = None
) -> BranchingTable:
    """Compute every multiplicity for labels of the given size and partitions
    of degree up to max_degree (with at most `size` rows).

    The generating series is computed once per label and reused across all
    columns; rows are independent, so any worker count yields identical
    results (rows are merged back in label order).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    labels = wreath_class_labels(size, order)
    lambdas = _lambda_grid(size, max_degree)
    # Warm the shared character cache before any fan-out.
    partitions.character_table(max(size, max_degree))
    tasks = [(order, rho.parts, max_degree, tuple(lambdas)) for rho in labels]
    if jobs is not None and jobs > 1 and len(labels) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(labels))) as pool:
            rows = list(pool.map(_table_row, tasks))
    else:
        rows = [_table_row(task) for task in tasks]
    cells = {
        (rho, lam): value
        for rho, row in zip(labels, rows)
        for lam, value in zip(lambdas, row)
    }
    return BranchingTable(order, size, max_degree, labels, lambdas, cells)
