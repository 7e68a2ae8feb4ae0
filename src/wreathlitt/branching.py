"""Branching multiplicities from GL_n down to the wreath product subgroup.

The multiplicity of the irreducible labelled rho inside the restriction of
the highest-weight representation V^lambda is the Schur coefficient of a
product of plethysms: one factor per slot j, substituting the arithmetic-
progression alphabet h_j + h_{j+m} + h_{j+2m} + ... into the slot's Schur
function (the j = 0 alphabet includes the constant 1).  Everything on this
path is exact: every series holds integer z-scaled power-sum coordinates
F_mu = <f, p_mu>, and the read-off is one integer division per cell.  Since
s_lam[A] = sum over mu of chi^lam(mu) / z_mu * p_mu[A] (Macdonald, ch. I 7-8),
one builder makes every series, for a table or for one label: it builds each
slot's products p_mu[A_j] once and each factor s_lam[A_j] once for all labels,
and multiplies a label's factors in slot order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from . import partitions

# hall_inner_product, plethysm and to_rational are not called here but stay
# bound: perfbench/layertrace.py patches each by name in this module.
from .exactnum import to_rational  # noqa: F401
from .partitions import Partition, format_partition
from .symfunc import SymSeries, constant, hall_inner_product, plethysm, plethysms, s_basis  # noqa: F401
from .wreath import NonIntegralError, WreathLabel, format_label, wreath_class_labels

__all__ = [
    "BranchingTable",
    "HypothesisViolationError",
    "branching_coefficient",
    "branching_series",
    "branching_table",
    "coefficient_and_series",
    "littlewood_coefficient",
    "table_series",
]


class HypothesisViolationError(ValueError):
    """lambda has more rows than the wreath label has boxes."""


def _progression_alphabet(order: int, j: int, max_degree: int) -> SymSeries:
    # h_j + h_{j+m} + ... up to max_degree; for j = 0 the k = 0 term is h_0 = 1.
    # Each h_k has F_mu = 1 at every mu of size k, so the plethysm stays in integers.
    shapes = (mu for k in range(j, max_degree + 1, order) for mu in partitions.partitions_of(k))
    return SymSeries(dict.fromkeys(shapes, 1), max_degree)


def branching_series(rho: WreathLabel, max_degree: int) -> SymSeries:
    """The generating series whose Schur coefficients are the multiplicities
    d(rho, lambda), truncated by total degree; the series builder run on rho."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    return next(_series(rho.order, [rho], max_degree))[1]


def _series(order: int, labels: list[WreathLabel], max_degree: int):
    """The series builder: (rho, branching_series(rho, max_degree)) for each
    of labels in turn, with every slot factor the labels use built once."""
    shapes: dict[int, dict] = {}
    for rho in labels:
        for j, part in rho.slots:
            shapes.setdefault(j, {})[part] = None
    factors = {}
    for j, slot in shapes.items():
        alphabet = _progression_alphabet(order, j, max_degree)
        built = plethysms([s_basis(part, 1) for part in slot], alphabet, max_degree)
        factors.update(zip([(j, part) for part in slot], built))
    for rho in labels:
        yield rho, _product(map(factors.__getitem__, rho.slots), max_degree)


def _product(factors, max_degree: int) -> SymSeries:
    result = None
    for factor in factors:
        result = factor if result is None else result * factor
        if not result:
            break
    return constant(1, truncation=max_degree) if result is None else result


def _character_rows(lambdas) -> list[list[int]]:
    # chi^lam(nu) in partitions_of(|lam|) order, read from the tables on each call.
    return [list(partitions.character_table(sum(lam))[lam].values()) for lam in lambdas]


def _reader(series: SymSeries):
    """The read-off of one series: (lam, chi) -> <f, s_lam> = sum over nu of
    F_nu * chi^lam(nu) / z_nu, with chi lam's character row.  The vector of
    F_nu * den / z_nu over den = lcm(z_nu) is built once per degree, and each
    cell is one integer dot and one exact integer division."""
    terms, vectors = series.terms, {}

    def read(lam: Partition, chi) -> int:
        k = sum(lam)
        if k not in vectors:
            shapes = partitions.partitions_of(k)
            den = lcm(*map(partitions.centralizer_order, shapes))
            vectors[k] = [terms.get(nu, 0) * (den // partitions.centralizer_order(nu)) for nu in shapes], den
        vector, den = vectors[k]
        total = sum(map(mul, chi, vector))
        value, rem = divmod(total, den)
        if rem or value < 0:
            exact = Fraction(total, den)
            raise NonIntegralError(f"multiplicity at {format_partition(lam)} came out {exact}")
        return value

    return read


def coefficient_and_series(rho: WreathLabel, lam: Partition) -> tuple[int, SymSeries]:
    """The multiplicity d(rho, lam) and the generating series it was read from."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}")
    series = branching_series(rho, sum(lam))
    (row,) = _character_rows([lam])
    return _reader(series)(lam, row), series


def branching_coefficient(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity of the irreducible labelled rho in the restriction of
    the highest-weight representation indexed by lam."""
    return coefficient_and_series(rho, lam)[0]


def littlewood_coefficient(mu: Partition, lam: Partition, n: int) -> int:
    """The classical m = 1 case: multiplicity of the Specht module mu in the
    restriction of V^lambda from GL_n to the symmetric group."""
    if sum(mu) != n:
        raise ValueError(f"|mu| = {sum(mu)} must equal n = {n}")
    return branching_coefficient(WreathLabel.from_mapping(1, {0: mu}), lam)


@dataclass
class BranchingTable:
    """All multiplicities for a fixed group and degree bound: rows[i][k] is
    d(labels[i], lambdas[k]), one row per label, with fixed label and
    partition orders for reproducible output."""

    order: int
    size: int
    max_degree: int
    labels: list[WreathLabel]
    lambdas: list[Partition]
    rows: list[list[int]] = field(repr=False)

    def to_json_obj(self) -> dict:
        return {
            "m": self.order,
            "n": self.size,
            "max_degree": self.max_degree,
            "cells": [
                {"rho": format_label(rho), "lambda": format_partition(lam), "d": d}
                for rho, row in zip(self.labels, self.rows)
                for lam, d in zip(self.lambdas, row)
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rho", "lambda", "d"])
        for rho, row in zip(self.labels, self.rows):
            writer.writerows([format_label(rho), format_partition(lam), d] for lam, d in zip(self.lambdas, row))
        return buf.getvalue()

    def to_pretty(self) -> str:
        headers = ["rho \\ lambda"] + [format_partition(lam) for lam in self.lambdas]
        body = [[format_label(rho), *map(str, row)] for rho, row in zip(self.labels, self.rows)]
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


def table_series(order: int, size: int, max_degree: int):
    """Yield (rho, branching_series(rho, max_degree)) for the labels of the
    given size, in table order: the series builder run on all of them."""
    return _series(order, wreath_class_labels(size, order), max_degree)


def _table_row(series: SymSeries, lambdas, rows) -> list[int]:
    """One row of a table, with chi from rows (a table shares one
    _character_rows(lambdas) between its rows), under its own name so that a
    tracer can time each row."""
    return list(map(_reader(series), lambdas, rows))


def branching_table(
    order: int, size: int, max_degree: int, jobs: int | None = None
) -> BranchingTable:
    """Compute every multiplicity for labels of the given size and partitions
    of degree up to max_degree (with at most `size` rows).

    The generating series come from ``table_series``, one per label, and
    each is read off for all columns at once.  Everything runs in this
    process: `jobs` has no effect, and stays only because the benchmark's
    worker (perfbench/worker.py) passes it.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    lambdas = _lambda_grid(size, max_degree)
    chi = _character_rows(lambdas)
    table = BranchingTable(order, size, max_degree, [], lambdas, [])
    for rho, series in table_series(order, size, max_degree):
        table.labels.append(rho)
        table.rows.append(_table_row(series, lambdas, chi))
    return table
