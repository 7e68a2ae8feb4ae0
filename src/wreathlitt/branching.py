"""Branching multiplicities from GL_n down to the wreath product subgroup.

The multiplicity of the irreducible labelled rho inside the restriction of
the highest-weight representation V^lambda is the Schur coefficient of a
product of plethysms: one factor per slot j, substituting the arithmetic-
progression alphabet h_j + h_{j+m} + h_{j+2m} + ... into the slot's Schur
function (the j = 0 alphabet includes the constant 1).  Everything on this
path is exact: the symfunc kernel works on integer z-scaled power-sum
coefficients, and the read-off is one integer division per cell.  Since
s_lam[A] = sum over mu of chi^lam(mu) / z_mu * p_mu[A] (Macdonald, ch. I 7-8),
a table builds each slot's products p_mu[A_j] once and each factor s_lam[A_j]
once, and multiplies a label's factors in slot order per row.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from . import partitions

# hall_inner_product and to_rational are not called here but stay bound:
# perfbench/layertrace.py patches both by name in this module.
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
    # Integer coefficients keep the whole plethysm in integer arithmetic.
    terms = {(k,) if k else (): 1 for k in range(j, max_degree + 1, order)}
    return SymSeries("h", terms, max_degree)


def branching_series(rho: WreathLabel, max_degree: int) -> SymSeries:
    """The generating series whose Schur coefficients are the multiplicities
    d(rho, lambda), truncated by total degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    factors = (
        plethysm(s_basis(part, 1), _progression_alphabet(rho.order, j, max_degree), max_degree)
        for j, part in enumerate(rho.parts)
        if part
    )
    return _product(factors, max_degree)


def _product(factors, max_degree: int) -> SymSeries:
    # Slot order; stops at a zero product, before a lazy `factors` builds the rest.
    result = None
    for factor in factors:
        result = factor if result is None else result * factor
        if not result:
            break
    return constant(Fraction(1), truncation=max_degree) if result is None else result


def _character_rows(lambdas) -> list[list[int]]:
    # chi^lam(nu) in partitions_of(|lam|) order, read from the tables on each call.
    rows = []
    for lam in lambdas:
        chi = partitions.character_table(sum(lam))
        rows.append([chi[lam, nu] for nu in partitions.partitions_of(sum(lam))])
    return rows


def _reader(series: SymSeries):
    """The read-off of one series: (lam, chi) -> <f, s_lam> = sum over nu of
    [p_nu] f * chi^lam(nu), with chi lam's character row.  The coefficient
    vector is built once per degree, as integers over that degree's common
    denominator, and each cell is one dot and one exact integer division."""
    terms, vectors = series.terms, {}

    def read(lam: Partition, chi) -> int:
        k = sum(lam)
        if k not in vectors:
            vector = [terms.get(nu, 0) for nu in partitions.partitions_of(k)]
            den = lcm(*[a.denominator for a in vector])
            vectors[k] = [a.numerator * (den // a.denominator) for a in vector], den
        vector, den = vectors[k]
        total = sum(map(mul, chi, vector))
        value, rem = divmod(total, den)
        if rem or value < 0:
            exact = Fraction(total, den)
            raise NonIntegralError(f"multiplicity at {format_partition(lam)} came out {exact}")
        return value

    return read


def _coefficients_from_series(series: SymSeries, lambdas, rows=None) -> list[int]:
    """The read-off of a row of lambdas, with chi from rows (a table shares
    one _character_rows(lambdas) between its rows)."""
    return list(map(_reader(series), lambdas, rows or _character_rows(lambdas)))


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


def table_series(order: int, size: int, max_degree: int):
    """Yield (rho, branching_series(rho, max_degree)) for the labels of the
    given size, in table order, building each slot factor once per call."""
    labels = wreath_class_labels(size, order)
    shapes: dict[int, dict] = {}
    for rho in labels:
        for j, part in enumerate(rho.parts):
            if part:
                shapes.setdefault(j, {})[part] = None
    factors = {}
    for j, slot in shapes.items():
        alphabet = _progression_alphabet(order, j, max_degree)
        built = plethysms([s_basis(part, 1) for part in slot], alphabet, max_degree)
        factors.update(zip([(j, part) for part in slot], built))
    for rho in labels:
        yield rho, _product((factors[j, part] for j, part in enumerate(rho.parts) if part), max_degree)


def _table_row(series: SymSeries, lambdas, rows) -> list[int]:
    """One row of a table, under its own name so that a tracer can time each row."""
    return _coefficients_from_series(series, lambdas, rows)


def branching_table(
    order: int, size: int, max_degree: int, jobs: int | None = None
) -> BranchingTable:
    """Compute every multiplicity for labels of the given size and partitions
    of degree up to max_degree (with at most `size` rows).

    The generating series come from ``table_series``, one per label, and
    each is read off for all columns at once.  Everything runs in this
    process: `jobs` is accepted for compatibility and has no effect.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    lambdas = _lambda_grid(size, max_degree)
    chi = _character_rows(lambdas)
    rows = {rho: _table_row(series, lambdas, chi) for rho, series in table_series(order, size, max_degree)}
    cells = {(rho, lam): d for rho, row in rows.items() for lam, d in zip(lambdas, row)}
    return BranchingTable(order, size, max_degree, list(rows), lambdas, cells)
