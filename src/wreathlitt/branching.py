"""Branching multiplicities from GL_n down to the wreath product subgroup.

The multiplicity of the irreducible labelled rho inside the restriction of
the highest-weight representation V^lambda is the Schur coefficient of a
product of plethysms: one factor per slot j, substituting the arithmetic-
progression alphabet h_j + h_{j+m} + h_{j+2m} + ... into the slot's Schur
function (the j = 0 alphabet includes the constant 1).  Everything on this
path is exact: every series holds integer z-scaled power-sum coordinates
F_mu = <f, p_mu>, and the read-off is one Kronecker-packed integer dot per
degree (Harvey, J. Symbolic Comput. 44, 2009), one exact division per cell.
Since s_lam[A] = sum over mu of chi^lam(mu) / z_mu * p_mu[A] (Macdonald, ch.
I 7-8), one builder makes every series, for a table or for one label: it
builds each slot's products p_mu[A_j] once and each factor s_lam[A_j] once
for all labels, and multiplies a label's factors in slot order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import factorial
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
        built = plethysms([s_basis(part) for part in slot], alphabet, max_degree)
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


def _reader(lambdas):
    """read(series) yields <f, s_lam> = sum over nu of F_nu chi^lam(nu) / z_nu for each
    lam of lambdas, a grid in degree order.  Per degree k it keeps den = k! = lcm(z_nu),
    the scales den / z_nu and the chi rows; per series, one dot of v_nu = F_nu den / z_nu
    with the chi columns packed at x = 2^bits holds each lam's sum as a signed digit."""
    blocks = []
    for k, block in groupby(lambdas, key=sum):
        block, shapes, den = list(block), partitions.partitions_of(k), factorial(k)
        rows = [partitions.character_table(k)[partitions.partition_index(k)[lam]] for lam in block]
        scales = [den // z for z in map(partitions.centralizer_order, shapes)]
        # |chi^lam(nu)| <= chi^lam(1^k), the last entry of each row
        blocks.append((block, shapes, scales, den, rows, max(row[-1] for row in rows), {}))

    def read(series: SymSeries):
        for block, shapes, scales, den, rows, top, packed in blocks:
            vector = [series.terms.get(nu, 0) * scale for nu, scale in zip(shapes, scales)]
            bound = top * sum(map(abs, vector))  # no digit is larger in absolute value
            if type(bound) is not int:  # a series off the integers, from a faulty table: a dot per cell
                totals = [sum(map(mul, vector, row)) for row in rows]
            elif not bound:  # the series has no terms of degree k
                totals = [0] * len(block)
            else:  # a signed field for |digit| <= bound, in whole 64-bit words so that rows share widths
                bits = 64 * (bound.bit_length() // 64 + 1)
                if bits not in packed:
                    packed[bits] = _packed_columns(rows, bits)
                totals = _signed_digits(sum(map(mul, vector, packed[bits])), bits, len(block))
            for lam, total in zip(block, totals):
                value, rem = divmod(total, den)
                if rem or value < 0:
                    raise NonIntegralError(f"multiplicity at {format_partition(lam)} came out {Fraction(total, den)}")
                yield value

    return read


def _packed_columns(rows, bits: int) -> list[int]:
    # Each nu's column of the chi rows, rows[i] at x^i with x = 2^bits, by Horner.
    columns = rows[-1]
    for row in reversed(rows[:-1]):
        columns = [(c << bits) + chi for c, chi in zip(columns, row)]
    return columns


def _signed_digits(packed: int, bits: int, count: int) -> list[int]:
    # The count signed digits of packed, bits wide, lowest first, read as fields after adding 2^(bits - 1)
    # to each; split in halves down to at most 48 fields, so that no shift walks the whole integer per field.
    half, mask = 1 << bits - 1, (1 << bits) - 1
    pieces = [(packed + half * ((1 << bits * count) - 1) // mask, count)]
    while pieces[-1][1] > 48:  # the highest piece is a largest one
        pieces = [part for value, k in pieces for low in [k // 2]
                  for part in ((value & (1 << bits * low) - 1, low), (value >> bits * low, k - low))]
    return [(value >> i & mask) - half for value, k in pieces for i in range(0, bits * k, bits)]


def coefficient_and_series(rho: WreathLabel, lam: Partition) -> tuple[int, SymSeries]:
    """The multiplicity d(rho, lam) and the generating series it was read from."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}")
    series = branching_series(rho, sum(lam))
    return next(_reader([lam])(series)), series


def branching_coefficient(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity of the irreducible labelled rho in the restriction of
    the highest-weight representation indexed by lam."""
    return coefficient_and_series(rho, lam)[0]


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


def _table_row(series: SymSeries, read) -> list[int]:
    """One row of a table, by the reader its rows share, under its own name for a tracer."""
    return list(read(series))


def branching_table(
    order: int, size: int, max_degree: int, jobs: int | None = None
) -> BranchingTable:
    """Compute every multiplicity for labels of the given size and partitions
    of degree up to max_degree (with at most `size` rows).

    The generating series come from ``table_series``, one per label, and one
    reader over the columns reads each off with one packed dot per degree.
    Everything runs in this process: `jobs` has no effect, and stays only
    because the benchmark's worker (perfbench/worker.py) passes it.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    lambdas = _lambda_grid(size, max_degree)
    read = _reader(lambdas)
    table = BranchingTable(order, size, max_degree, [], lambdas, [])
    for rho, series in table_series(order, size, max_degree):
        table.labels.append(rho)
        table.rows.append(_table_row(series, read))
    return table
