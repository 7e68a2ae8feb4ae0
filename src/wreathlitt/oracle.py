"""Independent verification paths for the branching computation.

Three routes to every multiplicity: (A) pair the restriction characteristic
against the conjugated irreducible character inside the wreath ring; (B) a
classical character average over conjugacy classes, with its own Schur
values and its own call of wreath.characters, as in (A); (C) floating-point
brute force over the actual monomial matrices at tiny sizes.  A bug in any
single layer cannot produce silent three-way agreement.  Paths A and B keep
their values mod x^m - 1 as big integers (Kronecker substitution): per class
one integer holds every lambda's Schur value, from their own evaluator, and
per row one dot per power of zeta with the characters from their own call of
wreath.characters yields every cell's work polynomial, which the cell reduces
mod Phi_m once and tests with one divmod; only a cell that fails builds a
Cyclotomic, to report itself.

The module also checks, coefficient by coefficient at explicit truncations,
every intermediate identity the main computation rests on: the two-variable
kernel expansion, the restriction-characteristic formula, the alphabet
transform under the isotypic maps, the reproducing kernel property, the
substitution rule for eigenvalue evaluations, and the dual construction of
the evaluation kernel.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, lcm
from operator import mul, neg

from . import branching, partitions

# branching_coefficient, frobenius_characteristic and wreath_inner_product are
# not called here but stay bound: perfbench/layertrace.py patches each by name
# in this module.
from .branching import HypothesisViolationError, branching_coefficient  # noqa: F401
from .exactnum import Cyclotomic, NotRationalError, _reduce, euler_phi, to_rational, zeta
from .partitions import Partition, format_partition
from .symfunc import SymSeries, constant, h_basis, hall_inner_product, omega_at_root, s_basis, stretch
from .wreath import (  # noqa: F401
    WreathLabel,
    WreathSeries,
    _digit_bits,
    _unpack,
    centralizer_order,
    characters,
    evaluation_kernel,
    evaluation_kernel_product_form,
    format_label,
    frobenius_characteristic,
    identity_label,
    irreducible_dimension,
    schur_at_eigenvalues,
    schur_evaluator,
    schur_numerators,
    wreath_class_labels,
    wreath_inner_product,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "alphabet_transform_check",
    "branching_by_character_average",
    "branching_by_pairing",
    "eigenvalue_substitution_check",
    "evaluation_kernel_agreement_check",
    "kernel_identity_check",
    "numeric_branching_estimate",
    "reproducing_kernel_check",
    "restriction_characteristics",
    "restriction_formula_check",
    "run_identity_suite",
    "run_numeric_suite",
    "run_verification",
]

NUMERIC_TOLERANCE = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    cells: int
    counterexample: dict | None = None
    seconds: float = 0.0

    def to_json_obj(self) -> dict:
        obj = {"name": self.name, "passed": self.passed, "cells": self.cells}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


@dataclass
class VerificationReport:
    scope: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def first_failure(self) -> CheckResult | None:
        for check in self.checks:
            if not check.passed:
                return check
        return None

    def to_json_obj(self) -> dict:
        return {
            "scope": self.scope,
            "passed": self.passed,
            "checks": [c.to_json_obj() for c in self.checks],
        }


def _check(name: str, cells) -> CheckResult:
    """Run one check over its cells, which yield None for a passing cell and
    a counterexample dict for a failing one.  The check stops at its first
    counterexample, and counts cells up to and including it.  The clock also
    covers what a generator builds before its first cell."""
    started = time.perf_counter()
    count, counterexample = 0, None
    for counterexample in cells:
        count += 1
        if counterexample is not None:
            break
    return CheckResult(name, counterexample is None, count, counterexample, time.perf_counter() - started)


# ----------------------------------------------------------------------
# Path A: pairing inside the wreath ring
# ----------------------------------------------------------------------

def _require_rows(lambdas, n: int) -> None:
    if (rows := max(map(len, lambdas), default=0)) > n:
        raise HypothesisViolationError(f"need len(lambda) <= n, got {rows} > {n}")


def restriction_characteristics(lambdas, n: int, order: int) -> dict[Partition, WreathSeries]:
    """Characteristic of each restricted highest-weight representation: the
    class-basis series whose coefficient at rho is s_lam at rho's eigenvalues,
    from one Schur evaluator for every lambda, over rho's centralizer order."""
    _require_rows(lambdas, n)
    classes = wreath_class_labels(n, order)
    evaluator = schur_evaluator(lambdas, n)
    by_class = [schur_numerators(evaluator, rho) for rho in classes]
    return {
        lam: WreathSeries(order, {
            rho: Cyclotomic(order, nums, den * centralizer_order(rho)) for rho, nums in zip(classes, values)
        })
        for lam, den, values in zip(lambdas, evaluator[0], zip(*by_class))
    }


def _packed_multiplicity(order: int, work: list[int], den: int, path: str, rho: WreathLabel, lam: Partition) -> int:
    # One cell of path A or B: its work polynomial reduced mod Phi_m once, and one
    # divmod.  Only a failing cell builds its Cyclotomic, for the value its error reports.
    nums = _reduce(work, order)
    value, rest = divmod(nums[0], den)
    if rest or value < 0 or any(nums[1:]):
        rational = to_rational(Cyclotomic(order, nums, den))
        where = f"{path} at ({format_label(rho)}, {format_partition(lam)})"
        raise NotRationalError(f"{where}: expected a non-negative integer, got {rational}")
    return value


def _conjugated_characters(classes):
    # rho -> chi^rho(sigma^-1) per class, as power-basis numerators, as conj chi(g) =
    # chi(g^-1): characters lists by class position, so each row is read through
    # one list of the inverse classes' positions.
    position = {sigma: i for i, sigma in enumerate(classes)}
    inverses = [position[sigma.inverse()] for sigma in classes]
    return lambda rho: list(map(characters(rho).__getitem__, inverses))


def _packed_path(order: int, n: int, lambdas, path: str):
    """The row builder of paths A and B, on Kronecker-packed integers.  Per
    class sigma, the path's own Schur evaluator packs every lambda's value
    times w_sigma = L / z_sigma over L = lcm(z_sigma), one slot of
    m + phi(m) - 1 digits per lambda.  Per row, one integer dot per power of
    zeta, of those values with that power's column of rho's conjugated
    characters, gives every lambda's work polynomial, the sum over the
    classes of s_lam(sigma) conj chi(sigma) / z_sigma; each cell reduces its
    own mod Phi_m once.  As the w_sigma sum to L, a work digit is at most
    the Schur bound times the sum over sigma of w_sigma times rho's largest
    |numerator| at sigma.  A row whose digits need more bits repacks the
    Schur values at its width, so each width is packed at most once."""
    classes = wreath_class_labels(n, order)
    dens, bound, schur = schur_evaluator(lambdas, n)
    conjugated_characters = _conjugated_characters(classes)
    norms = [centralizer_order(sigma) for sigma in classes]
    common = lcm(*norms)
    weights = [common // z for z in norms]
    spacing, index = order + euler_phi(order) - 1, {lam: i for i, lam in enumerate(lambdas)}
    packed = 0, []

    def row(rho: WreathLabel):
        nonlocal packed
        conjugated = conjugated_characters(rho)
        tops = map(max, map(max, conjugated), map(neg, map(min, conjugated)))
        bits = _digit_bits(bound * sum(map(mul, tops, weights)))
        if bits > packed[0]:
            packed = bits, [schur(sigma, bits, spacing) * w for sigma, w in zip(classes, weights)]
        bits, values = packed
        total = sum(sum(map(mul, values, column)) << bits * i for i, column in enumerate(zip(*conjugated)))
        digits = _unpack(total, bits, len(lambdas) * spacing)

        def cell(lam: Partition) -> int:
            i = index[lam]
            work = digits[i * spacing:(i + 1) * spacing]
            return _packed_multiplicity(order, work, dens[i] * common, path, rho, lam)

        return cell

    return row


# Each path is built for one group, and is a row builder: path(rho) returns
# rho's cell function lam -> value.  A path builds its per-lambda values when
# it is built or at its first row, and a label's values when its row is
# built, so the suites, which read the cells row by row, build each label's
# values once; no path reads a value another path computed.

def _pairing_path(order: int, n: int, lambdas):
    """Path A: each lambda's restriction characteristic s_lam(sigma) / z_sigma,
    from its own Schur evaluator, times the pairing norm z_sigma, against
    rho's conjugated characters over z_sigma.  The norm cancels the
    characteristic's 1 / z_sigma, so the path packs the same integers as path
    B, from its own evaluator and its own characters."""
    _require_rows(lambdas, n)
    return _packed_path(order, n, lambdas, "pairing")


def branching_by_pairing(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity via the wreath pairing of the restriction characteristic
    against the conjugated irreducible characteristic."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(
            f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}"
        )
    return _pairing_path(rho.order, rho.size, [lam])(rho)(lam)


def _character_average_path(order: int, n: int, lambdas):
    """Path B: its own Schur values, from its own evaluator, against its own
    conjugated characters of rho over z_sigma, as in path A."""
    return _packed_path(order, n, lambdas, "character average")


def branching_by_character_average(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity via classical character averaging: sum over classes of
    conj(character) times the Schur evaluation, weighted by class size over
    group order.  Uses no wreath-series products beyond the character itself."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(
            f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}"
        )
    return _character_average_path(rho.order, rho.size, [lam])(rho)(lam)


# ----------------------------------------------------------------------
# Path C: numeric brute force over monomial matrices
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _group_trace_data(order: int, n: int, max_power: int):
    """The class label of every group element, and per element the tuple of
    the numeric traces of its first max_power powers (max_power >= 1), from
    an explicit enumeration of all monomial matrices."""
    roots = [cmath.exp(2j * cmath.pi * k / order) for k in range(order)]
    labels, traces = [], []
    for exponents in itertools.product(range(order), repeat=n):
        for perm in itertools.permutations(range(n)):
            matrix = [[0j] * n for _ in range(n)]
            for col in range(n):
                matrix[perm[col]][col] = roots[exponents[col]]
            labels.append(_class_label(order, exponents, perm))
            columns = list(zip(*matrix))
            power, row = matrix, [sum(matrix[i][i] for i in range(n))]
            while len(row) < max_power:
                power = [[sum(map(mul, line, column)) for column in columns] for line in power]
                row.append(sum(power[i][i] for i in range(n)))
            traces.append(tuple(row))
    return tuple(labels), tuple(traces)


def _class_label(order: int, exponents, perm) -> WreathLabel:
    slots: dict[int, list[int]] = {}
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, total, cursor = 0, 0, start
        while not seen[cursor]:
            seen[cursor] = True
            total += exponents[cursor]
            cursor = perm[cursor]
            length += 1
        slots.setdefault(total % order, []).append(length)
    return WreathLabel(order, tuple(sorted((j, tuple(sorted(cycles, reverse=True))) for j, cycles in slots.items())))


def _numeric_class_sums(order: int, n: int, max_power: int):
    """Per lambda, on first use: path C's numeric Schur values at every group
    element, summed per class in wreath_class_labels order.  p_mu is built
    once per run at every element from that element's own traces, and summed
    over each class into a class row of p_mu / z_mu; lambda's sums are those
    class rows dotted with lambda's character row."""
    labels, traces = _group_trace_data(order, n, max_power)
    index = {sigma: i for i, sigma in enumerate(wreath_class_labels(n, order))}
    class_of = [index[label] for label in labels]
    columns = list(zip(*traces))  # columns[t - 1]: every element's trace of its t-th power

    @cache
    def power_sums(mu: Partition):
        # p_mu without its last part, times that part's trace column
        if not mu:
            return [1] * len(labels)
        return list(map(mul, power_sums(mu[:-1]), columns[mu[-1] - 1]))

    @cache
    def class_row(mu: Partition):
        row = [0] * len(index)
        for c, value in zip(class_of, power_sums(mu)):
            row[c] += value
        z = partitions.centralizer_order(mu)
        return [total / z for total in row]

    @cache
    def sums(lam: Partition):
        mus = partitions.partitions_of(sum(lam))
        chi = [partitions.symmetric_group_character(lam, mu) for mu in mus]
        return [sum(map(mul, chi, by_mu)) for by_mu in zip(*map(class_row, mus))]

    return sums


def _numeric_path(order: int, n: int, max_power: int):
    """Path C: per row, rho's conjugated complex characters (its integer
    numerators dotted with the powers of zeta, conjugated in complex
    arithmetic, not read at the inverse classes), once per lambda its
    numeric class sums, and per cell one dot over the classes.  max_power,
    the highest traced power, must be >= 1 and >= every |lambda|."""
    roots = [cmath.exp(2j * cmath.pi * k / order) for k in range(euler_phi(order))]
    sums = _numeric_class_sums(order, n, max_power)
    group_order = order**n * factorial(n)

    def row(rho: WreathLabel):
        conjugated = [sum(map(mul, roots, nums), 0j).conjugate() for nums in characters(rho)]
        return lambda lam: sum(map(mul, conjugated, sums(lam))) / group_order

    return row


def numeric_branching_estimate(rho: WreathLabel, lam: Partition) -> complex:
    """Floating-point multiplicity: average conj(character) * s_lam(eigenvalues)
    over every element of the group, all computed numerically."""
    return _numeric_path(rho.order, rho.size, max(1, sum(lam)))(rho)(lam)


def _numeric_fails(exact: int, numeric: complex) -> bool:
    return abs(numeric - exact) >= NUMERIC_TOLERANCE or round(numeric.real) != exact


def _numeric_detail(rho: WreathLabel, lam: Partition, exact: int, numeric: complex) -> dict:
    return {
        "rho": format_label(rho),
        "lambda": format_partition(lam),
        "exact": exact,
        "numeric": [numeric.real, numeric.imag],
        "error": abs(numeric - exact),
    }


# ----------------------------------------------------------------------
# Two-sided series: a WreathSeries in X whose coefficients are series on the
# second alphabets, a SymSeries in Y for the XY kernel or a WreathSeries in
# X' for the reproducing kernel, so the ring classes do all the arithmetic.
# ----------------------------------------------------------------------

def _empty_label(order: int) -> WreathLabel:
    return WreathLabel(order, ())


def _cycle_labels(order: int, r: int) -> list[WreathLabel]:
    # the labels of p_r(X_t), one r-cycle in slot t, for t = 0..m-1
    return [WreathLabel.from_mapping(order, {t: (r,)}) for t in range(order)]


def _plethystic_exponential(powers: dict, one: WreathSeries) -> WreathSeries:
    """The sum over partitions nu of p_nu / z_nu, for an alphabet whose power
    sums p_r are powers[r].  one carries the truncations: its own bounds the
    label size in X, and its coefficient's, if any, the second alphabets."""
    total = one
    for k in range(1, one.truncation + 1):
        for nu in partitions.partitions_of(k):
            term = one
            for part in nu:
                term = term * powers[part]
            total = total + term * Fraction(1, partitions.centralizer_order(nu))
    return total


def _omega_composite_xy(order: int, size_cap: int, degree_cap: int) -> WreathSeries:
    """Plethystic exponential of the composite alphabet (1/m) sum_t X_t *
    Omega(Y; zeta^t), truncated to label size <= size_cap and Y-degree <=
    degree_cap.  In its p_r the geometric Y-series is stretched by r with its
    coefficients fixed."""
    powers = {
        r: WreathSeries(order, {
            label: stretch(omega_at_root(t, order, degree_cap // r), r) * Fraction(1, order)
            for t, label in enumerate(_cycle_labels(order, r))
        })
        for r in range(1, size_cap + 1)
    }
    one = WreathSeries(order, {_empty_label(order): constant(Fraction(1), truncation=degree_cap)}, size_cap)
    return _plethystic_exponential(powers, one)


def kernel_identity_check(order: int, size_cap: int, degree_cap: int) -> CheckResult:
    """The generating function of all evaluation kernels, label by label,
    equals the plethystic exponential of the composite alphabet."""
    started = time.perf_counter()
    rhs = _omega_composite_xy(order, size_cap, degree_cap)
    lhs = WreathSeries(order, {
        rho: evaluation_kernel(rho, degree_cap) * Fraction(1, centralizer_order(rho))
        for k in range(size_cap + 1)
        for rho in wreath_class_labels(k, order)
    })
    counterexample = _first_two_sided_mismatch(lhs, rhs)
    # Not run by _check: its cells are the terms of the larger side, all
    # compared at once, not a count up to the first failure.
    terms = max(sum(len(ys.terms) for ys in side.terms.values()) for side in (lhs, rhs))
    return CheckResult(
        "kernel_identity", counterexample is None, terms, counterexample, time.perf_counter() - started
    )


def _first_two_sided_mismatch(lhs: WreathSeries, rhs: WreathSeries) -> dict | None:
    no_terms = SymSeries({})
    for label in sorted(lhs.terms.keys() | rhs.terms.keys(), key=WreathLabel.sort_key):
        a = lhs.terms.get(label, no_terms)
        b = rhs.terms.get(label, no_terms)
        for nu in sorted(a.terms.keys() | b.terms.keys()):
            if a.terms.get(nu, 0) != b.terms.get(nu, 0):
                # the power-sum coefficients, 0 where a side has no term
                shown = [repr(side.coefficient(nu) if nu in side.terms else 0) for side in (a, b)]
                return {"rho": format_label(label), "y_index": list(nu), "lhs": shown[0], "rhs": shown[1]}
    return None


def _schur_in_power_sums(degree_cap: int) -> dict[Partition, SymSeries]:
    """s_lam for every |lam| <= degree_cap, built once for pairing against
    many series."""
    return {
        lam: s_basis(lam)
        for k in range(degree_cap + 1)
        for lam in partitions.partitions_of(k)
    }


def restriction_formula_check(order: int, n_cap: int, degree_cap: int) -> CheckResult:
    """Extracting s_lam from the two-variable kernel reproduces the
    restriction characteristic, for every size and every fitting lam."""
    def cells():
        # Truncating the label size drops only larger labels, so one kernel serves every n.
        kernel = _omega_composite_xy(order, n_cap, degree_cap)
        schur = _schur_in_power_sums(degree_cap)
        for n in range(n_cap + 1):
            labels = sorted(wreath_class_labels(n, order), key=WreathLabel.sort_key)
            for lam, series in restriction_characteristics(branching._lambda_grid(n, degree_cap), n, order).items():
                direct = series.terms
                for label in labels:
                    # a zero pairing reads as 0, as an absent direct term does
                    extracted = hall_inner_product(kernel.terms[label], schur[lam]) or 0
                    if extracted != direct.get(label, 0):
                        yield {
                            "n": n,
                            "lambda": format_partition(lam),
                            "rho": format_label(label),
                            "kernel": repr(extracted),
                            "direct": repr(direct.get(label, 0)),
                        }
                        break
                else:
                    yield None

    return _check("restriction_formula", cells())


def alphabet_transform_check(order: int, degree_cap: int) -> CheckResult:
    """The isotypic average of the geometric kernels is the arithmetic
    progression of complete homogeneous terms, for every residue."""
    def cells():
        for j in range(1, order + 1):
            acc = expected = SymSeries({}, degree_cap)
            for t in range(order):
                weight = zeta(order, j * t) * Fraction(1, order)
                acc = acc + omega_at_root(t, order, degree_cap) * weight
            for deg in range(order - j, degree_cap + 1, order):
                expected = expected + h_basis((deg,) if deg else ())
            yield None if acc == expected else {"j": j, "got": repr(acc), "expected": repr(expected)}

    return _check("alphabet_transform", cells())


def reproducing_kernel_check(order: int, size_cap: int) -> CheckResult:
    """Pairing the diagonal kernel against any P-basis element returns that
    element on the second set of alphabets."""
    def cells():
        powers = {
            r: WreathSeries(order, {x: WreathSeries(order, {x: Fraction(1, order)}) for x in _cycle_labels(order, r)})
            for r in range(1, size_cap + 1)
        }
        one = WreathSeries(order, {_empty_label(order): WreathSeries.one(order)}, size_cap)
        kernel = _plethystic_exponential(powers, one)
        for k in range(size_cap + 1):
            for rho in wreath_class_labels(k, order):
                paired = kernel.terms[rho] * centralizer_order(rho)
                yield None if paired == WreathSeries(order, {rho: Fraction(1)}) else {
                    "rho": format_label(rho),
                    "paired": repr(sorted((format_label(l), repr(c)) for l, c in paired.terms.items())),
                }

    return _check("reproducing_kernel", cells())


def eigenvalue_substitution_check(order: int, n_cap: int, degree_cap: int) -> CheckResult:
    """Hall-pairing the evaluation kernel against s_lam agrees with the
    direct eigenvalue evaluation, including the vanishing cases."""
    def cells():
        schur = _schur_in_power_sums(degree_cap)
        for n in range(n_cap + 1):
            for rho in wreath_class_labels(n, order):
                kernel = evaluation_kernel(rho, degree_cap)
                for lam, schur_p in schur.items():
                    paired = hall_inner_product(kernel, schur_p)
                    direct = schur_at_eigenvalues(lam, rho)
                    yield None if paired == direct else {
                        "rho": format_label(rho),
                        "lambda": format_partition(lam),
                        "paired": repr(paired),
                        "direct": repr(direct),
                    }

    return _check("eigenvalue_substitution", cells())


def evaluation_kernel_agreement_check(order: int, n_cap: int, degree_cap: int) -> CheckResult:
    """The power-sum definition of the evaluation kernel matches its
    geometric product formula."""
    def cells():
        for n in range(n_cap + 1):
            for rho in wreath_class_labels(n, order):
                direct = evaluation_kernel(rho, degree_cap)
                product = evaluation_kernel_product_form(rho, degree_cap)
                yield None if direct == product else {
                    "rho": format_label(rho),
                    "power_sum_form": repr(direct),
                    "product_form": repr(product),
                }

    return _check("evaluation_kernel_agreement", cells())


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------

def _suite_cells(order: int, n: int, degree_cap: int, lambdas, paths, compare):
    """The cells of a suite, row by row in table order: per cell, what
    compare(rho, lam, main, *values) returns, None for a passing cell.  main
    is read off the series table_series builds for rho, as branching_table
    reads it, and values holds each path's value from the row that path
    builds for rho.  An ArithmeticError raised in a row, by a row builder or
    at a cell, is reported as that cell's counterexample and ends the cells."""
    read = branching._reader(lambdas)
    for rho, series in branching.table_series(order, n, degree_cap):
        lam = lambdas[0]
        try:
            main, rows = read(series), [path(rho) for path in paths]
            for lam in lambdas:
                yield compare(rho, lam, next(main), *(row(lam) for row in rows))
        except ArithmeticError as exc:
            yield {"rho": format_label(rho), "lambda": format_partition(lam), "error": str(exc)}
            return


def run_verification(order: int, n: int, degree_cap: int) -> VerificationReport:
    """Triple agreement of the three branching paths on every cell, plus the
    weighted dimension sums; any disagreement is reported with its cell."""
    lambdas = branching._lambda_grid(n, degree_cap)
    weighted = dict.fromkeys(lambdas, 0)

    def agreement():
        paths = _pairing_path(order, n, lambdas), _character_average_path(order, n, lambdas)
        dims = {rho: irreducible_dimension(rho) for rho in wreath_class_labels(n, order)}

        def compare(rho, lam, main, pairing, average):
            weighted[lam] += main * dims[rho]
            return None if main == pairing == average else {
                "rho": format_label(rho),
                "lambda": format_partition(lam),
                "main": main,
                "pairing": pairing,
                "character_average": average,
            }

        yield from _suite_cells(order, n, degree_cap, lambdas, paths, compare)

    def dimension_sums():
        evaluator = schur_evaluator(lambdas, n)
        for lam, den, nums in zip(lambdas, evaluator[0], schur_numerators(evaluator, identity_label(n, order))):
            # a wrong value at the identity may not even be rational, and is reported as it is
            expected = Cyclotomic(order, nums, den)
            yield None if weighted[lam] == expected else {
                "lambda": format_partition(lam),
                "weighted_sum": weighted[lam],
                "schur_at_identity": str(expected.to_rational()) if expected.is_rational() else repr(expected),
            }

    agreed = _check("triple_agreement", agreement())
    # the dimension sums add up the agreed rows, so without them they pass vacuously
    dimensions = _check("dimension_sums", dimension_sums() if agreed.passed else ())
    return VerificationReport({"m": order, "n": n, "max_degree": degree_cap}, [agreed, dimensions])


def run_numeric_suite(order: int, n: int, degree_cap: int) -> VerificationReport:
    """Numeric brute force over all monomial matrices against the exact path."""
    lambdas = branching._lambda_grid(n, degree_cap)

    def compare(rho, lam, exact, numeric):
        # a passing cell builds no detail
        return _numeric_detail(rho, lam, exact, numeric) if _numeric_fails(exact, numeric) else None

    def cells():
        paths = [_numeric_path(order, n, max(1, degree_cap))]
        yield from _suite_cells(order, n, degree_cap, lambdas, paths, compare)

    scope = {"m": order, "n": n, "max_degree": degree_cap}
    return VerificationReport(scope, [_check("numeric_matrix", cells())])


def run_identity_suite(order: int, size_cap: int, degree_cap: int) -> VerificationReport:
    """All truncated identity checks at one scope: the X-side label size is
    capped by size_cap and the Y-side degree by degree_cap."""
    return VerificationReport({"m": order, "dx": size_cap, "dy": degree_cap}, [
        kernel_identity_check(order, size_cap, degree_cap),
        restriction_formula_check(order, size_cap, min(size_cap, degree_cap)),
        alphabet_transform_check(order, degree_cap),
        reproducing_kernel_check(order, size_cap),
        eigenvalue_substitution_check(order, size_cap, degree_cap),
        evaluation_kernel_agreement_check(order, size_cap, degree_cap),
    ])
