"""Independent verification paths for the branching computation.

Three routes to every multiplicity: (A) pair the restriction characteristic
against the conjugated irreducible characteristic inside the wreath ring;
(B) a classical character average over conjugacy classes, using no wreath
series products at all; (C) floating-point brute force over the actual
monomial matrices at tiny sizes.  A bug in any single layer cannot produce
silent three-way agreement.

The module also checks, coefficient by coefficient at explicit truncations,
every intermediate identity the main computation rests on: the two-variable
kernel expansion, the restriction-characteristic formula, the alphabet
transform under the isotypic maps, the reproducing kernel property, the
substitution rule for eigenvalue evaluations, and the dual construction of
the evaluation kernel.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import branching, partitions
from .branching import HypothesisViolationError, branching_coefficient
from .exactnum import Cyclotomic, NotRationalError, sum_of_products, to_rational, zeta
from .partitions import Partition, format_partition
from .symfunc import SymSeries, constant, convert, hall_inner_product, omega_at_root, s_basis, stretch
from .wreath import (
    WreathLabel,
    WreathSeries,
    centralizer_order,
    evaluation_kernel,
    evaluation_kernel_product_form,
    format_label,
    frobenius_characteristic,
    identity_label,
    irreducible_dimension,
    schur_at_eigenvalues,
    wreath_class_labels,
    wreath_inner_product,
)

__all__ = [
    "CheckResult",
    "ToleranceExceededError",
    "VerificationReport",
    "alphabet_transform_check",
    "branching_by_character_average",
    "branching_by_pairing",
    "eigenvalue_substitution_check",
    "evaluation_kernel_agreement_check",
    "kernel_identity_check",
    "numeric_branching_estimate",
    "numeric_matrix_check",
    "reproducing_kernel_check",
    "restriction_characteristic",
    "restriction_formula_check",
    "run_identity_suite",
    "run_numeric_suite",
    "run_verification",
]

NUMERIC_TOLERANCE = 1e-9


class ToleranceExceededError(ArithmeticError):
    """Numeric brute force disagreed with the exact value."""

    def __init__(self, detail: dict):
        super().__init__(
            f"numeric/exact mismatch at ({detail['rho']}, {detail['lambda']}): "
            f"{detail['numeric']} vs {detail['exact']}"
        )
        self.detail = detail


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

def restriction_characteristic(lam: Partition, n: int, order: int) -> WreathSeries:
    """Characteristic of the restricted highest-weight representation:
    the class-basis series whose coefficient at rho is s_lam at rho's
    eigenvalues divided by rho's centralizer order."""
    if len(lam) > n:
        raise HypothesisViolationError(
            f"need len(lambda) <= n, got {len(lam)} > {n}"
        )
    terms = {}
    for rho in wreath_class_labels(n, order):
        value = schur_at_eigenvalues(lam, rho)
        if value:
            terms[rho] = value * Fraction(1, centralizer_order(rho))
    return WreathSeries(order, terms)


def _as_multiplicity(value, context: str) -> int:
    rational = to_rational(value)
    if rational.denominator != 1 or rational < 0:
        raise NotRationalError(f"{context}: expected a non-negative integer, got {rational}")
    return int(rational)


# Each path is built for one group and computes what it needs once per label
# or per lambda, on first use; no path reads a value another path computed.
# Cells are visited row by row, so a label's values are kept for its row only.
_per_label = lru_cache(maxsize=1)
_per_lambda = lru_cache(maxsize=None)


def _main_path(degree_cap: int):
    """The main path: one branching series per label, read off per cell."""
    # Through the module, so a tracer that wraps branching.branching_series
    # (perfbench/layertrace.py) sees these calls.
    series = _per_label(lambda rho: branching.branching_series(rho, degree_cap))
    return lambda rho, lam: branching._coefficients_from_series(series(rho), [lam])[0]


def _pairing_path(order: int, n: int):
    """Path A: one restriction characteristic per lambda and one conjugated
    irreducible characteristic per label, paired once per cell."""
    restricted = _per_lambda(lambda lam: restriction_characteristic(lam, n, order))
    conjugated = _per_label(lambda rho: frobenius_characteristic(rho).conjugate())

    def pairing(rho: WreathLabel, lam: Partition) -> int:
        value = wreath_inner_product(restricted(lam), conjugated(rho))
        return _as_multiplicity(value, f"pairing at ({format_label(rho)}, {format_partition(lam)})")

    return pairing


def branching_by_pairing(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity via the wreath pairing of the restriction characteristic
    against the conjugated irreducible characteristic."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(
            f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}"
        )
    return _pairing_path(rho.order, rho.size)(rho, lam)


def _character_average_path():
    """Path B: its own conjugated characteristic per label and its own Schur
    value per (lambda, class)."""
    conjugated = _per_label(lambda rho: frobenius_characteristic(rho).conjugate().terms)
    schur = _per_lambda(schur_at_eigenvalues)

    def average(rho: WreathLabel, lam: Partition) -> int:
        terms = ((1, conj, schur(lam, sigma)) for sigma, conj in conjugated(rho).items())
        total = sum_of_products(rho.order, terms)
        return _as_multiplicity(
            total, f"character average at ({format_label(rho)}, {format_partition(lam)})"
        )

    return average


def branching_by_character_average(rho: WreathLabel, lam: Partition) -> int:
    """Multiplicity via classical character averaging: sum over classes of
    conj(character) times the Schur evaluation, weighted by class size over
    group order.  Uses no wreath-series products beyond the character itself."""
    if len(lam) > rho.size:
        raise HypothesisViolationError(
            f"need len(lambda) <= |rho|, got {len(lam)} > {rho.size}"
        )
    return _character_average_path()(rho, lam)


# ----------------------------------------------------------------------
# Path C: numeric brute force over monomial matrices
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _group_trace_data(order: int, n: int, max_power: int):
    """Per group element: its class label and the numeric traces of its
    first powers, from an explicit enumeration of all monomial matrices."""
    import numpy as np  # only the brute force needs numpy; importing it costs ~14 MB RSS

    root = np.exp(2j * np.pi / order)
    elements = []
    for exponents in itertools.product(range(order), repeat=n):
        for perm in itertools.permutations(range(n)):
            matrix = np.zeros((n, n), dtype=complex)
            for col in range(n):
                matrix[perm[col], col] = root ** exponents[col]
            label = _class_label(order, exponents, perm)
            traces = []
            power = np.eye(n, dtype=complex)
            for _ in range(max_power):
                power = power @ matrix
                traces.append(complex(np.trace(power)))
            elements.append((label, tuple(traces)))
    return tuple(elements)


def _class_label(order: int, exponents, perm) -> WreathLabel:
    slots: list[list[int]] = [[] for _ in range(order)]
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
        slots[total % order].append(length)
    return WreathLabel(
        order, tuple(tuple(sorted(slot, reverse=True)) for slot in slots)
    )


def _schur_from_traces(lam: Partition, traces) -> complex:
    value = 0j
    for mu in partitions.partitions_of(sum(lam)):
        chi = partitions.symmetric_group_character(lam, mu)
        if not chi:
            continue
        term = complex(chi) / partitions.centralizer_order(mu)
        for part in mu:
            term *= traces[part - 1]
        value += term
    return value


def _numeric_path(order: int, n: int, max_power: int):
    """Path C: conjugated complex character values once per label, and per
    lambda the numeric Schur values at the group elements, summed per class.
    The group is enumerated once, with the traces of powers up to max_power,
    which must be at least 1 and at least every |lambda| asked for."""
    group_order = order**n * factorial(n)

    @_per_label
    def characters(rho):
        chi = frobenius_characteristic(rho)
        return {
            sigma: (complex(centralizer_order(sigma)) * _to_complex(chi.coefficient(sigma))).conjugate()
            for sigma in wreath_class_labels(n, order)
        }

    @_per_lambda
    def elements(lam):
        # Each element's value comes from its own matrix traces.
        class_sums: dict[WreathLabel, complex] = {}
        for label, traces in _group_trace_data(order, n, max_power):
            class_sums[label] = class_sums.get(label, 0j) + _schur_from_traces(lam, traces)
        return class_sums

    def estimate(rho: WreathLabel, lam: Partition) -> complex:
        conj = characters(rho)
        total = 0j
        for label, value in elements(lam).items():
            total += conj[label] * value
        return total / group_order

    return estimate


def numeric_branching_estimate(rho: WreathLabel, lam: Partition) -> complex:
    """Floating-point multiplicity: average conj(character) * s_lam(eigenvalues)
    over every element of the group, all computed numerically."""
    return _numeric_path(rho.order, rho.size, max(1, sum(lam)))(rho, lam)


def _to_complex(value) -> complex:
    if isinstance(value, Cyclotomic):
        return value.to_complex()
    return complex(value)


def _numeric_detail(rho: WreathLabel, lam: Partition, exact: int, numeric: complex) -> dict:
    error = abs(numeric - exact)
    detail = {
        "rho": format_label(rho),
        "lambda": format_partition(lam),
        "exact": exact,
        "numeric": [numeric.real, numeric.imag],
        "error": error,
    }
    if error >= NUMERIC_TOLERANCE or round(numeric.real) != exact:
        raise ToleranceExceededError(detail)
    return detail


def numeric_matrix_check(rho: WreathLabel, lam: Partition) -> dict:
    """Compare the numeric estimate with the exact multiplicity; they must
    differ by less than the tolerance and round to the same integer.

    Returns the comparison detail, raising ToleranceExceededError on failure.
    """
    return _numeric_detail(rho, lam, branching_coefficient(rho, lam), numeric_branching_estimate(rho, lam))


# ----------------------------------------------------------------------
# Two-sided series: a WreathSeries in X whose coefficients are series on the
# second alphabets, a SymSeries in Y for the XY kernel or a WreathSeries in
# X' for the reproducing kernel, so the ring classes do all the arithmetic.
# ----------------------------------------------------------------------

def _empty_label(order: int) -> WreathLabel:
    return WreathLabel(order, ((),) * order)


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
    no_terms = SymSeries("p", {})
    for label in sorted(lhs.terms.keys() | rhs.terms.keys(), key=WreathLabel.sort_key):
        a = lhs.terms.get(label, no_terms).terms
        b = rhs.terms.get(label, no_terms).terms
        for nu in sorted(a.keys() | b.keys()):
            if a.get(nu, 0) != b.get(nu, 0):
                return {
                    "rho": format_label(label),
                    "y_index": list(nu),
                    "lhs": repr(a.get(nu, 0)),
                    "rhs": repr(b.get(nu, 0)),
                }
    return None


def _schur_in_power_sums(degree_cap: int) -> dict[Partition, SymSeries]:
    """s_lam in power sums for every |lam| <= degree_cap, converted once
    for pairing against many series."""
    return {
        lam: convert(s_basis(lam))
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
            for lam in branching._lambda_grid(n, degree_cap):
                direct = restriction_characteristic(lam, n, order).terms
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
            acc = SymSeries("h", {}, degree_cap)
            for t in range(order):
                weight = zeta(order, j * t) * Fraction(1, order)
                acc = acc + omega_at_root(t, order, degree_cap) * weight
            expected = SymSeries("h", {
                (deg,) if deg else (): Fraction(1)
                for deg in range(order - j, degree_cap + 1, order)
            }, degree_cap)
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

def run_verification(order: int, n: int, degree_cap: int) -> VerificationReport:
    """Triple agreement of the three branching paths on every cell, plus the
    weighted dimension sums; any disagreement is reported with its cell."""
    labels = wreath_class_labels(n, order)
    lambdas = branching._lambda_grid(n, degree_cap)

    main_path = _main_path(degree_cap)
    pairing_path = _pairing_path(order, n)
    average_path = _character_average_path()
    table: dict[tuple[WreathLabel, Partition], int] = {}

    def agreement():
        for rho in labels:
            for lam in lambdas:
                try:
                    main, pairing, average = main_path(rho, lam), pairing_path(rho, lam), average_path(rho, lam)
                except ArithmeticError as exc:
                    yield {"rho": format_label(rho), "lambda": format_partition(lam), "error": str(exc)}
                    return
                table[(rho, lam)] = main
                yield None if main == pairing == average else {
                    "rho": format_label(rho),
                    "lambda": format_partition(lam),
                    "main": main,
                    "pairing": pairing,
                    "character_average": average,
                }

    def dimension_sums():
        ident = identity_label(n, order)
        for lam in lambdas:
            weighted = sum(table[(rho, lam)] * irreducible_dimension(rho) for rho in labels)
            expected = to_rational(schur_at_eigenvalues(lam, ident))
            yield None if weighted == expected else {
                "lambda": format_partition(lam),
                "weighted_sum": weighted,
                "schur_at_identity": str(expected),
            }

    agreed = _check("triple_agreement", agreement())
    # the dimension sums read the agreed table, so without it they pass vacuously
    dimensions = _check("dimension_sums", dimension_sums() if agreed.passed else ())
    return VerificationReport({"m": order, "n": n, "max_degree": degree_cap}, [agreed, dimensions])


def run_numeric_suite(order: int, n: int, degree_cap: int) -> VerificationReport:
    """Numeric brute force over all monomial matrices against the exact path."""
    main_path = _main_path(degree_cap)
    numeric_path = _numeric_path(order, n, max(1, degree_cap))

    def cells():
        for rho in wreath_class_labels(n, order):
            for lam in branching._lambda_grid(n, degree_cap):
                try:
                    _numeric_detail(rho, lam, main_path(rho, lam), numeric_path(rho, lam))
                except ToleranceExceededError as exc:
                    yield exc.detail
                else:
                    yield None

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
