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

from . import branching, partitions
from .branching import HypothesisViolationError, branching_coefficient
from .exactnum import Cyclotomic, NotRationalError, to_rational, zeta
from .partitions import Partition, format_partition
from .symfunc import SymSeries, convert, hall_inner_product, omega_at_root, s_basis, stretch
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
    merge_labels,
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

    def to_json_obj(self, with_timing: bool = False) -> dict:
        obj = {"name": self.name, "passed": self.passed, "cells": self.cells}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        if with_timing:
            obj["seconds"] = round(self.seconds, 6)
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

    def to_json_obj(self, with_timing: bool = False) -> dict:
        return {
            "scope": self.scope,
            "passed": self.passed,
            "checks": [c.to_json_obj(with_timing) for c in self.checks],
        }


def _timed(name: str, cells: int, counterexample: dict | None, started: float) -> CheckResult:
    return CheckResult(name, counterexample is None, cells, counterexample, time.perf_counter() - started)


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
        total = Fraction(0)
        for sigma, conj in conjugated(rho).items():
            total = total + conj * schur(lam, sigma)
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


def _numeric_path(order: int, n: int):
    """Path C: conjugated complex character values once per label, and the
    numeric Schur value at every group element once per lambda."""
    @_per_label
    def characters(rho):
        chi = frobenius_characteristic(rho)
        return {
            sigma: (complex(centralizer_order(sigma)) * _to_complex(chi.coefficient(sigma))).conjugate()
            for sigma in wreath_class_labels(n, order)
        }

    @_per_lambda
    def elements(lam):
        data = _group_trace_data(order, n, max(1, sum(lam)))
        return [(label, _schur_from_traces(lam, traces)) for label, traces in data]

    def estimate(rho: WreathLabel, lam: Partition) -> complex:
        conj, group = characters(rho), elements(lam)
        total = 0j
        for label, value in group:
            total += conj[label] * value
        return total / len(group)

    return estimate


def numeric_branching_estimate(rho: WreathLabel, lam: Partition) -> complex:
    """Floating-point multiplicity: average conj(character) * s_lam(eigenvalues)
    over every element of the group, all computed numerically."""
    return _numeric_path(rho.order, rho.size)(rho, lam)


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
# Two-sided series: wreath P-basis in X against a second index (a plain
# partition for a Y symmetric-series side, or another label for a Y wreath
# side).  Represented as dicts keyed by (label, index).
# ----------------------------------------------------------------------

def _two_sided_product(a: dict, b: dict, size_cap: int, degree_cap: int, y_size) -> dict:
    out: dict = {}
    for (la, ya), ca in a.items():
        for (lb, yb), cb in b.items():
            if la.size + lb.size > size_cap:
                continue
            if y_size(ya) + y_size(yb) > degree_cap:
                continue
            if isinstance(ya, WreathLabel):
                key = (merge_labels(la, lb), merge_labels(ya, yb))
            else:
                key = (merge_labels(la, lb), tuple(sorted(ya + yb, reverse=True)))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _accumulate(target: dict, source: dict, scale) -> None:
    for key, value in source.items():
        updated = target.get(key, 0) + scale * value
        if updated:
            target[key] = updated
        else:
            target.pop(key, None)


def _empty_label(order: int) -> WreathLabel:
    return WreathLabel(order, ((),) * order)


def _composite_power_xy(order: int, r: int, degree_cap: int) -> dict:
    """p_r of the composite alphabet (1/m) sum_t X_t * Omega(Y; zeta^t):
    the geometric Y-series is stretched by r with its coefficients fixed."""
    out: dict = {}
    for t in range(order):
        label = WreathLabel.from_mapping(order, {t: (r,)})
        ys = stretch(omega_at_root(t, order, degree_cap // r), r)
        for nu, coeff in ys.terms.items():
            out[(label, nu)] = coeff * Fraction(1, order)
    return out


def _omega_composite_xy(order: int, size_cap: int, degree_cap: int) -> dict:
    """Expansion of the plethystic exponential of the composite alphabet,
    truncated to label size <= size_cap and Y-degree <= degree_cap."""
    powers = {
        r: _composite_power_xy(order, r, degree_cap) for r in range(1, size_cap + 1)
    }
    total: dict = {(_empty_label(order), ()): Fraction(1)}
    for k in range(1, size_cap + 1):
        for nu in partitions.partitions_of(k):
            term = {(_empty_label(order), ()): Fraction(1)}
            for part in nu:
                term = _two_sided_product(term, powers[part], size_cap, degree_cap, sum)
            _accumulate(total, term, Fraction(1, partitions.centralizer_order(nu)))
    return total


def kernel_identity_check(order: int, size_cap: int, degree_cap: int) -> CheckResult:
    """The generating function of all evaluation kernels, label by label,
    equals the plethystic exponential of the composite alphabet."""
    started = time.perf_counter()
    rhs = _omega_composite_xy(order, size_cap, degree_cap)
    lhs: dict = {}
    for k in range(size_cap + 1):
        for rho in wreath_class_labels(k, order):
            series = evaluation_kernel(rho, degree_cap)
            inv = Fraction(1, centralizer_order(rho))
            for nu, coeff in series.terms.items():
                lhs[(rho, nu)] = coeff * inv
    counterexample = _first_two_sided_mismatch(lhs, rhs)
    return _timed("kernel_identity", max(len(lhs), len(rhs)), counterexample, started)


def _first_two_sided_mismatch(lhs: dict, rhs: dict) -> dict | None:
    keys = set(lhs) | set(rhs)
    for label, nu in sorted(keys, key=lambda k: (k[0].sort_key(), k[1])):
        a = lhs.get((label, nu), 0)
        b = rhs.get((label, nu), 0)
        if a != b:
            return {
                "rho": format_label(label),
                "y_index": list(nu) if isinstance(nu, tuple) else format_label(nu),
                "lhs": repr(a),
                "rhs": repr(b),
            }
    return None


def restriction_formula_check(order: int, n_cap: int, degree_cap: int) -> CheckResult:
    """Extracting s_lam from the two-variable kernel reproduces the
    restriction characteristic, for every size and every fitting lam."""
    started = time.perf_counter()
    cells = 0
    for n in range(n_cap + 1):
        kernel = _omega_composite_xy(order, n, degree_cap)
        for k in range(degree_cap + 1):
            for lam in partitions.partitions_of(k):
                if len(lam) > n:
                    continue
                cells += 1
                slam = convert(s_basis(lam), "p")
                extracted: dict = {}
                for (label, nu), coeff in kernel.items():
                    if label.size != n:
                        continue
                    c2 = slam.terms.get(nu)
                    if c2 is None:
                        continue
                    key = label
                    updated = extracted.get(key, 0) + coeff * c2 * partitions.centralizer_order(nu)
                    if updated:
                        extracted[key] = updated
                    else:
                        extracted.pop(key, None)
                direct = restriction_characteristic(lam, n, order).terms
                keys = set(extracted) | set(direct)
                for label in sorted(keys, key=lambda l: l.sort_key()):
                    if extracted.get(label, 0) != direct.get(label, 0):
                        return _timed(
                            "restriction_formula",
                            cells,
                            {
                                "n": n,
                                "lambda": format_partition(lam),
                                "rho": format_label(label),
                                "kernel": repr(extracted.get(label, 0)),
                                "direct": repr(direct.get(label, 0)),
                            },
                            started,
                        )
    return _timed("restriction_formula", cells, None, started)


def alphabet_transform_check(order: int, degree_cap: int) -> CheckResult:
    """The isotypic average of the geometric kernels is the arithmetic
    progression of complete homogeneous terms, for every residue."""
    started = time.perf_counter()
    cells = 0
    for j in range(1, order + 1):
        acc = SymSeries("h", {}, degree_cap)
        for t in range(order):
            weight = zeta(order, j * t) * Fraction(1, order)
            acc = acc + omega_at_root(t, order, degree_cap) * weight
        expected_terms = {}
        k = 1
        while k * order - j <= degree_cap:
            deg = k * order - j
            expected_terms[(deg,) if deg else ()] = Fraction(1)
            k += 1
        expected = SymSeries("h", expected_terms, degree_cap)
        cells += 1
        if acc != expected:
            return _timed(
                "alphabet_transform",
                cells,
                {"j": j, "got": repr(acc), "expected": repr(expected)},
                started,
            )
    return _timed("alphabet_transform", cells, None, started)


def _composite_power_xx(order: int, r: int) -> dict:
    out = {}
    for t in range(order):
        label = WreathLabel.from_mapping(order, {t: (r,)})
        out[(label, label)] = Fraction(1, order)
    return out


def reproducing_kernel_check(order: int, size_cap: int) -> CheckResult:
    """Pairing the diagonal kernel against any P-basis element returns that
    element on the second set of alphabets."""
    started = time.perf_counter()
    powers = {r: _composite_power_xx(order, r) for r in range(1, size_cap + 1)}
    kernel: dict = {(_empty_label(order), _empty_label(order)): Fraction(1)}
    for k in range(1, size_cap + 1):
        for nu in partitions.partitions_of(k):
            term = {(_empty_label(order), _empty_label(order)): Fraction(1)}
            for part in nu:
                term = _two_sided_product(
                    term, powers[part], size_cap, size_cap, lambda lab: lab.size
                )
            _accumulate(kernel, term, Fraction(1, partitions.centralizer_order(nu)))
    cells = 0
    for k in range(size_cap + 1):
        for rho in wreath_class_labels(k, order):
            cells += 1
            z = centralizer_order(rho)
            paired: dict = {}
            for (lx, ly), coeff in kernel.items():
                if lx != rho:
                    continue
                value = coeff * z
                if value:
                    paired[ly] = value
            if paired != {rho: Fraction(1)}:
                return _timed(
                    "reproducing_kernel",
                    cells,
                    {"rho": format_label(rho), "paired": repr(sorted(
                        (format_label(l), repr(c)) for l, c in paired.items()
                    ))},
                    started,
                )
    return _timed("reproducing_kernel", cells, None, started)


def eigenvalue_substitution_check(order: int, n_cap: int, degree_cap: int) -> CheckResult:
    """Hall-pairing the evaluation kernel against s_lam agrees with the
    direct eigenvalue evaluation, including the vanishing cases."""
    started = time.perf_counter()
    cells = 0
    for n in range(n_cap + 1):
        for rho in wreath_class_labels(n, order):
            kernel = evaluation_kernel(rho, degree_cap)
            for k in range(degree_cap + 1):
                for lam in partitions.partitions_of(k):
                    cells += 1
                    paired = hall_inner_product(kernel, s_basis(lam))
                    direct = schur_at_eigenvalues(lam, rho)
                    if paired != direct:
                        return _timed(
                            "eigenvalue_substitution",
                            cells,
                            {
                                "rho": format_label(rho),
                                "lambda": format_partition(lam),
                                "paired": repr(paired),
                                "direct": repr(direct),
                            },
                            started,
                        )
    return _timed("eigenvalue_substitution", cells, None, started)


def evaluation_kernel_agreement_check(order: int, n_cap: int, degree_cap: int) -> CheckResult:
    """The power-sum definition of the evaluation kernel matches its
    geometric product formula."""
    started = time.perf_counter()
    cells = 0
    for n in range(n_cap + 1):
        for rho in wreath_class_labels(n, order):
            cells += 1
            direct = evaluation_kernel(rho, degree_cap)
            product = evaluation_kernel_product_form(rho, degree_cap)
            if direct != product:
                return _timed(
                    "evaluation_kernel_agreement",
                    cells,
                    {
                        "rho": format_label(rho),
                        "power_sum_form": repr(direct),
                        "product_form": repr(product),
                    },
                    started,
                )
    return _timed("evaluation_kernel_agreement", cells, None, started)


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------

def run_verification(order: int, n: int, degree_cap: int) -> VerificationReport:
    """Triple agreement of the three branching paths on every cell, plus the
    weighted dimension sums; any disagreement is reported with its cell."""
    report = VerificationReport({"m": order, "n": n, "max_degree": degree_cap})
    labels = wreath_class_labels(n, order)
    lambdas = branching._lambda_grid(n, degree_cap)

    main_path = _main_path(degree_cap)
    pairing_path = _pairing_path(order, n)
    average_path = _character_average_path()

    started = time.perf_counter()
    cells = 0
    counterexample = None
    table: dict[tuple[WreathLabel, Partition], int] = {}
    for rho in labels:
        for lam in lambdas:
            cells += 1
            try:
                main = main_path(rho, lam)
                pairing = pairing_path(rho, lam)
                average = average_path(rho, lam)
            except (NotRationalError, ArithmeticError) as exc:
                counterexample = {
                    "rho": format_label(rho),
                    "lambda": format_partition(lam),
                    "error": str(exc),
                }
                break
            table[(rho, lam)] = main
            if not (main == pairing == average):
                counterexample = {
                    "rho": format_label(rho),
                    "lambda": format_partition(lam),
                    "main": main,
                    "pairing": pairing,
                    "character_average": average,
                }
                break
        if counterexample:
            break
    report.checks.append(_timed("triple_agreement", cells, counterexample, started))

    started = time.perf_counter()
    counterexample = None
    cells = 0
    if report.checks[-1].passed:
        ident = identity_label(n, order)
        for lam in lambdas:
            cells += 1
            weighted = sum(
                table[(rho, lam)] * irreducible_dimension(rho) for rho in labels
            )
            expected = to_rational(schur_at_eigenvalues(lam, ident))
            if weighted != expected:
                counterexample = {
                    "lambda": format_partition(lam),
                    "weighted_sum": weighted,
                    "schur_at_identity": str(expected),
                }
                break
    report.checks.append(_timed("dimension_sums", cells, counterexample, started))
    return report


def run_numeric_suite(order: int, n: int, degree_cap: int) -> VerificationReport:
    """Numeric brute force over all monomial matrices against the exact path."""
    report = VerificationReport({"m": order, "n": n, "max_degree": degree_cap})
    main_path = _main_path(degree_cap)
    numeric_path = _numeric_path(order, n)
    started = time.perf_counter()
    cells = 0
    counterexample = None
    for rho in wreath_class_labels(n, order):
        for lam in branching._lambda_grid(n, degree_cap):
            cells += 1
            try:
                _numeric_detail(rho, lam, main_path(rho, lam), numeric_path(rho, lam))
            except ToleranceExceededError as exc:
                counterexample = exc.detail
                break
        if counterexample:
            break
    report.checks.append(_timed("numeric_matrix", cells, counterexample, started))
    return report


def run_identity_suite(order: int, size_cap: int, degree_cap: int) -> VerificationReport:
    """All truncated identity checks at one scope: the X-side label size is
    capped by size_cap and the Y-side degree by degree_cap."""
    report = VerificationReport({"m": order, "dx": size_cap, "dy": degree_cap})
    report.checks.append(kernel_identity_check(order, size_cap, degree_cap))
    report.checks.append(
        restriction_formula_check(order, size_cap, min(size_cap, degree_cap))
    )
    report.checks.append(alphabet_transform_check(order, degree_cap))
    report.checks.append(reproducing_kernel_check(order, size_cap))
    report.checks.append(eigenvalue_substitution_check(order, size_cap, degree_cap))
    report.checks.append(
        evaluation_kernel_agreement_check(order, size_cap, degree_cap)
    )
    return report
