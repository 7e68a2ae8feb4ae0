"""Acceptance gate: every criterion at its full stated scope.

Each test prints one pass/fail line (visible with `pytest -s`); a failed
assertion carries the first counterexample.  The whole module is sized to
finish in well under the stated budgets on a laptop.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bruteforce import conjugate, h_basis, p_basis, young_permutation_character
from wreathlitt import branching, partitions
from wreathlitt.branching import branching_coefficient
from wreathlitt.exactnum import Cyclotomic
from wreathlitt.oracle import (
    alphabet_transform_check,
    evaluation_kernel_agreement_check,
    kernel_identity_check,
    reproducing_kernel_check,
    restriction_formula_check,
    run_numeric_suite,
    run_verification,
    eigenvalue_substitution_check,
)
from wreathlitt.partitions import partitions_of
from wreathlitt.symfunc import SymSeries, hall_inner_product, plethysm, s_basis
from wreathlitt.wreath import (
    WreathLabel,
    centralizer_order,
    characters,
    wreath_class_labels,
)

MAIN_SCOPE = [(1, n) for n in range(1, 6)] + [(2, n) for n in range(1, 5)] + [
    (3, 1),
    (3, 2),
    (3, 3),
    (4, 1),
    (4, 2),
    (4, 3),
]

# Wider scopes, run with `pytest -m slow`: (m, n, max_degree).
SLOW_SCOPE = [(4, 4, 4), (3, 4, 6), (2, 6, 10), (3, 5, 8), (1, 8, 12)]


def _report(label: str, ok: bool, detail=None):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, (label, detail)


@pytest.fixture(scope="module")
def verification_reports():
    return {(m, n): run_verification(m, n, n + 2) for m, n in MAIN_SCOPE}


def test_criterion_1_triple_agreement(verification_reports):
    bad = {
        key: report.checks[0].counterexample
        for key, report in verification_reports.items()
        if not report.checks[0].passed
    }
    total = sum(report.checks[0].cells for report in verification_reports.values())
    _report(
        f"criterion 1: triple agreement on every cell ({total} cells)",
        not bad,
        bad,
    )


@pytest.mark.slow
@pytest.mark.parametrize("order, n, degree_cap", SLOW_SCOPE)
def test_triple_agreement_and_dimension_sums_wide(order, n, degree_cap):
    report = run_verification(order, n, degree_cap)
    agreement = report.checks[0]
    _report(
        f"wide scope {(order, n, degree_cap)}: triple agreement ({agreement.cells} cells)"
        " and dimension sums",
        report.passed,
        [check.counterexample for check in report.checks],
    )
    assert agreement.cells == len(wreath_class_labels(n, order)) * len(
        branching._lambda_grid(n, degree_cap)
    )


def test_criterion_2_littlewood_classical_decompositions():
    # m = 1: the multiplicity of the Specht module mu in V^lambda restricted to S_n
    failures = []
    for n in range(2, 6):
        for mu in partitions_of(n):
            expected = 1 if mu in ((n,), (n - 1, 1)) else 0
            if branching_coefficient(WreathLabel.from_mapping(1, {0: mu}), (1,)) != expected:
                failures.append(("defining", n, mu))
    for n in range(2, 5):
        for mu in partitions_of(n):
            expected = 1 if mu == (1,) * n else 0
            if branching_coefficient(WreathLabel.from_mapping(1, {0: mu}), (1,) * n) != expected:
                failures.append(("alternating", n, mu))
    _report("criterion 2: classical decompositions of V^(1) and V^(1^n)", not failures, failures)


def test_criterion_3_dimension_sums(verification_reports):
    bad = {
        key: report.checks[1].counterexample
        for key, report in verification_reports.items()
        if not report.checks[1].passed
    }
    _report("criterion 3: weighted dimension sums equal s_lambda(1^n)", not bad, bad)


def test_criterion_4_identity_suite():
    results = []
    for m in (1, 2, 3):
        results.append(kernel_identity_check(m, 3, 4))
        results.append(restriction_formula_check(m, 3, 3))
        results.append(reproducing_kernel_check(m, 3))
        results.append(eigenvalue_substitution_check(m, 3, 4))
        results.append(evaluation_kernel_agreement_check(m, 3, 5))
    for m in range(1, 7):
        results.append(alphabet_transform_check(m, 12))
    bad = [(r.name, r.counterexample) for r in results if not r.passed]
    _report(f"criterion 4: identity suite ({len(results)} checks)", not bad, bad)


def test_criterion_5_numeric_brute_force():
    bad = []
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            report = run_numeric_suite(m, n, 4)
            if not report.passed:
                bad.append(((m, n), report.first_failure().counterexample))
    _report("criterion 5: numeric monomial-matrix brute force", not bad, bad)


def test_criterion_6_symmetric_function_kernel_properties():
    failures = []

    # h into power sums to degree 8: <h_mu, p_nu> is the permutation
    # character of the Young subgroup S_mu at the cycle type nu
    for k in range(9):
        for mu in partitions_of(k):
            for nu in partitions_of(k):
                if hall_inner_product(h_basis(mu), p_basis(nu)) != young_permutation_character(mu, nu):
                    failures.append(("h_to_p", mu, nu))

    # Schur orthonormality to degree 7
    shapes = [lam for k in range(8) for lam in partitions_of(k)]
    expansions = {lam: s_basis(lam) for lam in shapes}
    for a in shapes:
        for b in shapes:
            want = 1 if a == b else 0
            if hall_inner_product(expansions[a], expansions[b]) != want:
                failures.append(("schur_orthonormality", a, b))

    # plethysm laws to degree 6
    rng = random.Random(60221023)

    def random_poly(degree):
        f = SymSeries({})
        for k in range(degree + 1):
            for lam in partitions_of(k):
                if rng.random() < 0.3:
                    f = f + p_basis(lam, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return f

    for _ in range(3):
        f1, f2 = random_poly(3), random_poly(3)
        g = SymSeries(random_poly(6).terms, 6)
        if plethysm(f1 * f2, g, 6).terms != (plethysm(f1, g, 6) * plethysm(f2, g, 6)).terms:
            failures.append(("plethysm_product",))
        if plethysm(f1 + f2, g, 6).terms != (plethysm(f1, g, 6) + plethysm(f2, g, 6)).terms:
            failures.append(("plethysm_sum",))
    g = SymSeries(random_poly(16).terms, 16)
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            lhs = plethysm(p_basis((a,)), plethysm(p_basis((b,)), g, 16), 16)
            rhs = plethysm(p_basis((a * b,)), g, 16)
            if SymSeries(lhs.terms, 6) != SymSeries(rhs.terms, 6):
                failures.append(("plethysm_associativity", a, b))

    # symmetric group character orthogonality to degree 7
    for n in range(1, 8):
        shapes_n = partitions_of(n)
        columns = list(zip(*partitions.character_table(n)))
        for mu, column_mu in zip(shapes_n, columns):
            for nu, column_nu in zip(shapes_n, columns):
                total = sum(a * b for a, b in zip(column_mu, column_nu))
                want = partitions.centralizer_order(mu) if mu == nu else 0
                if total != want:
                    failures.append(("character_orthogonality", n, mu, nu))

    # wreath character orthogonality for m <= 3, n <= 3
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            labels = wreath_class_labels(n, m)
            chars = {rho: dict(zip(labels, (Cyclotomic(m, nums, 1) for nums in characters(rho)))) for rho in labels}
            for a in labels:
                for b in labels:
                    total = 0
                    for s in labels:
                        pair = chars[a][s] * conjugate(chars[b][s])
                        total = total + Fraction(1, centralizer_order(s)) * pair
                    if total != (1 if a == b else 0):
                        failures.append(("wreath_orthogonality", m, n, a, b))

    _report("criterion 6: symmetric-function kernel properties", not failures, failures)


def test_criterion_7_output_determinism():
    base = [
        sys.executable, "-m", "wreathlitt.cli",
        "table", "--m", "2", "--n", "2", "--max-deg", "3", "--format", "csv",
    ]
    outputs = []
    for _ in range(3):
        proc = subprocess.run(base, capture_output=True)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    _report("criterion 7: byte-identical table output across runs", ok)
