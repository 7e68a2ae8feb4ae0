from fractions import Fraction

import pytest

from wreathlitt import partitions
from wreathlitt.branching import HypothesisViolationError, branching_coefficient
from wreathlitt.oracle import (
    ToleranceExceededError,
    alphabet_transform_check,
    branching_by_character_average,
    branching_by_pairing,
    evaluation_kernel_agreement_check,
    kernel_identity_check,
    numeric_branching_estimate,
    numeric_matrix_check,
    reproducing_kernel_check,
    restriction_characteristic,
    restriction_formula_check,
    run_identity_suite,
    run_numeric_suite,
    run_verification,
    eigenvalue_substitution_check,
    _omega_composite_xy,
)
from wreathlitt.exactnum import to_rational
from wreathlitt.symfunc import convert, hall_inner_product, omega, p_basis, s_basis
from wreathlitt.wreath import (
    WreathLabel,
    WreathSeries,
    centralizer_order,
    evaluation_kernel,
    frobenius_characteristic,
    identity_label,
    irreducible_dimension,
    power_trace,
    schur_at_eigenvalues,
    wreath_class_labels,
)


def lab(order, mapping):
    return WreathLabel.from_mapping(order, mapping)


def test_restriction_characteristic_examples():
    # trivial representation: coefficient 1/Z at every class
    for order, n in [(1, 3), (2, 2), (3, 1)]:
        series = restriction_characteristic((), n, order)
        for rho in wreath_class_labels(n, order):
            assert series.coefficient(rho) == Fraction(1, centralizer_order(rho))
    # defining representation of GL_2 over the symmetric group S_2
    series = restriction_characteristic((1,), 2, 1)
    assert series.coefficient(lab(1, {0: (1, 1)})) == 1
    assert series.coefficient(lab(1, {0: (2,)})) == 0
    with pytest.raises(HypothesisViolationError):
        restriction_characteristic((1, 1), 1, 2)


def test_pairing_path_examples():
    assert branching_by_pairing(lab(2, {1: (1,)}), (1,)) == 1
    assert branching_by_pairing(lab(2, {0: (2,)}), ()) == 1
    assert branching_by_pairing(lab(2, {1: (2,)}), ()) == 0


def test_character_average_examples():
    assert branching_by_character_average(lab(1, {0: (1, 1)}), (2,)) == 1
    rho = lab(2, {1: (1, 1)})
    assert branching_by_character_average(rho, (1, 1)) == branching_by_pairing(rho, (1, 1))


def test_triple_agreement_small():
    for order, n in [(1, 3), (2, 2), (3, 1)]:
        for rho in wreath_class_labels(n, order):
            for size in range(4):
                for lam in partitions.partitions_of(size):
                    if len(lam) > n:
                        continue
                    a = branching_coefficient(rho, lam)
                    b = branching_by_pairing(rho, lam)
                    c = branching_by_character_average(rho, lam)
                    assert a == b == c, (rho, lam)


def test_numeric_path():
    for rho in wreath_class_labels(2, 2):
        for lam in [(), (1,), (2,), (1, 1)]:
            numeric_matrix_check(rho, lam)
    assert run_numeric_suite(1, 3, 3).passed
    assert run_numeric_suite(4, 1, 4).passed
    value = numeric_branching_estimate(lab(2, {0: (1,)}), (2,))
    assert abs(value - 1) < 1e-9


def test_numeric_mismatch_reports_cell(monkeypatch):
    import wreathlitt.oracle as oracle_module

    monkeypatch.setattr(oracle_module, "NUMERIC_TOLERANCE", 0.0)
    with pytest.raises(ToleranceExceededError) as info:
        numeric_matrix_check(lab(1, {0: (2,)}), (2,))
    assert info.value.detail["rho"] == "0:2"


def test_kernel_identity_trivia():
    kernel = _omega_composite_xy(1, 2, 3)
    empty = WreathLabel(1, ((),))
    assert kernel[(empty, ())] == 1
    # the single-box label carries the full plethystic exponential in Y
    box = lab(1, {0: (1,)})
    for nu, coeff in convert(omega(3), "p").terms.items():
        assert kernel[(box, nu)] == coeff


def test_identity_checks_pass():
    assert kernel_identity_check(2, 3, 4).passed
    assert restriction_formula_check(2, 3, 3).passed
    assert alphabet_transform_check(4, 9).passed
    assert reproducing_kernel_check(2, 3).passed
    assert eigenvalue_substitution_check(2, 2, 4).passed
    assert evaluation_kernel_agreement_check(2, 2, 4).passed


def test_substitution_trivia():
    rho = lab(2, {1: (2,)})
    kernel = evaluation_kernel(rho, 3)
    assert hall_inner_product(kernel, p_basis((1,))) == power_trace(rho, 1)
    assert hall_inner_product(kernel, s_basis((2,))) == -1


def test_run_verification_report_shape():
    report = run_verification(2, 2, 3)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["triple_agreement", "dimension_sums"]
    obj = report.to_json_obj()
    assert obj["passed"] is True
    assert all("seconds" not in c for c in obj["checks"])
    timed = report.to_json_obj(with_timing=True)
    assert all("seconds" in c for c in timed["checks"])


def test_identity_suite_empty_scope_is_vacuous_pass():
    report = run_identity_suite(2, 0, 0)
    assert report.passed
    assert all(c.cells >= 0 for c in report.checks)


def test_fault_injection_produces_counterexample(monkeypatch):
    true_character = partitions.symmetric_group_character

    def corrupted(lam, mu):
        value = true_character(lam, mu)
        if lam == (2, 1) and mu == (3,):
            return value + 1
        return value

    monkeypatch.setattr(partitions, "symmetric_group_character", corrupted)
    report = run_verification(1, 3, 3)
    assert not report.passed
    failure = report.first_failure()
    assert failure.name == "triple_agreement"
    assert "rho" in failure.counterexample and "lambda" in failure.counterexample


def test_fault_injection_symmetric_flip_caught_by_dimension_sums(monkeypatch):
    # flipping chi^(2)((2)) perturbs the main and pairing paths identically,
    # so the weighted dimension sums are the check that has to catch it
    true_character = partitions.symmetric_group_character

    def flipped(lam, mu):
        value = true_character(lam, mu)
        if lam == (2,) and mu == (2,):
            return -value
        return value

    monkeypatch.setattr(partitions, "symmetric_group_character", flipped)
    report = run_verification(1, 2, 2)
    assert not report.passed
    failure = report.first_failure()
    assert failure is not None and failure.counterexample is not None


# ----------------------------------------------------------------------
# The suites build each path's values once per label or lambda; these tests
# check that this changes no report, and that the paths stay independent.
# ----------------------------------------------------------------------

def _grid(n, degree_cap):
    return [lam for k in range(degree_cap + 1) for lam in partitions.partitions_of(k) if len(lam) <= n]


def _per_cell_verification(order, n, degree_cap):
    """run_verification's report, rebuilt from the per-cell functions."""
    labels, lambdas = wreath_class_labels(n, order), _grid(n, degree_cap)
    table = {}
    for rho in labels:
        for lam in lambdas:
            value = branching_coefficient(rho, lam)
            assert branching_by_pairing(rho, lam) == value == branching_by_character_average(rho, lam)
            table[(rho, lam)] = value
    ident = identity_label(n, order)
    for lam in lambdas:
        weighted = sum(table[(rho, lam)] * irreducible_dimension(rho) for rho in labels)
        assert weighted == to_rational(schur_at_eigenvalues(lam, ident)), lam
    return {
        "scope": {"m": order, "n": n, "max_degree": degree_cap},
        "passed": True,
        "checks": [
            {"name": "triple_agreement", "passed": True, "cells": len(labels) * len(lambdas)},
            {"name": "dimension_sums", "passed": True, "cells": len(lambdas)},
        ],
    }


@pytest.mark.parametrize("order, n, degree_cap", [(1, 4, 5), (2, 3, 4), (3, 2, 4)])
def test_run_verification_matches_per_cell_reference(order, n, degree_cap):
    expected = _per_cell_verification(order, n, degree_cap)
    assert run_verification(order, n, degree_cap).to_json_obj() == expected


def _per_cell_numeric(order, n, degree_cap):
    """run_numeric_suite's report, rebuilt from numeric_matrix_check."""
    cells, counterexample = 0, None
    for rho in wreath_class_labels(n, order):
        for lam in _grid(n, degree_cap):
            cells += 1
            try:
                numeric_matrix_check(rho, lam)
            except ToleranceExceededError as exc:
                counterexample = exc.detail
                break
        if counterexample:
            break
    check = {"name": "numeric_matrix", "passed": counterexample is None, "cells": cells}
    if counterexample:
        check["counterexample"] = counterexample
    return {"scope": {"m": order, "n": n, "max_degree": degree_cap}, "passed": check["passed"], "checks": [check]}


@pytest.mark.parametrize("tolerance", [1e-9, 0.0], ids=["pass", "fail"])
@pytest.mark.parametrize("order, n, degree_cap", [(1, 3, 4), (2, 2, 4), (3, 2, 3)])
def test_run_numeric_suite_matches_per_cell_reference(order, n, degree_cap, tolerance, monkeypatch):
    # A zero tolerance fails the first cell with any rounding error, so the
    # counterexample compares the two estimates bit for bit.
    import wreathlitt.oracle as oracle_module

    monkeypatch.setattr(oracle_module, "NUMERIC_TOLERANCE", tolerance)
    expected = _per_cell_numeric(order, n, degree_cap)
    assert expected["passed"] == (tolerance > 0)
    assert run_numeric_suite(order, n, degree_cap).to_json_obj() == expected


# First failing cell and cell count of each corruption below, as reported by
# the per-cell verification (captured before the suites built values per row).
PATH_A_FAULT = ({"rho": "0:1;1:2", "lambda": "2,1", "main": 0, "pairing": 1, "character_average": 0}, 61)
PATH_B_FAULT = ({"rho": "0:3", "lambda": "2,1", "main": 0, "pairing": 0, "character_average": 1}, 6)


def test_corrupted_pairing_fails_only_path_a(monkeypatch):
    import wreathlitt.oracle as oracle_module

    true_pairing = oracle_module.wreath_inner_product
    target_lam = restriction_characteristic((2, 1), 3, 2)
    target_rho = frobenius_characteristic(lab(2, {0: (1,), 1: (2,)})).conjugate()

    def corrupted(f, g):
        value = true_pairing(f, g)
        return value + 1 if f == target_lam and g == target_rho else value

    monkeypatch.setattr(oracle_module, "wreath_inner_product", corrupted)
    check = run_verification(2, 3, 4).checks[0]
    assert check.name == "triple_agreement"
    assert (check.counterexample, check.cells) == PATH_A_FAULT


def test_corrupted_schur_values_fail_only_path_b(monkeypatch):
    # Path A's restriction characteristic is rebuilt from the true values, so
    # only the character average sees the corrupted Schur evaluation.
    import wreathlitt.oracle as oracle_module

    true_schur = oracle_module.schur_at_eigenvalues
    target_sigma = lab(2, {0: (1,), 1: (2,)})

    def corrupted(lam, sigma):
        value = true_schur(lam, sigma)
        # shifts a character average by the conjugated character value at sigma
        return value + centralizer_order(sigma) if lam == (2, 1) and sigma == target_sigma else value

    def restriction_from_true_values(lam, n, order):
        terms = {
            sigma: true_schur(lam, sigma) * Fraction(1, centralizer_order(sigma))
            for sigma in wreath_class_labels(n, order)
        }
        return WreathSeries(order, terms)

    monkeypatch.setattr(oracle_module, "schur_at_eigenvalues", corrupted)
    monkeypatch.setattr(oracle_module, "restriction_characteristic", restriction_from_true_values)
    check = run_verification(2, 3, 4).checks[0]
    assert check.name == "triple_agreement"
    assert (check.counterexample, check.cells) == PATH_B_FAULT
