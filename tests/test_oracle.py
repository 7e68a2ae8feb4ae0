from fractions import Fraction

import pytest

from bruteforce import conjugacy_class_size, pack
from wreathlitt import partitions
from wreathlitt.branching import HypothesisViolationError, branching_coefficient
from wreathlitt.oracle import (
    alphabet_transform_check,
    branching_by_character_average,
    branching_by_pairing,
    evaluation_kernel_agreement_check,
    kernel_identity_check,
    numeric_branching_estimate,
    reproducing_kernel_check,
    restriction_characteristics,
    restriction_formula_check,
    run_identity_suite,
    run_numeric_suite,
    run_verification,
    eigenvalue_substitution_check,
    _omega_composite_xy,
)
from wreathlitt.exactnum import Cyclotomic, NotRationalError, to_rational, zeta
from wreathlitt.symfunc import hall_inner_product, omega_at_root, p_basis, s_basis
from wreathlitt.wreath import (
    WreathLabel,
    _unpack,
    centralizer_order,
    evaluation_kernel,
    format_label,
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
        series = restriction_characteristics([()], n, order)[()]
        for rho in wreath_class_labels(n, order):
            assert series.terms[rho] == Fraction(1, centralizer_order(rho))
    # defining representation of GL_2 over the symmetric group S_2
    series = restriction_characteristics([(1,)], 2, 1)[(1,)]
    assert series.terms[lab(1, {0: (1, 1)})] == 1
    assert lab(1, {0: (2,)}) not in series.terms
    with pytest.raises(HypothesisViolationError):
        restriction_characteristics([(1, 1)], 1, 2)[(1, 1)]


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
            assert abs(numeric_branching_estimate(rho, lam) - branching_coefficient(rho, lam)) < 1e-9, (rho, lam)
    assert run_numeric_suite(1, 3, 3).passed
    assert run_numeric_suite(4, 1, 4).passed
    value = numeric_branching_estimate(lab(2, {0: (1,)}), (2,))
    assert abs(value - 1) < 1e-9


def test_numeric_suite_enumerates_the_group_once():
    # The traces of powers up to |lambda| are a prefix of those up to the
    # degree cap, so one enumeration serves every lambda of the suite.
    from wreathlitt.oracle import _group_trace_data

    _group_trace_data.cache_clear()
    assert run_numeric_suite(3, 3, 4).passed
    assert _group_trace_data.cache_info().misses == 1
    # the cache hands the same traces to every caller, so no caller may write to them
    traces = _group_trace_data(3, 3, 4)[1]
    assert isinstance(traces, tuple) and all(isinstance(row, tuple) for row in traces)
    with pytest.raises(TypeError):
        traces[1] = traces[0]
    with pytest.raises(TypeError):
        traces[1][0] = 0j


def _character_plus_one_at_21_3_call(monkeypatch):
    # +1 on chi^(2,1) at a 3-cycle, seen by callers of symmetric_group_character only
    true_character = partitions.symmetric_group_character

    def corrupted(lam, mu):
        value = true_character(lam, mu)
        return value + 1 if lam == (2, 1) and mu == (3,) else value

    monkeypatch.setattr(partitions, "symmetric_group_character", corrupted)


def test_numeric_suite_reports_arithmetic_errors(monkeypatch):
    # The main path's read-off fails its integrality guard at the 8th cell;
    # the suite reports it as that cell's counterexample instead of raising.
    _character_plus_one_at_21_3_call(monkeypatch)
    check = run_numeric_suite(2, 3, 3).checks[0]
    assert check.name == "numeric_matrix" and not check.passed
    assert (check.counterexample, check.cells) == (
        {"rho": "0:2,1", "lambda": "[]", "error": "multiplicity at [] came out 1/3"},
        8,
    )


def test_numeric_path_reads_the_patched_character(monkeypatch):
    # At m = 1 the main path stays integral; path C reads chi^(2,1) through
    # symmetric_group_character, so its estimate at (0:3, (2,1)) moves.
    _character_plus_one_at_21_3_call(monkeypatch)
    check = run_numeric_suite(1, 3, 3).checks[0]
    assert not check.passed and check.cells == 6
    detail = check.counterexample
    assert (detail["rho"], detail["lambda"], detail["exact"]) == ("0:3", "2,1", 1)
    assert abs(detail["numeric"][0] - 5 / 3) < 1e-9


def _first_trace_shifted(monkeypatch, shift=1e-6):
    # the first-power trace of the second enumerated element, a transposition, off by shift
    import wreathlitt.oracle as oracle_module

    true_data = oracle_module._group_trace_data

    def shifted(order, n, max_power):
        labels, traces = true_data(order, n, max_power)
        first, *rest = traces[1]
        return labels, (traces[0], (first + shift, *rest), *traces[2:])

    monkeypatch.setattr(oracle_module, "_group_trace_data", shifted)


def test_corrupted_element_trace_fails_only_path_c(monkeypatch):
    # Pinned as the suite reported it when path C summed element by element.
    _first_trace_shifted(monkeypatch)
    check = run_numeric_suite(2, 2, 3).checks[0]
    assert not check.passed and check.cells == 2
    detail = check.counterexample
    assert (detail["rho"], detail["lambda"], detail["exact"]) == ("0:2", "1", 0)
    assert abs(detail["numeric"][0] - 1.25e-7) < 1e-12
    assert run_verification(2, 2, 3).passed


@pytest.mark.parametrize("order, n", [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_numeric_class_sums_match_exact_schur_values(order, n):
    # Each class sums its elements' values, so the sum is the class size
    # times the exact value at the class, including lam with more rows than n.
    from wreathlitt.oracle import _numeric_class_sums

    sums = _numeric_class_sums(order, n, 4)
    for lam in _grid(4, 4):
        for sigma, total in zip(wreath_class_labels(n, order), sums(lam)):
            exact = conjugacy_class_size(sigma) * schur_at_eigenvalues(lam, sigma).to_complex()
            assert abs(total - exact) < 1e-9, (sigma, lam)


def test_numeric_mismatch_reports_cell(monkeypatch):
    import wreathlitt.oracle as oracle_module

    monkeypatch.setattr(oracle_module, "NUMERIC_TOLERANCE", 0.0)
    check = run_numeric_suite(1, 2, 2).checks[0]
    assert not check.passed and check.cells == 1
    assert (check.counterexample["rho"], check.counterexample["lambda"]) == ("0:2", "[]")


def test_kernel_identity_trivia():
    kernel = _omega_composite_xy(1, 2, 3)
    empty = WreathLabel(1, ())
    assert kernel.terms[empty].terms[()] == 1
    # the single-box label carries the full plethystic exponential in Y
    box = lab(1, {0: (1,)})
    assert kernel.terms[box] == omega_at_root(0, 1, 3)


def test_identity_checks_pass():
    assert kernel_identity_check(2, 3, 4).passed
    assert restriction_formula_check(2, 3, 3).passed
    assert alphabet_transform_check(4, 9).passed
    assert reproducing_kernel_check(2, 3).passed
    assert eigenvalue_substitution_check(2, 2, 4).passed
    assert evaluation_kernel_agreement_check(2, 2, 4).passed


def test_restriction_formula_builds_the_kernel_once(monkeypatch):
    # The kernel at the largest label size holds every smaller size unchanged.
    import wreathlitt.oracle as oracle_module

    calls = []

    def counted(*args):
        calls.append(args)
        return _omega_composite_xy(*args)

    monkeypatch.setattr(oracle_module, "_omega_composite_xy", counted)
    assert restriction_formula_check(2, 3, 3).passed
    assert calls == [(2, 3, 3)]


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
    """run_numeric_suite's report, rebuilt cell by cell from branching_coefficient
    and numeric_branching_estimate."""
    import wreathlitt.oracle as oracle_module

    cells, counterexample = 0, None
    for rho in wreath_class_labels(n, order):
        for lam in _grid(n, degree_cap):
            cells += 1
            exact, numeric = branching_coefficient(rho, lam), numeric_branching_estimate(rho, lam)
            if oracle_module._numeric_fails(exact, numeric):
                counterexample = oracle_module._numeric_detail(rho, lam, exact, numeric)
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


@pytest.mark.parametrize("order, n, degree_cap", [(1, 3, 4), (2, 3, 4), (3, 3, 5), (12, 2, 3)])
def test_integer_schur_columns_equal_the_packed_values(order, n, degree_cap):
    # The restriction characteristics, decoded from one evaluator's packed
    # integers, times z_sigma and packed as integer columns, against the
    # reference packing of each class's one-lambda value.
    classes, lambdas = wreath_class_labels(n, order), _grid(n, degree_cap)
    for lam, series in restriction_characteristics(lambdas, n, order).items():
        values = [series.terms.get(sigma, 0) * centralizer_order(sigma) for sigma in classes]
        assert pack(order, values) == pack(order, [schur_at_eigenvalues(lam, sigma) for sigma in classes]), lam


def test_corrupted_pairing_fails_only_path_a(monkeypatch):
    # One more than the true pairing in path A's cell at one (label, lambda).
    import wreathlitt.oracle as oracle_module

    true_path = oracle_module._pairing_path
    target = (lab(2, {0: (1,), 1: (2,)}), (2, 1))

    def corrupted(order, n, lambdas):
        path = true_path(order, n, lambdas)

        def row(rho):
            cell = path(rho)
            return lambda lam: cell(lam) + ((rho, lam) == target)

        return row

    monkeypatch.setattr(oracle_module, "_pairing_path", corrupted)
    check = run_verification(2, 3, 4).checks[0]
    assert check.name == "triple_agreement"
    assert (check.counterexample, check.cells) == PATH_A_FAULT


def test_corrupted_schur_values_fail_only_path_b(monkeypatch):
    # The corruption is in the evaluator that path B builds: the evaluator is
    # corrupted only while path B is built.  Path A's restriction
    # characteristics come from the true values, and the dimension sums read
    # theirs at the identity class only, so only the character average sees
    # the corrupted Schur evaluation.
    import wreathlitt.oracle as oracle_module

    true_evaluator, true_path = oracle_module.schur_evaluator, oracle_module._character_average_path
    target_sigma = lab(2, {0: (1,), 1: (2,)})

    def corrupted(lambdas, n):
        dens, bound, schur = true_evaluator(lambdas, n)
        # shifts a character average by the conjugated character value at sigma:
        # the constant digit of (2, 1)'s slot, which the bound now also covers
        i = lambdas.index((2, 1))
        shift = dens[i] * centralizer_order(target_sigma)
        return dens, bound + shift, lambda sigma, bits, spacing: schur(sigma, bits, spacing) + (
            shift << bits * spacing * i if sigma == target_sigma else 0
        )

    def path_on_corrupted_values(order, n, lambdas):
        with monkeypatch.context() as patch:
            patch.setattr(oracle_module, "schur_evaluator", corrupted)
            return true_path(order, n, lambdas)

    monkeypatch.setattr(oracle_module, "_character_average_path", path_on_corrupted_values)
    check = run_verification(2, 3, 4).checks[0]
    assert check.name == "triple_agreement"
    assert (check.counterexample, check.cells) == PATH_B_FAULT


def test_verification_builds_one_schur_evaluator_per_check(monkeypatch):
    # path A, path B and the dimension sums each build their own evaluator,
    # over the whole lambda grid, and no other evaluator is built
    import wreathlitt.oracle as oracle_module

    true_evaluator = oracle_module.schur_evaluator
    built = []

    def counted(lambdas, n):
        built.append(list(lambdas))
        return true_evaluator(lambdas, n)

    monkeypatch.setattr(oracle_module, "schur_evaluator", counted)
    assert run_verification(3, 3, 5).passed
    assert built == [_grid(3, 5)] * 3


def test_a_digit_one_bit_narrower_fails_verification(monkeypatch):
    # Every packed digit is as wide as _digit_bits of a checked bound.  One bit
    # fewer must fail a check, never pass: at the identity class, where the
    # dimension sums decode their Schur values at the narrowest width, some
    # coefficient needs the bound's top bit.  The cells' widths add a row's
    # whole character bound, so they keep a few bits to spare.
    import wreathlitt.oracle as oracle_module
    import wreathlitt.wreath as wreath_module

    true = wreath_module._digit_bits
    for module in (oracle_module, wreath_module):
        monkeypatch.setattr(module, "_digit_bits", lambda bound: true(bound) - 1)
    report = run_verification(3, 3, 5)
    assert not report.passed and report.first_failure().name == "dimension_sums"


def test_a_row_needing_wider_digits_repacks_the_schur_values(monkeypatch):
    # At (3, 3, 5) the tenth label's row needs fewer bits than the second, and
    # the second fewer than the first.  Read in that order, each wider row
    # repacks the Schur values once, at its own width, a narrower row reuses
    # the wider ones, and every cell keeps the value it has in table order.
    import wreathlitt.oracle as oracle_module

    labels, lambdas = wreath_class_labels(3, 3), _grid(3, 5)
    path = oracle_module._character_average_path(3, 3, lambdas)
    expected = [[path(rho)(lam) for lam in lambdas] for rho in labels]
    true_evaluator, widths = oracle_module.schur_evaluator, []

    def recorded(lambdas, n):
        dens, bound, at = true_evaluator(lambdas, n)

        def at_recorded(sigma, bits, spacing):
            widths.append(bits)
            return at(sigma, bits, spacing)

        return dens, bound, at_recorded

    monkeypatch.setattr(oracle_module, "schur_evaluator", recorded)
    path = oracle_module._character_average_path(3, 3, lambdas)
    for i in [9, 1, 0, 9, 1]:
        assert [path(labels[i])(lam) for lam in lambdas] == expected[i], i
    assert len(widths) == 3 * len(labels) and widths[::len(labels)] == sorted(set(widths))


def test_suites_build_each_row_once(monkeypatch):
    # Paths A and B each build a label's conjugated characters once, when
    # its row starts, and path C its complex characters once; each suite reads
    # the main path's rows from one run of the series builder.
    import wreathlitt.branching as branching_module
    import wreathlitt.oracle as oracle_module

    characteristics, builders = [], []
    true_characteristic, true_series = oracle_module.characters, branching_module.table_series

    def counted_characteristic(rho):
        characteristics.append(rho)
        return true_characteristic(rho)

    def counted_series(*scope):
        builders.append(scope)
        return true_series(*scope)

    monkeypatch.setattr(oracle_module, "characters", counted_characteristic)
    monkeypatch.setattr(branching_module, "table_series", counted_series)
    labels = wreath_class_labels(3, 3)
    assert run_verification(3, 3, 5).passed
    assert characteristics == [rho for rho in labels for path in "AB"] and builders == [(3, 3, 5)]
    characteristics.clear()
    builders.clear()
    assert run_numeric_suite(3, 3, 4).passed
    assert characteristics == labels and builders == [(3, 3, 4)]


def test_rows_hash_no_label(monkeypatch):
    # The characters come as a list by class position, and each path reads
    # them by position: once the merge tables, which are built from labels,
    # are filled, building a row and reading its cells hashes no label.
    import wreathlitt.oracle as oracle_module

    labels = wreath_class_labels(3, 3)
    for rho in labels:
        oracle_module.characters(rho)
    paths = [
        (oracle_module._pairing_path(3, 3, _grid(3, 5)), _grid(3, 5)),
        (oracle_module._character_average_path(3, 3, _grid(3, 5)), _grid(3, 5)),
        (oracle_module._numeric_path(3, 3, 4), _grid(3, 4)),
    ]
    hashed, true_hash = [], WreathLabel.__hash__

    def counted_hash(self):
        hashed.append(self)
        return true_hash(self)

    monkeypatch.setattr(WreathLabel, "__hash__", counted_hash)
    for path, lambdas in paths:
        for rho in labels:
            row = path(rho)
            for lam in lambdas:
                row(lam)
    assert hashed == []


def test_arithmetic_error_in_a_row_builder_is_reported_at_its_first_cell(monkeypatch):
    # Paths A, B and C read a label's characters when they build its row,
    # before any of its cells, so the error belongs to the row's first cell.
    import wreathlitt.oracle as oracle_module

    labels, lambdas = wreath_class_labels(2, 2), _grid(2, 3)
    true_characteristic = oracle_module.characters

    def failing(rho):
        if rho == labels[2]:
            raise ZeroDivisionError("no characteristic")
        return true_characteristic(rho)

    monkeypatch.setattr(oracle_module, "characters", failing)
    expected = ({"rho": format_label(labels[2]), "lambda": "[]", "error": "no characteristic"}, 2 * len(lambdas) + 1)
    for report in (run_verification(2, 2, 3), run_numeric_suite(2, 2, 3)):
        check = report.checks[0]
        assert (check.counterexample, check.cells) == expected


def _trace_with_conjugate_exponent(rho, r, bits):
    # p_r with zeta^(-j*r/l) for zeta^(j*r/l): a sign slip in the exponent
    m = rho.order
    return sum(ell << bits * (-j * (r // ell) % m) for j, part in rho.slots for ell in part if r % ell == 0)


def _cyclic_product_with_difference_exponent(a, b, m, bits):
    # x^(i-j) for x^i * x^j, on the packed operands' non-negative digits
    mask = (1 << bits) - 1
    xs, ys = ([(v >> bits * i) & mask for i in range(m)] for v in (a, b))
    return sum(x * y << bits * ((i - j) % m) for i, x in enumerate(xs) for j, y in enumerate(ys))


def _isotypic_factor_with_twist(twist):
    # the z-scaled closed-form slot factor s_lam[phi_j], with zeta^twist(j, sigma) at
    # sigma, by sigma's position among the labels of its size
    def factor(order, j, lam):
        terms = []
        for i, sigma in enumerate(wreath_class_labels(sum(lam), order)):
            cycle_type = tuple(sorted((c for _, part in sigma.slots for c in part), reverse=True))
            chi = partitions.symmetric_group_character(lam, cycle_type)
            if chi:
                terms.append((i, chi, twist(j, sigma)))
        return terms

    return factor


# zeta^(-jt) for zeta^(jt) on each cycle of slot t: the conjugate convention
_factor_with_conjugate_twist = _isotypic_factor_with_twist(
    lambda j, sigma: -j * sum(t * len(part) for t, part in sigma.slots)
)

# A wrong exponent in either integer helper of schur_at_eigenvalues, or the
# conjugate twist in the wreath characters, reaches paths A and B alike,
# never the main path.  At m = 2 the conjugate twist is the true one.
SCHUR_KERNEL_FAULT = ({"rho": "0:2;1:1", "lambda": "1", "main": 1, "pairing": 0, "character_average": 0}, 50)


@pytest.mark.parametrize("helper, corrupted", [
    ("_cyclic_trace", _trace_with_conjugate_exponent),
    ("_cyclic_product", _cyclic_product_with_difference_exponent),
    ("_schur_isotypic_factor", _factor_with_conjugate_twist),
])
def test_corrupted_schur_kernel_fails_main_against_both_oracles(helper, corrupted, monkeypatch):
    import wreathlitt.wreath as wreath_module

    monkeypatch.setattr(wreath_module, helper, corrupted)
    check = run_verification(3, 3, 5).checks[0]
    assert check.name == "triple_agreement"
    assert (check.counterexample, check.cells) == SCHUR_KERNEL_FAULT


@pytest.mark.parametrize("helper, corrupted", [
    ("_cyclic_trace", _trace_with_conjugate_exponent),
    ("_schur_isotypic_factor", _factor_with_conjugate_twist),
])
def test_schur_kernel_faults_are_caught_after_a_clean_run(helper, corrupted, monkeypatch):
    # A clean run first fills the label-structure tables of the Schur values
    # and the characters; a fault patched in after it still reaches both
    # oracles, so those tables hold no value either computes.
    import wreathlitt.wreath as wreath_module

    assert run_verification(3, 3, 5).passed
    monkeypatch.setattr(wreath_module, helper, corrupted)
    check = run_verification(3, 3, 5).checks[0]
    assert (check.counterexample, check.cells) == SCHUR_KERNEL_FAULT


def test_unconjugated_characters_fail_paths_a_and_b(monkeypatch):
    # Reading each label's characteristic at sigma, not at its inverse class,
    # pairs with the unconjugated character: paths A and B fail alike, at the
    # same cell as the conjugate twist.  At m <= 2 every class is its own
    # inverse, and path C conjugates in complex arithmetic, so both still pass.
    monkeypatch.setattr(WreathLabel, "inverse", lambda self: self)
    check = run_verification(3, 3, 5).checks[0]
    assert check.name == "triple_agreement"
    assert (check.counterexample, check.cells) == SCHUR_KERNEL_FAULT
    assert run_verification(2, 3, 5).passed
    assert run_numeric_suite(3, 3, 4).passed


PER_BOX_FAULT = {
    "rho": "0:1;1:2",
    "lambda": "2",
    "error": "pairing at (0:1;1:2, 2): expected a non-negative integer, got 1/2",
}


def test_isotypic_twist_per_box_fails_pairing_integrality(monkeypatch):
    # zeta^(jt) once per box of slot t, not once per cycle
    import wreathlitt.wreath as wreath_module

    per_box = _isotypic_factor_with_twist(lambda j, sigma: j * sum(t * sum(part) for t, part in sigma.slots))
    monkeypatch.setattr(wreath_module, "_schur_isotypic_factor", per_box)
    check = run_verification(3, 3, 5).checks[0]
    assert check.name == "triple_agreement" and not check.passed
    assert (check.counterexample, check.cells) == (PER_BOX_FAULT, 115)


# lambda = (1)'s Schur values times a factor, in both paths' evaluators, move
# the cell (0:1;1:1, (1)), whose multiplicity is 1, to that factor.  The
# errors are those the paths raised when each cell built its Cyclotomic with
# packed_dot and converted it to a Fraction, before cells were read as integers.
CELL_FAULTS = [
    (1 + zeta(3) * Fraction(2, 3), "Cyclotomic(1 + 2/3*z3) has a nonzero zeta-component"),
    (Fraction(1, 2), "{path} at (0:1;1:1, 1): expected a non-negative integer, got 1/2"),
    (-1, "{path} at (0:1;1:1, 1): expected a non-negative integer, got -1"),
]


@pytest.mark.parametrize("factor, message", CELL_FAULTS, ids=["not-rational", "half", "negative"])
def test_a_failing_integer_cell_raises_the_error_of_its_cyclotomic(factor, message, monkeypatch):
    import wreathlitt.oracle as oracle_module

    true_evaluator = oracle_module.schur_evaluator
    factor = factor * zeta(3, 0)

    def scaled(lambdas, n):
        # lambda = (1)'s polynomial times factor's numerators, mod x^3 - 1, in its slot
        dens, bound, schur = true_evaluator(lambdas, n)
        i = lambdas.index((1,))

        def at(sigma, bits, spacing):
            packed = schur(sigma, bits, spacing)
            slot = _unpack(packed, bits, (i + 1) * spacing)[i * spacing:i * spacing + 3]
            times = [0] * 3
            for k, c in enumerate(slot):
                for j, a in enumerate(factor.nums):
                    times[(k + j) % 3] += c * a
            change = sum(c - d << bits * e for e, (c, d) in enumerate(zip(times, slot)))
            return packed + (change << bits * spacing * i)

        dens = [den * factor.den if lam == (1,) else den for lam, den in zip(lambdas, dens)]
        return dens, bound * sum(map(abs, factor.nums)), at

    monkeypatch.setattr(oracle_module, "schur_evaluator", scaled)
    rho = lab(3, {0: (1,), 1: (1,)})
    for build, path in [(oracle_module._pairing_path, "pairing"), (oracle_module._character_average_path, "character average")]:
        with pytest.raises(NotRationalError) as info:
            build(3, 2, [(), (1,)])(rho)((1,))
        assert str(info.value) == message.format(path=path)
    # the suite reports path A's error, at the tenth cell
    check = run_verification(3, 2, 2).checks[0]
    error = message.format(path="pairing")
    assert (check.counterexample, check.cells) == ({"rho": "0:1;1:1", "lambda": "1", "error": error}, 10)


def _kernel_plus_box(true, rho, degree):
    # +1 at p_(1) in the kernel of every size-2 label whose slot 0 is (2)
    series = true(rho, degree)
    return series + p_basis((1,)) if rho.size == 2 and dict(rho.slots).get(0) == (2,) else series


def _restriction_doubled_at_21(true, lambdas, n, order):
    return {lam: series * 2 if lam == (2, 1) else series for lam, series in true(lambdas, n, order).items()}


def _centralizer_doubled_at_size_2(true, rho):
    return true(rho) * (2 if rho.size == 2 else 1)


def _omega_doubled_at_first_root(true, exponent, order, degree):
    series = true(exponent, order, degree)
    return series * 2 if exponent == 1 else series


def _schur_plus_one_at_21(true, lam, rho):
    # +1 on s_(2,1) at every size-2 label
    value = true(lam, rho)
    return value + 1 if lam == (2, 1) and rho.size == 2 else value


def _product_form_plus_box(true, rho, degree):
    # +1 at p_(1) in the product form of every size-2 label with a non-empty slot 1
    series = true(rho, degree)
    return series + p_basis((1,)) if rho.size == 2 and 1 in dict(rho.slots) else series


# For each identity check: the oracle input corrupted, how, the check's scope,
# and the first failing cell and cell count it reported while two-sided series
# were still dicts keyed by (label, index) pairs.  The alphabet_transform
# series show the same cell's power-sum coefficients, as every SymSeries
# repr does.
IDENTITY_FAULTS = {
    "kernel_identity": (
        "evaluation_kernel",
        _kernel_plus_box,
        lambda: kernel_identity_check(3, 3, 4),
        ({"rho": "0:2", "y_index": [1], "lhs": "Fraction(1, 6)", "rhs": "0"}, 346),
    ),
    "restriction_formula": (
        "restriction_characteristics",
        _restriction_doubled_at_21,
        lambda: restriction_formula_check(3, 3, 3),
        (
            {"n": 2, "lambda": "2,1", "rho": "2:1,1", "kernel": "Cyclotomic(1/9)", "direct": "Cyclotomic(2/9)"},
            11,
        ),
    ),
    "reproducing_kernel": (
        "centralizer_order",
        _centralizer_doubled_at_size_2,
        lambda: reproducing_kernel_check(3, 3),
        ({"rho": "0:2", "paired": "[('0:2', 'Fraction(2, 1)')]"}, 5),
    ),
    "alphabet_transform": (
        "omega_at_root",
        _omega_doubled_at_first_root,
        lambda: alphabet_transform_check(3, 4),
        (
            {
                "j": 1,
                "got": "SymSeries[p; D=4]((Cyclotomic(1/3*z3))*p[] + (Cyclotomic(-1/3 + -1/3*z3))*p[1]"
                " + (Cyclotomic(2/3))*p[2] + (Cyclotomic(2/3))*p[1, 1] + (Cyclotomic(1/9*z3))*p[3]"
                " + (Cyclotomic(1/6*z3))*p[2, 1] + (Cyclotomic(1/18*z3))*p[1, 1, 1]"
                " + (Cyclotomic(-1/12 + -1/12*z3))*p[4] + (Cyclotomic(-1/9 + -1/9*z3))*p[3, 1]"
                " + (Cyclotomic(-1/24 + -1/24*z3))*p[2, 2] + (Cyclotomic(-1/12 + -1/12*z3))*p[2, 1, 1]"
                " + (Cyclotomic(-1/72 + -1/72*z3))*p[1, 1, 1, 1])",
                "expected": "SymSeries[p; D=4]((1/2)*p[2] + (1/2)*p[1, 1])",
            },
            1,
        ),
    ),
    "eigenvalue_substitution": (
        "schur_at_eigenvalues",
        _schur_plus_one_at_21,
        lambda: eigenvalue_substitution_check(3, 3, 4),
        ({"rho": "0:2", "lambda": "2,1", "paired": "Fraction(0, 1)", "direct": "Cyclotomic(1)"}, 54),
    ),
    "evaluation_kernel_agreement": (
        "evaluation_kernel_product_form",
        _product_form_plus_box,
        lambda: evaluation_kernel_agreement_check(3, 3, 4),
        (
            {
                "rho": "0:1;1:1",
                "power_sum_form": "SymSeries[p; D=4]((1)*p[] + (Cyclotomic(1 + 1*z3))*p[1]"
                " + (Cyclotomic(-1/2*z3))*p[2] + (Cyclotomic(1/2*z3))*p[1, 1] + (Cyclotomic(2/3))*p[3]"
                " + (Cyclotomic(1/2))*p[2, 1] + (Cyclotomic(-1/6))*p[1, 1, 1] + (Cyclotomic(1/4 + 1/4*z3))*p[4]"
                " + (Cyclotomic(2/3 + 2/3*z3))*p[3, 1] + (Cyclotomic(-1/8 + -1/8*z3))*p[2, 2]"
                " + (Cyclotomic(1/4 + 1/4*z3))*p[2, 1, 1] + (Cyclotomic(-1/24 + -1/24*z3))*p[1, 1, 1, 1])",
                "product_form": "SymSeries[p; D=4]((Cyclotomic(1))*p[] + (Cyclotomic(2 + 1*z3))*p[1]"
                " + (Cyclotomic(-1/2*z3))*p[2] + (Cyclotomic(1/2*z3))*p[1, 1] + (Cyclotomic(2/3))*p[3]"
                " + (Cyclotomic(1/2))*p[2, 1] + (Cyclotomic(-1/6))*p[1, 1, 1] + (Cyclotomic(1/4 + 1/4*z3))*p[4]"
                " + (Cyclotomic(2/3 + 2/3*z3))*p[3, 1] + (Cyclotomic(-1/8 + -1/8*z3))*p[2, 2]"
                " + (Cyclotomic(1/4 + 1/4*z3))*p[2, 1, 1] + (Cyclotomic(-1/24 + -1/24*z3))*p[1, 1, 1, 1])",
            },
            7,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_FAULTS))
def test_corrupted_input_fails_identity_check(name, monkeypatch):
    import functools

    import wreathlitt.oracle as oracle_module

    target, corrupt, run, expected = IDENTITY_FAULTS[name]
    monkeypatch.setattr(oracle_module, target, functools.partial(corrupt, getattr(oracle_module, target)))
    check = run()
    assert check.name == name and not check.passed
    assert (check.counterexample, check.cells) == expected


def _dimension_plus_one_at_21(monkeypatch):
    # +1 on the dimension of every label whose slot 0 is (2, 1); the three
    # paths never read dimensions, so only the dimension sums can see it
    import wreathlitt.oracle as oracle_module

    true = oracle_module.irreducible_dimension
    monkeypatch.setattr(oracle_module, "irreducible_dimension", lambda rho: true(rho) + (dict(rho.slots).get(0) == (2, 1)))


def _character_plus_one_at_21_3(monkeypatch):
    # +1 on chi^(2,1) at a 3-cycle in the shared character table
    table = partitions.character_table(3)
    monkeypatch.setitem(table[(2, 1)], (3,), table[(2, 1)][(3,)] + 1)


# For each corruption: its scope, and each check's first failing cell and
# cell count as the suite reported them while every check kept its own loop.
VERIFICATION_FAULTS = {
    "dimension_only": (
        _dimension_plus_one_at_21,
        (2, 3, 4),
        [
            {"name": "triple_agreement", "passed": True, "cells": 110},
            {
                "name": "dimension_sums",
                "passed": False,
                "cells": 3,
                "counterexample": {"lambda": "2", "weighted_sum": 7, "schur_at_identity": "6"},
            },
        ],
    ),
    "character_table": (
        _character_plus_one_at_21_3,
        (2, 3, 3),
        [
            {
                "name": "triple_agreement",
                "passed": False,
                "cells": 8,
                "counterexample": {"rho": "0:2,1", "lambda": "[]", "error": "multiplicity at [] came out 1/3"},
            },
            {"name": "dimension_sums", "passed": True, "cells": 0},
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFICATION_FAULTS))
def test_corrupted_input_fails_verification_check(name, monkeypatch):
    corrupt, scope, expected = VERIFICATION_FAULTS[name]
    corrupt(monkeypatch)
    assert run_verification(*scope).to_json_obj()["checks"] == expected


def test_character_rows_are_read_per_run(monkeypatch):
    # Clean runs first: a row kept from them would hide the corruption below.
    assert run_verification(2, 3, 3).passed and run_verification(1, 2, 3).passed
    assert partitions.character_table(3) is partitions.character_table(3)
    corrupt, scope, expected = VERIFICATION_FAULTS["character_table"]
    corrupt(monkeypatch)
    assert run_verification(*scope).to_json_obj()["checks"] == expected
    # The plethysm for 0:2 never reads the degree-3 table, so here only the
    # main path's read-off row sees the edit (a stale row fails the pairing).
    check = run_verification(1, 2, 3).checks[0]
    assert (check.counterexample, check.cells) == (
        {"rho": "0:2", "lambda": "2,1", "error": "multiplicity at 2,1 came out 4/3"},
        6,
    )


def test_suites_check_the_series_the_table_builds(monkeypatch):
    # A builder that hands a slot's factors back in the wrong order, seen only
    # where one plethysms call builds several shapes: the table's series.  The
    # suites read that builder, so both fail; coeff's one-label series, which
    # has one shape per slot, stays right.
    import wreathlitt.branching as branching_module

    labels = [WreathLabel.from_mapping(2, {0: (2, 1), 1: (1,)}),
              WreathLabel.from_mapping(3, {0: (2,), 1: (1, 1)})]
    expected = {rho: branching_module.coefficient_and_series(rho, (3, 1)) for rho in labels}
    true_plethysms = branching_module.plethysms

    def reversed_factors(fs, g, max_degree=None):
        built = true_plethysms(fs, g, max_degree)
        return built[::-1] if len(fs) > 1 else built

    monkeypatch.setattr(branching_module, "plethysms", reversed_factors)
    assert run_verification(2, 3, 4).to_json_obj()["checks"] == [
        {
            "name": "triple_agreement",
            "passed": False,
            "cells": 8,
            "counterexample": {"rho": "0:3", "lambda": "4", "main": 1, "pairing": 2, "character_average": 2},
        },
        {"name": "dimension_sums", "passed": True, "cells": 0},
    ]
    check = run_numeric_suite(2, 3, 3).checks[0]
    assert not check.passed and check.cells == 15
    detail = check.counterexample
    assert (detail["rho"], detail["lambda"], detail["exact"]) == ("0:1,1,1", "[]", 1)
    assert abs(complex(*detail["numeric"])) < 1e-9
    for rho, (value, series) in expected.items():
        patched_value, patched_series = branching_module.coefficient_and_series(rho, (3, 1))
        assert (patched_value, patched_series.terms) == (value, series.terms)
