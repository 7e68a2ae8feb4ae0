import random
from fractions import Fraction
from math import comb

import pytest

from bruteforce import h_k_mono, schur_decompose
from wreathlitt.exactnum import zeta
from wreathlitt.partitions import centralizer_order, multiplicities, partitions_of
from wreathlitt.symfunc import (
    DegreeOutOfRangeError,
    SymSeries,
    TruncationTooShortError,
    _graded_product,
    _scaled,
    constant,
    convert,
    h_basis,
    hall_inner_product,
    omega,
    omega_at_root,
    p_basis,
    plethysm,
    s_basis,
    schur_coefficient,
    series_from_json,
    series_to_json,
    stretch,
)


def test_conversion_examples():
    h2 = convert(h_basis((2,)), "p")
    assert h2.terms == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    s11 = convert(s_basis((1, 1)), "p")
    assert s11.terms == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    assert convert(p_basis((1,)), "s") == s_basis((1,))


def _random_series(rng, basis, degree, scale=4, exact=False):
    terms = {}
    for k in range(degree + 1):
        for lam in partitions_of(k):
            if rng.random() < 0.4:
                terms[lam] = Fraction(rng.randint(-scale, scale), rng.randint(1, scale))
    return SymSeries(basis, terms, None if exact else degree)


@pytest.mark.parametrize("src,dst", [("p", "h"), ("p", "s"), ("h", "s"), ("h", "p"), ("s", "p"), ("s", "h")])
def test_conversion_round_trips(src, dst):
    rng = random.Random(20240801)
    for _ in range(4):
        f = _random_series(rng, src, 8)
        back = convert(convert(f, dst), src)
        assert back.terms == f.terms, (src, dst)


def test_hall_pairing_examples():
    assert hall_inner_product(p_basis((2,)), p_basis((2,))) == 2
    assert hall_inner_product(p_basis((1, 1)), p_basis((2,))) == 0
    assert hall_inner_product(s_basis((2, 1)), s_basis((2, 1))) == 1
    assert hall_inner_product(s_basis((2, 1)), s_basis((3,))) == 0
    assert hall_inner_product(constant(Fraction(1)), constant(Fraction(1))) == 1


def test_hall_pairing_is_symmetric_and_bilinear():
    rng = random.Random(7)
    f, g, h = (_random_series(rng, "p", 5) for _ in range(3))
    assert hall_inner_product(f, g) == hall_inner_product(g, f)
    assert hall_inner_product(f + h, g) == hall_inner_product(f, g) + hall_inner_product(h, g)
    c = Fraction(3, 2)
    assert hall_inner_product(c * f, g) == c * hall_inner_product(f, g)


def test_schur_orthonormality_small():
    shapes = [lam for k in range(6) for lam in partitions_of(k)]
    for a in shapes:
        for b in shapes:
            assert hall_inner_product(s_basis(a), s_basis(b)) == (1 if a == b else 0)


def test_plethysm_power_sum_rules():
    assert plethysm(p_basis((2,)), p_basis((3,))).terms == {(6,): Fraction(1)}
    for n in (1, 2, 3):
        one_plus_h1 = constant(Fraction(1)) + convert(h_basis((1,)), "p")
        result = plethysm(p_basis((n,)), one_plus_h1)
        assert result.terms == {(): Fraction(1), (n,): Fraction(1)}


def test_plethysm_h2_h2_against_monomial_bruteforce():
    # expand h_2 of the ten degree-2 monomials in four variables, decompose
    nvars = 4
    monos = sorted(h_k_mono(2, nvars))
    expanded = {}
    for i in range(len(monos)):
        for j in range(i, len(monos)):
            key = tuple(a + b for a, b in zip(monos[i], monos[j]))
            expanded[key] = expanded.get(key, 0) + 1
    expected = schur_decompose(expanded, nvars)
    assert expected == {(4,): 1, (2, 2): 1}

    lib = convert(plethysm(h_basis((2,)), h_basis((2,))), "s")
    assert lib.terms == {(4,): Fraction(1), (2, 2): Fraction(1)}


def test_plethysm_is_ring_homomorphism_in_left_argument():
    rng = random.Random(99)
    for _ in range(3):
        # the left arguments must be exact polynomials, or the product
        # f1*f2 would silently drop the cross terms above the truncation
        f1 = _random_series(rng, "p", 3, scale=3, exact=True)
        f2 = _random_series(rng, "p", 3, scale=3, exact=True)
        g = _random_series(rng, "p", 6, scale=3)
        lhs = plethysm(f1 * f2, g, 6)
        rhs = plethysm(f1, g, 6) * plethysm(f2, g, 6)
        assert lhs.terms == rhs.terms
        lhs = plethysm(f1 + f2, g, 6)
        rhs = plethysm(f1, g, 6) + plethysm(f2, g, 6)
        assert lhs.terms == rhs.terms


def test_plethysm_associativity_on_power_sums():
    rng = random.Random(5)
    g = _random_series(rng, "p", 16, scale=3)
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            inner = plethysm(p_basis((b,)), g, 16)
            lhs = plethysm(p_basis((a,)), inner, 16)
            rhs = plethysm(p_basis((a * b,)), g, 16)
            assert lhs.restricted(6).terms == rhs.restricted(6).terms


def test_plethysm_truncation_guard_and_stability():
    g = omega(4)
    with pytest.raises(TruncationTooShortError):
        plethysm(s_basis((2, 1)), g, 5)
    small = plethysm(s_basis((2, 1)), g, 4)
    large = plethysm(s_basis((2, 1)), omega(7), 7)
    assert small.terms == large.restricted(4).terms


def test_stretch_keeps_constants_and_coefficients():
    f = constant(Fraction(2)) + p_basis((2, 1), Fraction(3, 5))
    g = stretch(f, 3)
    assert g.terms == {(): Fraction(2), (6, 3): Fraction(3, 5)}
    # cyclotomic coefficients pass through untouched:
    # 1 + z4*h1 - h2 = 1 + z4*p1 - p11/2 - p2/2, stretched by 2
    h = stretch(omega_at_root(1, 4, 2), 2)
    assert h.coefficient(()) == 1
    assert h.coefficient((2,)) == zeta(4)
    assert h.coefficient((4,)) == Fraction(-1, 2)
    assert h.coefficient((2, 2)) == Fraction(-1, 2)


def test_omega():
    assert omega(0).terms == {(): Fraction(1)}
    assert omega(3).terms == {(): 1, (1,): 1, (2,): 1, (3,): 1}
    in_p = convert(omega(2), "p")
    assert in_p.terms == {
        (): Fraction(1),
        (1,): Fraction(1),
        (1, 1): Fraction(1, 2),
        (2,): Fraction(1, 2),
    }


def test_omega_at_root():
    assert omega_at_root(0, 3, 4) == omega(4)
    alt = omega_at_root(1, 2, 3)
    assert alt.coefficient((1,)) == -1
    assert alt.coefficient((2,)) == 1
    assert alt.coefficient((3,)) == -1
    quarter = omega_at_root(1, 4, 2)
    assert quarter.coefficient(()) == 1
    assert quarter.coefficient((1,)) == zeta(4)
    assert quarter.coefficient((2,)) == -1


def test_schur_coefficient():
    assert schur_coefficient(s_basis((2, 1)), (2, 1)) == 1
    assert schur_coefficient(h_basis((2,)), (1, 1)) == 0
    p1_squared = p_basis((1,)) * p_basis((1,))
    assert schur_coefficient(p1_squared, (2,)) == 1
    with pytest.raises(DegreeOutOfRangeError):
        schur_coefficient(omega(2), (3,))


def test_equality_across_bases_and_scalar_types():
    assert convert(h_basis((2,)), "p") == h_basis((2,))
    assert omega_at_root(0, 5, 3) == omega(3)


def test_json_round_trip():
    rng = random.Random(11)
    f = _random_series(rng, "h", 5)
    obj = series_to_json(f)
    g = series_from_json(obj)
    assert g.basis == f.basis and g.truncation == f.truncation and g.terms == f.terms
    # entries are sorted by degree then reverse-lexicographically
    degrees = [sum(e["partition"]) for e in obj["terms"]]
    assert degrees == sorted(degrees)


# ----------------------------------------------------------------------
# The z-scaled kernel: F_mu = z_mu [p_mu] f, checked against the Fraction
# definitions and against the plain loops it replaced.
# ----------------------------------------------------------------------


def test_scaled_h_is_all_ones():
    for k in range(7):
        assert _scaled(h_basis((k,), 1)) == dict.fromkeys(partitions_of(k), 1)
        in_p = convert(h_basis((k,)), "p")
        for mu in partitions_of(k):
            assert in_p.terms[mu] == Fraction(1, centralizer_order(mu))
            assert hall_inner_product(h_basis((k,)), p_basis(mu)) == 1


def test_scaled_stretch_multiplies_by_r_to_the_length():
    rng = random.Random(3)
    g = _random_series(rng, "p", 6)
    for r in (1, 2, 3):
        stretched = _scaled(stretch(g, r))
        for nu, coeff in _scaled(g).items():
            r_nu = tuple(r * part for part in nu)
            assert stretched[r_nu] == r ** len(nu) * coeff
            assert hall_inner_product(stretch(g, r), p_basis(r_nu)) == r ** len(nu) * hall_inner_product(
                g, p_basis(nu)
            )
        # the kernel's own stretch inside plethysm agrees with stretch()
        assert plethysm(p_basis((r,)), g, 6).terms == stretch(g, r).restricted(6).terms


def test_scaled_merge_factor_is_a_product_of_binomials():
    shapes = [lam for k in range(5) for lam in partitions_of(k)]
    for a in shapes:
        for b in shapes:
            merged = tuple(sorted(a + b, reverse=True))
            ma, mb = multiplicities(a), multiplicities(b)
            factor = 1
            for part in set(ma) | set(mb):
                factor *= comb(ma.get(part, 0) + mb.get(part, 0), ma.get(part, 0))
            assert _graded_product({a: 1}, {b: 1}, None) == {merged: factor}
            assert factor == Fraction(
                centralizer_order(merged), centralizer_order(a) * centralizer_order(b)
            )
            assert hall_inner_product(p_basis(a) * p_basis(b), p_basis(merged)) == centralizer_order(merged)


def _reference_product(f, g):
    # The plain merge loop on power-sum coefficients.
    f, g = convert(f, "p"), convert(g, "p")
    trunc = min(f.truncation, g.truncation)
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            if sum(a) + sum(b) <= trunc:
                key = tuple(sorted(a + b, reverse=True))
                out[key] = out.get(key, 0) + ca * cb
    return SymSeries("p", out, trunc)


def _reference_plethysm(f, g, degree):
    # Product of stretched copies of g for each p_mu of f, no prefix sharing.
    total = {}
    for mu, coeff in convert(f, "p").terms.items():
        prod = constant(Fraction(1), truncation=degree)
        for part in mu:
            prod = _reference_product(prod, stretch(g, part).restricted(degree))
        for nu, c in prod.terms.items():
            total[nu] = total.get(nu, 0) + coeff * c
    return SymSeries("p", total, degree)


def _random_cyclotomic_series(rng, basis, degree, order=3):
    terms = {}
    for k in range(degree + 1):
        for lam in partitions_of(k):
            if rng.random() < 0.4:
                terms[lam] = zeta(order, rng.randrange(order)) * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SymSeries(basis, terms, degree)


@pytest.mark.parametrize("basis", ["p", "h", "s"])
def test_products_match_the_plain_loop_on_rational_and_cyclotomic_series(basis):
    rng = random.Random(17)
    for make in (_random_series, _random_cyclotomic_series):
        f, g = make(rng, basis, 5), make(rng, "p", 4)
        assert f * g == _reference_product(f, g)
        assert f * f == _reference_product(f, f)


def test_plethysm_matches_the_plain_loop_on_rational_and_cyclotomic_series():
    rng = random.Random(23)
    for lam in [(3,), (2, 1), (2, 2), (3, 1, 1)]:
        for g in (_random_series(rng, "p", 6, scale=3), _random_cyclotomic_series(rng, "h", 6)):
            assert plethysm(s_basis(lam), g, 6) == _reference_plethysm(s_basis(lam), g, 6)
