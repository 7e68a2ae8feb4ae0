import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from bruteforce import h_k_mono, schur_decompose
from wreathlitt import symfunc
from wreathlitt.branching import _progression_alphabet
from wreathlitt.exactnum import zeta
from wreathlitt.partitions import centralizer_order, multiplicities, partitions_of
from wreathlitt.symfunc import (
    SymSeries,
    TruncationTooShortError,
    _graded_product,
    constant,
    h_basis,
    hall_inner_product,
    omega_at_root,
    p_basis,
    plethysm,
    plethysms,
    s_basis,
    series_to_json,
    stretch,
)


def _p_coefficients(f):
    return {lam: f.coefficient(lam) for lam in f.terms}


def test_conversion_examples():
    # Each constructor writes F_mu = <f, p_mu>; coefficient reads [p_mu] f = F_mu / z_mu.
    h2 = h_basis((2,))
    assert h2.terms == {(2,): 1, (1, 1): 1}
    assert _p_coefficients(h2) == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    s11 = s_basis((1, 1))
    assert s11.terms == {(2,): -1, (1, 1): 1}
    assert _p_coefficients(s11) == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    assert p_basis((2, 1), Fraction(3, 4)).terms == {(2, 1): Fraction(3, 2)}
    assert p_basis((1,)) == s_basis((1,))


BASES = {"p": p_basis, "h": h_basis, "s": s_basis}


def _combination(basis, coeffs, truncation=None):
    # sum over lam of coeffs[lam] times the basis element indexed by lam
    return sum((BASES[basis](lam, c) for lam, c in coeffs.items()), SymSeries({}, truncation))


def _random_coefficients(rng, degree, scale=4):
    return {
        lam: Fraction(rng.randint(-scale, scale), rng.randint(1, scale))
        for k in range(degree + 1)
        for lam in partitions_of(k)
        if rng.random() < 0.4
    }


def _random_series(rng, basis, degree, scale=4, exact=False):
    return _combination(basis, _random_coefficients(rng, degree, scale), None if exact else degree)


@pytest.mark.parametrize("src,dst", [("p", "s"), ("s", "p")])
def test_conversion_round_trips(src, dst):
    # A combination of src elements re-expanded in dst, and its src
    # coefficients read back: the p-coefficients by coefficient, the Schur
    # coefficients by the Hall pairing, f = sum over lam of <f, s_lam> s_lam.
    rng = random.Random(20240801)
    shapes = [lam for k in range(9) for lam in partitions_of(k)]
    read = {"p": lambda f, lam: f.coefficient(lam), "s": lambda f, lam: hall_inner_product(f, s_basis(lam))}
    for _ in range(4):
        coeffs = _random_coefficients(rng, 8)
        f = _combination(src, {lam: c for lam, c in coeffs.items() if c}, 8)
        in_dst = _combination(dst, {lam: read[dst](f, lam) for lam in shapes}, 8)
        assert in_dst == f
        back = {lam: read[src](in_dst, lam) for lam in shapes}
        assert {lam: c for lam, c in back.items() if c} == {lam: c for lam, c in coeffs.items() if c}


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
    assert plethysm(p_basis((2,)), p_basis((3,))) == p_basis((6,))
    for n in (1, 2, 3):
        one_plus_h1 = constant(Fraction(1)) + h_basis((1,))
        result = plethysm(p_basis((n,)), one_plus_h1)
        assert _p_coefficients(result) == {(): Fraction(1), (n,): Fraction(1)}


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

    assert plethysm(h_basis((2,)), h_basis((2,))) == _combination("s", expected)


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
    g = omega_at_root(0, 1, 4)
    with pytest.raises(TruncationTooShortError):
        plethysm(s_basis((2, 1)), g, 5)
    small = plethysm(s_basis((2, 1)), g, 4)
    large = plethysm(s_basis((2, 1)), omega_at_root(0, 1, 7), 7)
    assert small.terms == large.restricted(4).terms


def test_stretch_keeps_constants_and_coefficients():
    f = constant(Fraction(2)) + p_basis((2, 1), Fraction(3, 5))
    g = stretch(f, 3)
    assert _p_coefficients(g) == {(): Fraction(2), (6, 3): Fraction(3, 5)}
    # cyclotomic coefficients pass through untouched:
    # 1 + z4*h1 - h2 = 1 + z4*p1 - p11/2 - p2/2, stretched by 2
    h = stretch(omega_at_root(1, 4, 2), 2)
    assert h.coefficient(()) == 1
    assert h.coefficient((2,)) == zeta(4)
    assert h.coefficient((4,)) == Fraction(-1, 2)
    assert h.coefficient((2, 2)) == Fraction(-1, 2)


def test_omega():
    # the plethystic exponential 1 + h_1 + ... + h_D is the kernel at the root 1
    assert omega_at_root(0, 1, 0).terms == {(): 1}
    for order in (1, 2, 5):
        assert omega_at_root(0, order, 3) == _combination("h", {(k,) if k else (): 1 for k in range(4)})
    in_p = _p_coefficients(omega_at_root(0, 1, 2))
    assert in_p == {
        (): Fraction(1),
        (1,): Fraction(1),
        (1, 1): Fraction(1, 2),
        (2,): Fraction(1, 2),
    }


def test_omega_at_root():
    assert omega_at_root(0, 3, 4) == _combination("h", {(k,) if k else (): 1 for k in range(5)}, 4)
    # F_mu = zeta^(j|mu|) at every mu up to the truncation
    assert omega_at_root(1, 2, 3) == _combination("h", {(): 1, (1,): -1, (2,): 1, (3,): -1})
    quarter = omega_at_root(1, 4, 2)
    assert quarter == _combination("h", {(): 1, (1,): zeta(4), (2,): -1})
    assert quarter.terms == {(): 1, (1,): zeta(4), (2,): -1, (1, 1): -1}


def test_schur_coefficient():
    # Schur coefficients are read off by the Hall pairing against s_lam
    assert hall_inner_product(s_basis((2, 1)), s_basis((2, 1))) == 1
    assert hall_inner_product(h_basis((2,)), s_basis((1, 1))) == 0
    p1_squared = p_basis((1,)) * p_basis((1,))
    assert hall_inner_product(p1_squared, s_basis((2,))) == 1
    assert hall_inner_product(omega_at_root(0, 1, 2), s_basis((3,))) == 0


def test_equality_across_bases_and_scalar_types():
    assert p_basis((2,), Fraction(1, 2)) + p_basis((1, 1), Fraction(1, 2)) == h_basis((2,))
    assert omega_at_root(0, 5, 3) == omega_at_root(0, 1, 3)


def test_sums_across_bases_add_power_sum_expansions():
    # h_2 + s_11 = (p_11 + p_2)/2 + (p_11 - p_2)/2 = p_11
    assert h_basis((2,)) + s_basis((1, 1)) == p_basis((1, 1))
    assert s_basis((1,)) + p_basis((1,)) == p_basis((1,), 2)
    rng = random.Random(31)
    shapes = [lam for k in range(6) for lam in partitions_of(k)]
    for a, b in (("h", "s"), ("s", "p")):
        f, g = _random_series(rng, a, 5), _random_series(rng, b, 5)
        total = f + g
        for lam in shapes:
            want = hall_inner_product(f, p_basis(lam)) + hall_inner_product(g, p_basis(lam))
            assert hall_inner_product(total, p_basis(lam)) == want
        assert total - g == f


def test_json_round_trip():
    rng = random.Random(11)
    f = _random_series(rng, "h", 5)
    obj = series_to_json(f)
    assert obj["basis"] == "p"
    terms = {tuple(e["partition"]): Fraction(e["coeff"]) for e in obj["terms"]}
    g = _combination("p", terms, obj["truncation"])
    assert g.truncation == f.truncation and g.terms == f.terms
    # entries are sorted by degree then reverse-lexicographically
    degrees = [sum(e["partition"]) for e in obj["terms"]]
    assert degrees == sorted(degrees)


# ----------------------------------------------------------------------
# The z-scaled coordinates F_mu = z_mu [p_mu] f, checked against the
# power-sum coefficients and against the plain loops the kernel replaced.
# ----------------------------------------------------------------------


def test_scaled_h_is_all_ones():
    for k in range(7):
        assert h_basis((k,)).terms == dict.fromkeys(partitions_of(k), 1)
        for mu in partitions_of(k):
            assert h_basis((k,)).coefficient(mu) == Fraction(1, centralizer_order(mu))
            assert hall_inner_product(h_basis((k,)), p_basis(mu)) == 1


def test_scaled_stretch_multiplies_by_r_to_the_length():
    rng = random.Random(3)
    g = _random_series(rng, "p", 6)
    for r in (1, 2, 3):
        stretched = stretch(g, r).terms
        for nu, coeff in g.terms.items():
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
    trunc = min(f.truncation, g.truncation)
    out = {}
    for a, ca in _p_coefficients(f).items():
        for b, cb in _p_coefficients(g).items():
            if sum(a) + sum(b) <= trunc:
                key = tuple(sorted(a + b, reverse=True))
                out[key] = out.get(key, 0) + ca * cb
    return _combination("p", out, trunc)


def _reference_plethysm(f, g, degree):
    # Product of stretched copies of g for each p_mu of f, no prefix sharing.
    total = {}
    for mu, coeff in _p_coefficients(f).items():
        prod = constant(Fraction(1), truncation=degree)
        for part in mu:
            prod = _reference_product(prod, stretch(g, part).restricted(degree))
        for nu, c in _p_coefficients(prod).items():
            total[nu] = total.get(nu, 0) + coeff * c
    return _combination("p", total, degree)


def _random_cyclotomic_series(rng, basis, degree, order=3):
    coeffs = {
        lam: zeta(order, rng.randrange(order)) * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for k in range(degree + 1)
        for lam in partitions_of(k)
        if rng.random() < 0.4
    }
    return _combination(basis, coeffs, degree)


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


def test_plethysms_match_the_plain_loop_one_series_at_a_time():
    # The walk merges the mu of all fs into one trie: the constant s_(), Schur
    # functions that share every mu, and power sums whose parts no other f has.
    fs = [s_basis(()), s_basis((2, 1)), s_basis((3,)), h_basis((2, 2)), p_basis((2, 2)), p_basis((5,)), p_basis((3, 1))]
    rng = random.Random(29)
    for g in (_random_series(rng, "p", 6, scale=3), _random_cyclotomic_series(rng, "h", 6)):
        assert plethysms(fs, g, 6) == [_reference_plethysm(f, g, 6) for f in fs]
    # An exact g gives exact results; f of degree <= 5 and g of degree <= 2 stay within degree 10.
    g = _random_series(rng, "p", 2, exact=True)
    out = plethysms(fs, g)
    assert [f.truncation for f in out] == [None] * len(fs)
    assert out == [_reference_plethysm(f, g.restricted(10), 10) for f in fs]


def test_plethysms_walk_builds_each_product_once_with_p1_next_to_the_root(monkeypatch):
    # Each mu's parts are taken in ascending order, so the mu share their dense
    # p_1[A] factors: the walk over every s_lam of 7 makes 25 products, 6 of
    # them by p_1[A], where a walk by descending parts makes 37, 29 of them.
    alphabet = _progression_alphabet(1, 0, 11)
    assert len(alphabet.terms) == 195
    calls = Counter()
    product = symfunc._graded_product

    def counted(f, g, max_degree):
        calls[len(g)] += 1
        return product(f, g, max_degree)

    monkeypatch.setattr(symfunc, "_graded_product", counted)
    plethysms([s_basis(lam) for lam in partitions_of(7)], alphabet, 11)
    assert sum(calls.values()) == 25
    assert calls[195] == 6
