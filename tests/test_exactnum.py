from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import cyclotomic_from_roots
from wreathlitt.exactnum import (
    Cyclotomic,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    reduce_mod_cyclotomic,
    to_rational,
    zeta,
)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


@pytest.mark.parametrize("m", range(1, 21))
def test_cyclotomic_polynomial_against_complex_roots(m):
    assert list(cyclotomic_polynomial(m)) == cyclotomic_from_roots(m)


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_reduce_examples():
    # zeta_2 squared is 1
    assert reduce_mod_cyclotomic([0, 0, 1], 2) == 1
    # zeta_4 squared is -1
    assert reduce_mod_cyclotomic([0, 0, 1], 4) == -1
    # 1 + zeta_3 + zeta_3^2 = 0
    assert not reduce_mod_cyclotomic([1, 1, 1], 3)


def test_conjugation_examples():
    assert zeta(4).conjugate() == -zeta(4)
    assert Cyclotomic.from_rational(Fraction(3, 2), 5).conjugate() == Fraction(3, 2)
    # conj(zeta_3) = zeta_3^2 = -1 - zeta_3
    assert zeta(3).conjugate() == Cyclotomic(3, (Fraction(-1), Fraction(-1)))


def test_to_rational():
    assert Cyclotomic.from_rational(5, 3).to_rational() == 5
    with pytest.raises(NotRationalError):
        zeta(3).to_rational()
    assert (zeta(3) + zeta(3).conjugate()).to_rational() == -1
    assert to_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_root_of_unity_orthogonality():
    # sum of zeta^(j*a) over j is m when m divides a, else 0
    for m in range(1, 9):
        for a in range(4 * m + 1):
            total = Cyclotomic.from_rational(0, m)
            for j in range(m):
                total = total + zeta(m, j * a)
            assert total == (m if a % m == 0 else 0), (m, a)


def _coeff_lists(size):
    return st.lists(
        st.fractions(max_denominator=6, min_value=-5, max_value=5),
        min_size=1,
        max_size=size,
    )


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10), p=_coeff_lists(9), q=_coeff_lists(9))
def test_reduction_is_multiplicative(m, p, q):
    prod = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            prod[i + j] += a * b
    direct = reduce_mod_cyclotomic(prod, m)
    split = reduce_mod_cyclotomic(p, m) * reduce_mod_cyclotomic(q, m)
    assert direct == split


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10), p=_coeff_lists(9), q=_coeff_lists(9))
def test_conjugation_is_multiplicative_and_involutive(m, p, q):
    a = reduce_mod_cyclotomic(p, m)
    b = reduce_mod_cyclotomic(q, m)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


def test_mixed_scalar_arithmetic():
    a = zeta(4)
    assert Fraction(1, 2) * a == a * Fraction(1, 2)
    assert 1 + a - 1 == a
    assert (2 * a) * Fraction(1, 2) == a
    assert a * a * a * a == 1 and a * a.conjugate() == 1


def test_complex_embedding():
    for m in range(1, 9):
        value = zeta(m).to_complex()
        import cmath

        assert abs(value - cmath.exp(2j * cmath.pi / m)) < 1e-12
