import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import conjugate, cyclotomic_from_roots, pack, packed_numerators, to_complex
from wreathlitt.exactnum import (
    Cyclotomic,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    to_rational,
    zeta,
)
from wreathlitt.wreath import WreathSeries, wreath_inner_product


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
    assert Cyclotomic(2, [0, 0, 1]) == 1
    # zeta_4 squared is -1
    assert Cyclotomic(4, [0, 0, 1]) == -1
    # 1 + zeta_3 + zeta_3^2 = 0
    assert not Cyclotomic(3, [1, 1, 1])


def test_conjugation_examples():
    assert conjugate(zeta(4)) == zeta(4) * -1
    assert conjugate(Cyclotomic.from_rational(Fraction(3, 2), 5)) == Fraction(3, 2)
    # conj(zeta_3) = zeta_3^2 = -1 - zeta_3
    assert conjugate(zeta(3)) == Cyclotomic(3, (Fraction(-1), Fraction(-1)))


def test_to_rational():
    assert Cyclotomic.from_rational(5, 3).to_rational() == 5
    with pytest.raises(NotRationalError):
        zeta(3).to_rational()
    assert (zeta(3) + conjugate(zeta(3))).to_rational() == -1
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
    direct = Cyclotomic(m, prod)
    split = Cyclotomic(m, p) * Cyclotomic(m, q)
    assert direct == split


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10), p=_coeff_lists(9), q=_coeff_lists(9))
def test_conjugation_is_multiplicative_and_involutive(m, p, q):
    a = Cyclotomic(m, p)
    b = Cyclotomic(m, q)
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(conjugate(a)) == a


def test_mixed_scalar_arithmetic():
    a = zeta(4)
    assert Fraction(1, 2) * a == a * Fraction(1, 2)
    assert 1 + a + -1 == a
    assert (2 * a) * Fraction(1, 2) == a
    assert a * a * a * a == 1 and a * conjugate(a) == 1


def test_complex_embedding():
    for m in range(1, 9):
        value = to_complex(zeta(m))
        assert abs(value - cmath.exp(2j * cmath.pi / m)) < 1e-12


# Properties of the representation: integer numerators over one denominator.

@st.composite
def _elements(draw, order=None):
    order = draw(st.integers(1, 12)) if order is None else order
    den = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-6, 6), min_size=euler_phi(order), max_size=euler_phi(order)))
    return Cyclotomic(order, tuple(Fraction(a, den) for a in nums))


@st.composite
def _pairs(draw):
    order = draw(st.integers(1, 12))
    return draw(_elements(order)), draw(_elements(order))


def _is_canonical(x):
    return len(x.nums) == euler_phi(x.order) and x.den >= 1 and gcd(x.den, *x.nums) == 1


@settings(max_examples=80, deadline=None)
@given(pair=_pairs(), k=st.integers(-4, 4), q=st.fractions(max_denominator=7))
def test_results_are_canonical(pair, k, q):
    a, b = pair
    for x in (a, b, a + b, a + b * -1, a * b, a * -1, conjugate(a), k * a, a * q, a + q, q + a * -1):
        assert _is_canonical(x), x


@settings(max_examples=80, deadline=None)
@given(a=_elements(), extra=st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_equal_values_have_equal_representations(a, extra):
    # a + Phi * extra reduces to a: the same value reached by another route
    phi = cyclotomic_polynomial(a.order)
    coeffs = [Fraction(n, a.den) for n in a.nums] + [Fraction(0)] * (len(extra) + len(phi))
    for i, e in enumerate(extra):
        for k, c in enumerate(phi):
            coeffs[i + k] += e * c
    for b in (Cyclotomic(a.order, coeffs), (a * 3) * Fraction(1, 3), a + a + a * -1):
        assert a == b and a.nums == b.nums and a.den == b.den
    # same numerators over another denominator is another number
    assert (a * 2 == a) == (a * Fraction(1, 2) == a) == (not a)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12), q=st.fractions(max_denominator=9), k=st.integers(-9, 9))
def test_rational_values_equal_int_and_fraction(m, q, k):
    for value in (q, k, Fraction(k)):
        x = Cyclotomic.from_rational(value, m)
        # a rational reached through non-rational intermediates
        y = (x * zeta(m)) * conjugate(zeta(m))
        for c in (x, y):
            assert c == value and _is_canonical(c)


@settings(max_examples=80, deadline=None)
@given(pair=_pairs())
def test_arithmetic_agrees_with_complex_embedding(pair):
    a, b = pair
    za, zb = to_complex(a), to_complex(b)
    assert abs(to_complex(a + b) - (za + zb)) < 1e-9
    assert abs(to_complex(a * b) - za * zb) < 1e-9
    assert abs(to_complex(conjugate(a)) - za.conjugate()) < 1e-9


@pytest.mark.parametrize("order", [15, 30, 60, 150])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_conjugation_at_large_orders(order, data):
    # phi(order) from 8 to 40, past the orders 1..12 drawn above
    a = data.draw(_elements(order))
    assert abs(to_complex(conjugate(a)) - to_complex(a).conjugate()) < 1e-9
    twice = conjugate(conjugate(a))
    assert twice == a and twice.nums == a.nums and twice.den == a.den
    for k in (1, 2, order // 3, order - 1):
        assert conjugate(zeta(order, k)) == zeta(order, -k)


@settings(max_examples=40, deadline=None)
@given(a=_elements(3), b=_elements(4), q=st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_mixing_orders_raises(a, b, q):
    # arithmetic never mixes fields, whether or not a side is rational
    r3, r4 = Cyclotomic.from_rational(q, 3), Cyclotomic.from_rational(q, 4)
    for left, right in [(a, b), (r3, b), (a, r4), (r3, r4)]:
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            with pytest.raises(ValueError):
                op(left, right)
            with pytest.raises(ValueError):
                op(right, left)
    # equality is False across orders, rational values included; each still equals q
    assert r3 == q and r4 == q and r3 != r4 and r4 != r3 and a != b
    # no computation keys on a cyclotomic number, so it is unhashable
    with pytest.raises(TypeError):
        hash(a)


# Sums of products: one value, one representation, whatever the route.

def _scalars(order):
    return st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        _elements(order),
    )


@st.composite
def _product_terms(draw):
    order = draw(st.integers(1, 12))
    weights = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=30))
    triples = st.tuples(weights, _scalars(order), _scalars(order))
    return order, draw(st.lists(triples, max_size=8))


def _naive_sum(order, terms):
    total = Cyclotomic.from_rational(0, order)
    for weight, x, y in terms:
        total = total + weight * x * y
    return total


@settings(max_examples=100, deadline=None)
@given(case=_product_terms())
def test_sum_of_products_equals_naive_sum(case):
    order, terms = case
    total = _naive_sum(order, terms)
    assert total.order == order and _is_canonical(total)
    # the same value reached by other routes has the same representation: the
    # terms reversed, cancelling terms, and the packed integer dot
    cancelling = [(-w, x, y) for w, x, y in terms]
    xs, ys = pack(order, [w * x for w, x, _ in terms]), pack(order, [y for _, _, y in terms])
    for other in (
        _naive_sum(order, terms[::-1]),
        _naive_sum(order, cancelling + terms + terms),
        Cyclotomic(order, *packed_numerators(order, xs, ys)),
    ):
        assert (other.nums, other.den) == (total.nums, total.den)


@pytest.mark.parametrize("order", range(1, 13))
def test_sum_of_products_of_nothing_is_zero(order):
    # the wreath pairing of series that share no label sums no products
    total = wreath_inner_product(WreathSeries.one(order), WreathSeries(order, {}))
    assert total.order == order and total.nums == (0,) * euler_phi(order) and total.den == 1
    assert total == 0


# The tests' pack and packed_numerators: two vectors packed once, dotted with one reduction.

PACKED_ORDERS = [1, 2, 3, 4, 5, 6, 12]


@st.composite
def _packed_pairs(draw):
    order = draw(st.sampled_from(PACKED_ORDERS))
    scalars = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        _elements(order),
    )
    return order, draw(st.lists(st.tuples(scalars, scalars), max_size=8))


@settings(max_examples=100, deadline=None)
@given(case=_packed_pairs())
def test_packed_dot_equals_sum_of_products(case):
    order, pairs = case
    x, y = pack(order, [a for a, _ in pairs]), pack(order, [b for _, b in pairs])
    assert 1 <= len(x[0]) <= euler_phi(order) and all(len(column) == len(pairs) for column in x[0])
    dot = Cyclotomic(order, *packed_numerators(order, x, y))
    expected = _naive_sum(order, [(1, a, b) for a, b in pairs])
    assert dot.order == order and (dot.nums, dot.den) == (expected.nums, expected.den)


@pytest.mark.parametrize("order", PACKED_ORDERS)
def test_packed_dot_of_empty_vectors_is_zero(order):
    dot = Cyclotomic(order, *packed_numerators(order, pack(order, []), pack(order, [])))
    assert dot.order == order and dot.nums == (0,) * euler_phi(order) and dot.den == 1


def test_pack_drops_trailing_zero_columns():
    assert pack(12, [1, Fraction(1, 2), Cyclotomic.from_rational(3, 5)]) == ([[2, 1, 6]], 2)
    assert pack(12, [zeta(12), 0]) == ([[0, 0], [1, 0]], 1)
    assert pack(12, []) == ([[]], 1)


def test_pack_coerces_only_rational_values_of_other_orders():
    x = pack(3, [2, Cyclotomic.from_rational(Fraction(1, 2), 12)])
    assert Cyclotomic(3, *packed_numerators(3, x, pack(3, [zeta(3), 1]))) == 2 * zeta(3) + Fraction(1, 2)
    with pytest.raises(ValueError):
        pack(3, [1, zeta(4)])
