import cmath
import dataclasses
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from bruteforce import newton_power_sums_from_poly
from wreathlitt import partitions
from wreathlitt.exactnum import Cyclotomic, reduce_mod_cyclotomic, zeta
from wreathlitt.oracle import _class_label
from wreathlitt.symfunc import SymSeries, convert, omega_at_root, s_basis
from wreathlitt.wreath import (
    OrderMismatchError,
    WreathLabel,
    WreathSeries,
    centralizer_order,
    characteristic_polynomial,
    conjugacy_class_size,
    evaluation_kernel,
    evaluation_kernel_product_form,
    format_label,
    frobenius_characteristic,
    identity_label,
    irreducible_character,
    irreducible_dimension,
    merge_labels,
    parse_label,
    power_trace,
    schur_at_eigenvalues,
    schur_values_at_class,
    wreath_class_labels,
    wreath_inner_product,
)


def lab(order, mapping):
    return WreathLabel.from_mapping(order, mapping)


def test_label_enumeration():
    assert len(wreath_class_labels(4, 1)) == 5
    two = wreath_class_labels(2, 2)
    assert two == [
        WreathLabel(2, ((2,), ())),
        WreathLabel(2, ((1, 1), ())),
        WreathLabel(2, ((1,), (1,))),
        WreathLabel(2, ((), (2,))),
        WreathLabel(2, ((), (1, 1))),
    ]
    assert len(wreath_class_labels(2, 3)) == 9


def test_centralizer_orders():
    assert centralizer_order(lab(1, {0: (1, 1, 1)})) == 6
    assert centralizer_order(lab(2, {0: (1,), 1: (1,)})) == 4
    assert centralizer_order(lab(2, {1: (2,)})) == 4


def _enumerate_class_sizes(order, n):
    # independent count: walk every group element, read off its class label
    sizes = {}
    for exponents in itertools.product(range(order), repeat=n):
        for perm in itertools.permutations(range(n)):
            slots = [[] for _ in range(order)]
            seen = [False] * n
            for start in range(n):
                if seen[start]:
                    continue
                total, length, cursor = 0, 0, start
                while not seen[cursor]:
                    seen[cursor] = True
                    total += exponents[cursor]
                    cursor = perm[cursor]
                    length += 1
                slots[total % order].append(length)
            key = tuple(tuple(sorted(s, reverse=True)) for s in slots)
            sizes[key] = sizes.get(key, 0) + 1
    return sizes


def test_class_sizes_against_enumeration():
    for order, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        sizes = _enumerate_class_sizes(order, n)
        for rho in wreath_class_labels(n, order):
            assert conjugacy_class_size(rho) == sizes[rho.parts], rho
    assert conjugacy_class_size(lab(2, {0: (1,), 1: (1,)})) == 2
    assert conjugacy_class_size(lab(1, {0: (3,)})) == 2


def test_class_sizes_sum_to_group_order():
    for order in (1, 2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            total = sum(conjugacy_class_size(r) for r in wreath_class_labels(n, order))
            assert total == order**n * factorial(n)


def test_characteristic_polynomial_examples():
    one = Cyclotomic.from_rational(1, 2)
    assert characteristic_polynomial(lab(2, {1: (2,)})) == (
        one,
        Cyclotomic.from_rational(0, 2),
        one,
    )  # 1 + t^2
    poly = characteristic_polynomial(lab(1, {0: (1, 1)}))
    assert [c.to_rational() for c in poly] == [1, -2, 1]  # (1-t)^2
    quartic = characteristic_polynomial(lab(4, {1: (1,), 2: (1,)}))
    # (1 - z4 t)(1 + t) = 1 + (1 - z4)t - z4 t^2
    assert quartic == (zeta(4, 0), 1 - zeta(4), -zeta(4))


def test_characteristic_polynomial_shape():
    for order in (1, 2, 3, 4):
        for n in range(6):
            for rho in wreath_class_labels(n, order):
                poly = characteristic_polynomial(rho)
                assert len(poly) == rho.size + 1
                assert poly[0] == 1
                assert poly[-1]  # leading coefficient nonzero


def test_newton_consistency_with_power_traces():
    for order in (1, 2, 3):
        for n in range(4):
            for rho in wreath_class_labels(n, order):
                poly = characteristic_polynomial(rho)
                sums = newton_power_sums_from_poly(list(poly), 2 * n)
                for r, value in enumerate(sums, start=1):
                    assert value == power_trace(rho, r), (rho, r)


def test_power_trace_examples():
    rho = lab(2, {1: (2,)})
    assert power_trace(rho, 1) == 0
    assert power_trace(rho, 2) == -2
    for n in (1, 2, 4):
        for r in (1, 2, 3):
            assert power_trace(identity_label(n, 1), r) == n
    assert power_trace(lab(3, {1: (1,)}), 3) == 1


def test_power_trace_against_explicit_eigenvalues():
    # an l-cycle with cycle product zeta^j has the l-th roots of zeta^j as eigenvalues
    rng = random.Random(11)
    for order in range(1, 7):
        labels = [rho for n in range(6) for rho in wreath_class_labels(n, order)]
        for rho in rng.sample(labels, min(len(labels), 12)):
            eigenvalues = [
                cmath.exp(2j * cmath.pi * (j / order + t) / ell)
                for j, part in enumerate(rho.parts)
                for ell in part
                for t in range(ell)
            ]
            for r in range(1, 9):
                expected = sum(value**r for value in eigenvalues)
                assert abs(power_trace(rho, r).to_complex() - expected) < 1e-9, (rho, r)


def test_schur_at_eigenvalues():
    rho = lab(2, {1: (1,)})
    assert schur_at_eigenvalues((1,), rho) == power_trace(rho, 1)
    assert schur_at_eigenvalues((2, 1), lab(1, {0: (1, 1)})) == 2
    assert schur_at_eigenvalues((2,), lab(2, {1: (2,)})) == -1
    # more rows than eigenvalues: the zero specialization
    assert schur_at_eigenvalues((1, 1, 1), lab(2, {1: (2,)})) == 0


def test_evaluation_kernel():
    empty = WreathLabel(2, ((), ()))
    assert evaluation_kernel(empty, 3).terms == {(): Fraction(1)}
    assert evaluation_kernel(lab(1, {0: (1,)}), 3) == omega_at_root(0, 1, 3)
    signs = evaluation_kernel(lab(2, {1: (1,)}), 2)
    # product over (1 + x_i)^(-1): alternating homogeneous sum
    assert signs == SymSeries("h", {(): 1, (1,): -1, (2,): 1}, 2)


def test_evaluation_kernel_dual_construction():
    for order in (1, 2, 3):
        for n in range(4):
            for rho in wreath_class_labels(n, order):
                a = evaluation_kernel(rho, 4)
                b = evaluation_kernel_product_form(rho, 4)
                assert a == b, rho


def test_frobenius_characteristic_examples():
    half = Fraction(1, 2)
    sign = frobenius_characteristic(lab(2, {1: (1,)}))
    assert sign.coefficient(lab(2, {0: (1,)})) == half
    assert sign.coefficient(lab(2, {1: (1,)})) == -half
    triv = frobenius_characteristic(lab(2, {0: (1,)}))
    assert triv.coefficient(lab(2, {0: (1,)})) == half
    assert triv.coefficient(lab(2, {1: (1,)})) == half
    # m=1 reduces to the classical Frobenius expansion of a Schur element
    classical = frobenius_characteristic(lab(1, {0: (2, 1)}))
    s_in_p = convert(s_basis((2, 1)))
    for mu, coeff in s_in_p.terms.items():
        assert classical.coefficient(lab(1, {0: mu})) == coeff


def test_wreath_character_orthogonality():
    for order in (1, 2, 3):
        for n in range(4):
            labels = wreath_class_labels(n, order)
            chars = {
                rho: {s: irreducible_character(rho, s) for s in labels}
                for rho in labels
            }
            for a in labels:
                for b in labels:
                    total = Cyclotomic.from_rational(0, order)
                    for s in labels:
                        total = total + Fraction(1, centralizer_order(s)) * chars[a][
                            s
                        ] * chars[b][s].conjugate()
                    assert total == (1 if a == b else 0), (a, b)


def test_character_at_identity_is_dimension():
    for order in (1, 2, 3):
        for n in range(1, 5):
            ident = identity_label(n, order)
            for rho in wreath_class_labels(n, order):
                assert irreducible_character(rho, ident) == irreducible_dimension(rho)


def test_dimension_formula():
    assert irreducible_dimension(lab(2, {0: (1,), 1: (1,)})) == 2
    assert irreducible_dimension(lab(3, {0: (2, 1)})) == 2
    assert irreducible_dimension(lab(2, {0: (2,), 1: (1, 1)})) == 6


def test_wreath_inner_product():
    rng = random.Random(3)
    pool = [r for n in range(5) for r in wreath_class_labels(n, 3)]
    for rho in rng.sample(pool, 10):
        p = WreathSeries(3, {rho: Fraction(1)})
        assert wreath_inner_product(p, p) == centralizer_order(rho)
    a, b = pool[3], pool[7]
    assert wreath_inner_product(WreathSeries(3, {a: Fraction(1)}), WreathSeries(3, {b: Fraction(1)})) == 0
    with pytest.raises(OrderMismatchError):
        wreath_inner_product(WreathSeries.one(2), WreathSeries.one(3))


def test_schur_elements_are_orthonormal_under_bar_pairing():
    for order in (1, 2, 3):
        for n in range(4):
            labels = wreath_class_labels(n, order)
            chars = {r: frobenius_characteristic(r) for r in labels}
            for a in labels:
                for b in labels:
                    value = wreath_inner_product(chars[a], chars[b].conjugate())
                    assert value == (1 if a == b else 0)


def test_bar_involution():
    rho = lab(4, {1: (2, 1), 3: (1,)})
    p = WreathSeries(4, {rho: Fraction(1)})
    assert p.conjugate() == p
    series = p * zeta(4)
    assert series.conjugate().coefficient(rho) == -zeta(4)
    rng = random.Random(8)
    terms = {
        r: zeta(4, rng.randrange(4)) * Fraction(rng.randint(1, 5), 3)
        for r in rng.sample(wreath_class_labels(3, 4), 5)
    }
    f = WreathSeries(4, terms)
    assert f.conjugate().conjugate() == f


def test_label_parse_format():
    rho = parse_label("0:2,1;1:1", 3)
    assert rho == lab(3, {0: (2, 1), 1: (1,)})
    assert format_label(rho) == "0:2,1;1:1"
    assert parse_label("", 2) == WreathLabel(2, ((), ()))
    # exponents are reduced mod the order
    assert parse_label("2:1", 2) == lab(2, {0: (1,)})
    with pytest.raises(ValueError):
        parse_label("0:1;2:1", 2)  # slot 0 assigned twice after reduction
    with pytest.raises(ValueError):
        parse_label("nonsense", 2)


# ----------------------------------------------------------------------
# Labels hash once and compare by their parts, whoever built them.
# ----------------------------------------------------------------------

def _built_labels(order, n):
    """(constructor, expected parts, label) for every label of size n, built
    by each constructor that makes labels."""
    for rho in wreath_class_labels(n, order):
        yield "wreath_class_labels", rho.parts, rho
        yield "parse_label", rho.parts, parse_label(format_label(rho), order)
        yield "from_mapping", rho.parts, WreathLabel.from_mapping(order, dict(enumerate(rho.parts)))
    for k in range(n + 1):
        for a in wreath_class_labels(k, order):
            for b in wreath_class_labels(n - k, order):
                merged = tuple(tuple(sorted(pa + pb, reverse=True)) for pa, pb in zip(a.parts, b.parts))
                yield "merge_labels", merged, merge_labels(a, b)
    for exponents in itertools.product(range(order), repeat=n):
        for perm in itertools.permutations(range(n)):
            label = _class_label(order, exponents, perm)
            yield "_class_label", label.parts, label


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_labels_are_equal_and_hash_equal_exactly_when_parts_match(order):
    for n in range(5):
        reps = {rho.parts: rho for rho in wreath_class_labels(n, order)}
        compared = set()
        for kind, parts, label in _built_labels(order, n):
            assert label.parts == parts, (kind, label)
            assert label == reps[parts] and hash(label) == hash(reps[parts]), (kind, label)
            # every constructor's label against every other label of its size
            if (kind, parts) not in compared:
                compared.add((kind, parts))
                for other in reps.values():
                    assert (label == other) == (other.parts == parts), (kind, label, other)
                    assert (other == label) == (other.parts == parts), (kind, label, other)


def test_label_is_not_a_tuple_and_stays_frozen():
    rho = lab(3, {0: (2, 1), 2: (1,)})
    for plain in [(rho.order, rho.parts), rho.parts, ((2, 1), (), (1,))]:
        assert rho != plain and plain != rho
        assert rho.__eq__(plain) is NotImplemented
    for field, value in [("order", 2), ("parts", ((), (), ()))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rho, field, value)
    assert rho == lab(3, {0: (2, 1), 2: (1,)})
    assert repr(rho) == "WreathLabel(m=3, 0:2,1;2:1)"
    with pytest.raises(ValueError):
        WreathLabel(2, ((1,),))
    assert merge_labels.cache_info().maxsize is not None


# ----------------------------------------------------------------------
# schur_at_eigenvalues against its power-sum expansion in plain Cyclotomic
# arithmetic.
# ----------------------------------------------------------------------

def _schur_reference(lam, rho):
    """Sum over mu of chi^lam(mu) / z_mu times the product of the power traces."""
    total = Cyclotomic.from_rational(0, rho.order)
    for mu in partitions.partitions_of(sum(lam)):
        weight = Fraction(partitions.symmetric_group_character(lam, mu), partitions.centralizer_order(mu))
        term = Cyclotomic.from_rational(weight, rho.order)
        for part in mu:
            term = term * power_trace(rho, part)
        total = total + term
    return total


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_schur_at_eigenvalues_matches_power_sum_reference(order):
    lambdas = [lam for k in range(6) for lam in partitions.partitions_of(k)]
    for n in range(5):
        for rho in wreath_class_labels(n, order):
            for lam in lambdas:
                value = schur_at_eigenvalues(lam, rho)
                assert isinstance(value, Cyclotomic) and value.order == order
                assert value == _schur_reference(lam, rho), (lam, rho)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_schur_values_at_class_match_power_sum_reference(order):
    # One call per class, the lambdas shuffled across sizes; those with more
    # rows than the class has eigenvalues give 0.
    lambdas = [lam for k in range(6) for lam in partitions.partitions_of(k)]
    random.Random(order).shuffle(lambdas)
    for n in range(5):
        for rho in wreath_class_labels(n, order):
            values = schur_values_at_class(lambdas, rho)
            assert len(values) == len(lambdas)
            for lam, value in zip(lambdas, values):
                assert isinstance(value, Cyclotomic) and value.order == order
                reference = _schur_reference(lam, rho)
                assert (value.nums, value.den) == (reference.nums, reference.den), (lam, rho)
                assert value == 0 or len(lam) <= n, (lam, rho)
    assert schur_values_at_class([], wreath_class_labels(2, order)[0]) == []


# ----------------------------------------------------------------------
# WreathSeries products against the pairwise loop, one sum per term.
# ----------------------------------------------------------------------

def _pairwise_product(f, g):
    trunc = f.truncation
    if trunc is None or (g.truncation is not None and g.truncation < trunc):
        trunc = g.truncation
    out = {}
    for la, ca in f.terms.items():
        for lb, cb in g.terms.items():
            if trunc is not None and la.size + lb.size > trunc:
                continue
            key = WreathLabel(f.order, tuple(tuple(sorted(pa + pb, reverse=True)) for pa, pb in zip(la.parts, lb.parts)))
            out[key] = out.get(key, 0) + ca * cb
    return WreathSeries(f.order, out, trunc)


def _random_series(rng, order, rational, truncation=None):
    # few labels and small coefficients, so that products often cancel
    labels = [rho for n in range(3) for rho in wreath_class_labels(n, order)]
    terms = {}
    for rho in rng.sample(labels, min(len(labels), rng.randint(1, 6))):
        if rational or rng.random() < 0.3:
            terms[rho] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        else:
            nums = [rng.randint(-1, 1) for _ in range(order)]
            terms[rho] = reduce_mod_cyclotomic(nums, order) * Fraction(1, rng.choice([1, 2, 6]))
    return WreathSeries(order, terms, truncation)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_series_product_matches_pairwise_loop(order):
    rng = random.Random(order)
    for trial in range(60):
        rational = trial % 3 == 0
        trunc = rng.choice([None, 2, 3])
        f = _random_series(rng, order, rational, trunc)
        g = _random_series(rng, order, rational)
        product, expected = f * g, _pairwise_product(f, g)
        assert product == expected and product.truncation == expected.truncation
        for label, coeff in product.terms.items():
            assert coeff and type(coeff) is type(expected.terms[label]), (label, coeff)
            assert not rational or isinstance(coeff, Fraction)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_series_product_stores_no_cancelled_term(order):
    x, y = lab(order, {0: (1,)}), lab(order, {order - 1: (2,)})
    for c in [Fraction(1, 3), zeta(order) * Fraction(1, 2)]:
        f = WreathSeries(order, {x: c, y: c})
        g = WreathSeries(order, {x: -c, y: c})
        # the cross terms x*y cancel
        product = f * g
        assert set(product.terms) == {merge_labels(x, x), merge_labels(y, y)}
        assert product == _pairwise_product(f, g)


# ----------------------------------------------------------------------
# Closed-form slot factors against the expand-and-multiply construction.
# ----------------------------------------------------------------------

def _isotypic_power_sum_reference(order, j, r):
    # p_r on the j-th isotypic alphabet (1/m) sum_t zeta^(jt) X_t
    return WreathSeries(order, {lab(order, {t: (r,)}): zeta(order, j * t) * Fraction(1, order) for t in range(order)})


def _isotypic_factor_reference(order, j, lam):
    """s_lam[phi_j] as sum over mu of chi^lam(mu) / z_mu times the ring
    product of the isotypic power sums p_{mu_i}[phi_j]."""
    total = WreathSeries(order, {})
    for mu in partitions.partitions_of(sum(lam)):
        chi = partitions.symmetric_group_character(lam, mu)
        if chi:
            term = WreathSeries.one(order)
            for part in mu:
                term = term * _isotypic_power_sum_reference(order, j, part)
            total = total + term * Fraction(chi, partitions.centralizer_order(mu))
    return total


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_isotypic_factor_matches_power_sum_products(order):
    from wreathlitt.wreath import _schur_isotypic_factor

    lambdas = [lam for k in range(1, 7 if order <= 2 else 5) for lam in partitions.partitions_of(k)]
    for lam in lambdas:
        for j in range(order):
            factor = _schur_isotypic_factor(order, j, lam)
            assert factor == _isotypic_factor_reference(order, j, lam), (j, lam)
            assert all(isinstance(c, Cyclotomic) for c in factor.terms.values()), (j, lam)


def _compositions_reference(total, slots):
    # first slot's load descending, the rest recursively
    if slots == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total, -1, -1) for rest in _compositions_reference(total - first, slots - 1)]


def test_label_order_matches_slotwise_recursion():
    for order in range(1, 6):
        for n in range(7):
            expected = [
                WreathLabel(order, parts)
                for comp in _compositions_reference(n, order)
                for parts in itertools.product(*(partitions.partitions_of(c) for c in comp))
            ]
            assert wreath_class_labels(n, order) == expected, (n, order)


def test_labels_at_a_large_order_need_no_recursion():
    labels = wreath_class_labels(1, 1100)
    assert len(labels) == 1100
    assert labels[0] == lab(1100, {0: (1,)}) and labels[-1] == lab(1100, {1099: (1,)})
