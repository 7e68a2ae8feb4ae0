import cmath
import dataclasses
import itertools
import operator
import random
import tracemalloc
from fractions import Fraction
from math import factorial, lcm

import pytest

from bruteforce import (
    characteristic_polynomial,
    conjugacy_class_size,
    conjugate,
    h_basis,
    newton_power_sums_from_poly,
    ssyt_schur_mono,
    to_complex,
)
from wreathlitt import partitions
from wreathlitt.exactnum import Cyclotomic, _reduce, euler_phi, zeta
from wreathlitt.oracle import _class_label
from wreathlitt.symfunc import constant, omega_at_root, s_basis
from wreathlitt.wreath import (
    OrderMismatchError,
    WreathLabel,
    WreathSeries,
    _digit_bits,
    _unpack,
    centralizer_order,
    characters,
    evaluation_kernel,
    evaluation_kernel_product_form,
    format_label,
    frobenius_characteristic,
    irreducible_dimension,
    merge_labels,
    parse_label,
    power_trace,
    schur_at_eigenvalues,
    schur_evaluator,
    schur_numerators,
    wreath_class_labels,
    wreath_inner_product,
)


def lab(order, mapping):
    return WreathLabel.from_mapping(order, mapping)


# The dense form, one partition per slot, is the tests' reference layout.
def _dense(rho):
    parts = [()] * rho.order
    for j, part in rho.slots:
        parts[j] = part
    return tuple(parts)


def _sparse(parts):
    return tuple((j, part) for j, part in enumerate(parts) if part)


def test_label_enumeration():
    assert len(wreath_class_labels(4, 1)) == 5
    two = wreath_class_labels(2, 2)
    assert two == [
        WreathLabel(2, ((0, (2,)),)),
        WreathLabel(2, ((0, (1, 1)),)),
        WreathLabel(2, ((0, (1,)), (1, (1,)))),
        WreathLabel(2, ((1, (2,)),)),
        WreathLabel(2, ((1, (1, 1)),)),
    ]
    assert len(wreath_class_labels(2, 3)) == 9


def test_centralizer_orders():
    assert centralizer_order(lab(1, {0: (1, 1, 1)})) == 6
    assert centralizer_order(lab(2, {0: (1,), 1: (1,)})) == 4
    assert centralizer_order(lab(2, {1: (2,)})) == 4


def _element_slots(order, exponents, perm):
    # the sparse slots of one group element's class, from a dense walk of its cycles
    slots = [[] for _ in range(order)]
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        total, length, cursor = 0, 0, start
        while not seen[cursor]:
            seen[cursor] = True
            total += exponents[cursor]
            cursor = perm[cursor]
            length += 1
        slots[total % order].append(length)
    return _sparse(tuple(sorted(s, reverse=True)) for s in slots)


def _enumerate_class_sizes(order, n):
    # independent count: walk every group element, read off its class label
    sizes = {}
    for exponents in itertools.product(range(order), repeat=n):
        for perm in itertools.permutations(range(n)):
            key = _element_slots(order, exponents, perm)
            sizes[key] = sizes.get(key, 0) + 1
    return sizes


def test_class_sizes_against_enumeration():
    for order, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        sizes = _enumerate_class_sizes(order, n)
        for rho in wreath_class_labels(n, order):
            assert conjugacy_class_size(rho) == sizes[rho.slots], rho
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
    assert quartic == (zeta(4, 0), 1 + zeta(4) * -1, zeta(4) * -1)


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
            assert power_trace(lab(1, {0: (1,) * n}), r) == n
    assert power_trace(lab(3, {1: (1,)}), 3) == 1


def test_power_trace_against_explicit_eigenvalues():
    # an l-cycle with cycle product zeta^j has the l-th roots of zeta^j as eigenvalues
    rng = random.Random(11)
    for order in range(1, 7):
        labels = [rho for n in range(6) for rho in wreath_class_labels(n, order)]
        for rho in rng.sample(labels, min(len(labels), 12)):
            eigenvalues = [
                cmath.exp(2j * cmath.pi * (j / order + t) / ell)
                for j, part in rho.slots
                for ell in part
                for t in range(ell)
            ]
            for r in range(1, 9):
                expected = sum(value**r for value in eigenvalues)
                assert abs(to_complex(power_trace(rho, r)) - expected) < 1e-9, (rho, r)


def test_schur_at_eigenvalues():
    rho = lab(2, {1: (1,)})
    assert schur_at_eigenvalues((1,), rho) == power_trace(rho, 1)
    assert schur_at_eigenvalues((2, 1), lab(1, {0: (1, 1)})) == 2
    assert schur_at_eigenvalues((2,), lab(2, {1: (2,)})) == -1
    # more rows than eigenvalues: the zero specialization
    assert schur_at_eigenvalues((1, 1, 1), lab(2, {1: (2,)})) == 0


def test_evaluation_kernel():
    empty = WreathLabel(2, ())
    assert evaluation_kernel(empty, 3) == constant(1)
    assert evaluation_kernel(lab(1, {0: (1,)}), 3) == omega_at_root(0, 1, 3)
    signs = evaluation_kernel(lab(2, {1: (1,)}), 2)
    # product over (1 + x_i)^(-1): alternating homogeneous sum
    assert signs == constant(1) + h_basis((1,), -1) + h_basis((2,))


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
    assert sign.terms[lab(2, {0: (1,)})] == half
    assert sign.terms[lab(2, {1: (1,)})] == -half
    triv = frobenius_characteristic(lab(2, {0: (1,)}))
    assert triv.terms[lab(2, {0: (1,)})] == half
    assert triv.terms[lab(2, {1: (1,)})] == half
    # m=1 reduces to the classical Frobenius expansion of a Schur element
    classical = frobenius_characteristic(lab(1, {0: (2, 1)}))
    s21 = s_basis((2, 1))
    for mu in s21.terms:
        assert classical.terms.get(lab(1, {0: mu}), 0) == s21.coefficient(mu)


def test_wreath_character_orthogonality():
    for order in (1, 2, 3):
        zero = Cyclotomic.from_rational(0, order)
        for n in range(4):
            labels = wreath_class_labels(n, order)
            chars = {rho: dict(zip(labels, (Cyclotomic(order, nums, 1) for nums in characters(rho)))) for rho in labels}
            for a in labels:
                for b in labels:
                    total = zero
                    for s in labels:
                        pair = chars[a][s] * conjugate(chars[b][s])
                        total = total + Fraction(1, centralizer_order(s)) * pair
                    assert total == (1 if a == b else 0), (a, b)


def test_character_at_identity_is_dimension():
    for order in (1, 2, 3):
        for n in range(1, 5):
            ident = lab(order, {0: (1,) * n})
            labels = wreath_class_labels(n, order)
            for rho in labels:
                values = dict(zip(labels, characters(rho)))
                assert Cyclotomic(order, values[ident], 1) == irreducible_dimension(rho)


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


def _bar(f):
    # the bar involution: every P-coefficient conjugated (a Fraction's conjugate is itself)
    return WreathSeries(f.order, {label: conjugate(coeff) for label, coeff in f.terms.items()})


def test_schur_elements_are_orthonormal_under_bar_pairing():
    for order in (1, 2, 3):
        for n in range(4):
            labels = wreath_class_labels(n, order)
            chars = {r: frobenius_characteristic(r) for r in labels}
            for a in labels:
                for b in labels:
                    value = wreath_inner_product(chars[a], _bar(chars[b]))
                    assert value == (1 if a == b else 0)


def test_characteristic_at_inverse_class_is_conjugate():
    # conj chi(g) = chi(g^-1), and z_sigma is the same at sigma and its inverse;
    # inverting moves slot t to slot -t mod m
    assert lab(4, {0: (2,), 1: (1,), 3: (2, 1)}).inverse() == lab(4, {0: (2,), 3: (1,), 1: (2, 1)})
    for order in range(1, 7):
        for n in range(4):
            labels = wreath_class_labels(n, order)
            for sigma in labels:
                inverse = sigma.inverse()
                assert inverse.inverse() == sigma
                assert centralizer_order(inverse) == centralizer_order(sigma)
            for rho in labels:
                f = frobenius_characteristic(rho)
                for sigma in labels:
                    at_inverse, at_sigma = f.terms.get(sigma.inverse(), 0), f.terms.get(sigma, 0)
                    assert at_inverse == conjugate(at_sigma), (rho, sigma)


def test_label_parse_format():
    rho = parse_label("0:2,1;1:1", 3)
    assert rho == lab(3, {0: (2, 1), 1: (1,)})
    assert format_label(rho) == "0:2,1;1:1"
    assert parse_label("", 2) == WreathLabel(2, ())
    # an empty partition occupies no slot
    assert parse_label("0:;2:1", 2) == parse_label("0:1;1:", 2) == lab(2, {0: (1,)})
    assert lab(2, {0: (), 2: (1,)}) == lab(2, {0: (1,), 1: ()}) == lab(2, {0: (1,)})
    # in either order: an empty item never conflicts with a nonempty one for its slot
    assert parse_label("0:1;2:", 2) == parse_label("0:1;0:[]", 2) == lab(2, {0: (1,)})
    assert lab(2, {0: (1,), 2: ()}) == lab(2, {0: (1,)})
    # exponents are reduced mod the order
    assert parse_label("2:1", 2) == lab(2, {0: (1,)})
    with pytest.raises(ValueError):
        parse_label("0:1;2:1", 2)  # slot 0 assigned twice after reduction
    with pytest.raises(ValueError):
        parse_label("nonsense", 2)


# ----------------------------------------------------------------------
# Labels hash once and compare by their slots, whoever built them.
# ----------------------------------------------------------------------

def _built_labels(order, n):
    """(constructor, expected slots, label) for every label of size n, built
    by each constructor that makes labels; the expected slots come from the
    dense reference layout."""
    for rho in wreath_class_labels(n, order):
        dense = _dense(rho)
        expected = _sparse(dense)
        yield "wreath_class_labels", expected, rho
        yield "parse_label", expected, parse_label(format_label(rho), order)
        yield "from_mapping", expected, WreathLabel.from_mapping(order, dict(rho.slots))
        # every slot given, empty ones too, in falling order and shifted by m
        shifted = {j + order: dense[j] for j in reversed(range(order))}
        yield "from_mapping (dense)", expected, WreathLabel.from_mapping(order, shifted)
        yield "inverse", _sparse(dense[:1] + dense[:0:-1]), rho.inverse()
    for k in range(n + 1):
        for a in wreath_class_labels(k, order):
            for b in wreath_class_labels(n - k, order):
                merged = _sparse(tuple(sorted(pa + pb, reverse=True)) for pa, pb in zip(_dense(a), _dense(b)))
                yield "merge_labels", merged, merge_labels(a, b)
    for exponents in itertools.product(range(order), repeat=n):
        for perm in itertools.permutations(range(n)):
            yield "_class_label", _element_slots(order, exponents, perm), _class_label(order, exponents, perm)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_labels_are_equal_and_hash_equal_exactly_when_parts_match(order):
    for n in range(5):
        reps = {rho.slots: rho for rho in wreath_class_labels(n, order)}
        compared = set()
        for kind, slots, label in _built_labels(order, n):
            assert label.slots == slots, (kind, label)
            assert label == reps[slots] and hash(label) == hash(reps[slots]), (kind, label)
            # every constructor's label against every other label of its size
            if (kind, slots) not in compared:
                compared.add((kind, slots))
                for other in reps.values():
                    assert (label == other) == (other.slots == slots), (kind, label, other)
                    assert (other == label) == (other.slots == slots), (kind, label, other)


def test_label_is_not_a_tuple_and_stays_frozen():
    rho = lab(3, {0: (2, 1), 2: (1,)})
    for plain in [(rho.order, rho.slots), rho.slots, ((2, 1), (), (1,))]:
        assert rho != plain and plain != rho
        assert rho.__eq__(plain) is NotImplemented
    for field, value in [("order", 2), ("slots", ())]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rho, field, value)
    assert rho == lab(3, {0: (2, 1), 2: (1,)})
    assert repr(rho) == "WreathLabel(m=3, 0:2,1;2:1)"
    assert not hasattr(rho, "parts")


def test_label_keeps_no_instance_dict():
    # a label holds its fields in slots, so it has no per-instance __dict__
    rho = lab(3, {0: (2, 1), 2: (1,)})
    assert not hasattr(rho, "__dict__")
    assert WreathLabel.__slots__ == ("order", "slots")
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(rho, "parts", ())


@pytest.mark.parametrize("slots", [
    ((1, (1,)), (0, (2,))),  # unsorted
    ((0, (1,)), (0, (2,))),  # repeated
    ((3, (1,)),),  # out of range
    ((-1, (1,)),),  # out of range
    ((0, ()),),  # empty
    ((0, (1,)), (1, ())),  # empty
    (((1,),),),  # the old dense layout
    ((1,), ()),  # the old dense layout
])
def test_label_constructor_rejects_noncanonical_slots(slots):
    with pytest.raises(ValueError):
        WreathLabel(3, slots)


def test_label_memory_does_not_grow_with_the_order():
    # a dense label of size 1 would hold 3000 slots, about 69 MB for the 3000 labels
    tracemalloc.start()
    try:
        labels = wreath_class_labels(1, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 3000
    assert peak < 5 * 2**20, peak


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


def test_closed_form_denominators_are_the_centralizer_lcms():
    # schur_evaluator scales by k! and oracle._packed_path by m^n n!, each the lcm of its z's
    for k in range(21):
        assert lcm(*map(partitions.centralizer_order, partitions.partitions_of(k))) == factorial(k), k
    for order in range(1, 7):
        for n in range(6):
            assert lcm(*map(centralizer_order, wreath_class_labels(n, order))) == order**n * factorial(n), (order, n)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_schur_values_at_class_match_power_sum_reference(order):
    # One evaluator for every class up to size 4, its lambdas shuffled across
    # sizes and repeated; those with more rows than the class has eigenvalues give 0.
    rng = random.Random(order)
    lambdas = [lam for k in range(6) for lam in partitions.partitions_of(k)]
    lambdas += rng.sample(lambdas, 10)
    rng.shuffle(lambdas)
    evaluator = schur_evaluator(lambdas, 4)
    dens = evaluator[0]
    assert dens == [lcm(*map(partitions.centralizer_order, partitions.partitions_of(sum(lam)))) for lam in lambdas]
    for n in range(5):
        for rho in wreath_class_labels(n, order):
            values = schur_numerators(evaluator, rho)
            assert len(values) == len(lambdas)
            for lam, den, nums in zip(lambdas, dens, values):
                assert type(nums) is tuple and len(nums) == euler_phi(order) and all(type(a) is int for a in nums)
                value, reference = Cyclotomic(order, nums, den), _schur_reference(lam, rho)
                assert (value.nums, value.den) == (reference.nums, reference.den), (lam, rho)
                assert value == 0 or len(lam) <= n, (lam, rho)
    empty = schur_evaluator([], 2)
    assert empty[0] == [] and schur_numerators(empty, wreath_class_labels(2, order)[0]) == []


@pytest.mark.parametrize("order, n, degree_cap", [(1, 4, 6), (2, 3, 5), (3, 3, 5), (5, 2, 4), (12, 2, 3)])
def test_integer_schur_values_equal_schur_at_eigenvalues(order, n, degree_cap):
    # One evaluator for every lambda up to degree_cap, rows beyond n included,
    # against the one-lambda evaluation at every class of size n.
    lambdas = [lam for k in range(degree_cap + 1) for lam in partitions.partitions_of(k)]
    evaluator = schur_evaluator(lambdas, n)
    for rho in wreath_class_labels(n, order):
        for lam, den, nums in zip(lambdas, evaluator[0], schur_numerators(evaluator, rho)):
            assert Cyclotomic(order, nums, den) == schur_at_eigenvalues(lam, rho), (lam, rho)
            assert len(lam) <= n or nums == (0,) * euler_phi(order), (lam, rho)


def test_a_digit_one_bit_narrower_misreads_schur_values_at_the_identity(monkeypatch):
    # Every packed digit is as wide as _digit_bits of a checked bound.  One bit
    # fewer must misread a value, never pass: at the identity class, where
    # schur_numerators decodes at the narrowest width, some coefficient needs
    # the bound's top bit.  s_lam(1^n) counts lam's tableaux with entries 1..n.
    import wreathlitt.wreath as wreath_module

    true = wreath_module._digit_bits
    for (order, n, degree_cap), misread in {(3, 3, 5): 2, (1, 5, 6): 3, (12, 2, 3): 1}.items():
        lambdas = [lam for k in range(degree_cap + 1) for lam in partitions.partitions_of(k) if len(lam) <= n]
        dimensions = [sum(ssyt_schur_mono(lam, n).values()) for lam in lambdas]
        ident = lab(order, {0: (1,) * n})
        for narrower, wrong in ((0, 0), (1, misread)):
            monkeypatch.setattr(wreath_module, "_digit_bits", lambda bound: true(bound) - narrower)
            evaluator = schur_evaluator(lambdas, n)
            values = [Cyclotomic(order, nums, den) for den, nums in zip(evaluator[0], schur_numerators(evaluator, ident))]
            assert sum(map(operator.ne, values, dimensions)) == wrong, (order, n, narrower)


@pytest.mark.parametrize("order, n", [(1, 5), (2, 4), (3, 3), (12, 2), (150, 1)])
def test_packed_schur_values_decode_to_power_sum_reference(order, n):
    # Packed as paths A and B pack them, one slot of m + phi(m) - 1 digits per
    # lambda and wider digits than the bound needs: each slot's first m digits
    # are lambda's polynomial mod x^m - 1, the rest are 0, and reduced mod Phi_m
    # over dens[i] they are the power-sum reference.
    lambdas = [lam for k in range(min(n + 2, 5)) for lam in partitions.partitions_of(k)]
    dens, bound, at = schur_evaluator(lambdas, n)
    spacing = order + euler_phi(order) - 1
    bits = _digit_bits(bound) + 3
    for rho in wreath_class_labels(n, order):
        digits = _unpack(at(rho, bits, spacing), bits, len(lambdas) * spacing)
        for i, (lam, den) in enumerate(zip(lambdas, dens)):
            slot = digits[i * spacing:(i + 1) * spacing]
            assert not any(slot[order:]) and sum(map(abs, slot)) <= bound, (lam, rho)
            reference = _schur_reference(lam, rho)
            value = Cyclotomic(order, _reduce(slot[:order], order), den)
            assert (value.nums, value.den) == (reference.nums, reference.den), (lam, rho)


def test_unpack_reads_signed_digits():
    digits = [5, -7, 0, 7, -1, 1]
    packed = sum(d << 4 * i for i, d in enumerate(digits))
    assert _unpack(packed, 4, 6) == digits and _unpack(0, 3, 0) == []
    assert _digit_bits(7) == 4 and _digit_bits(8) == 5 and _digit_bits(0) == 1
    # The integer is halved until a part holds at most 48 digits: counts on each side
    # of that and of one halving, and a long row, with the extreme digits at both ends.
    for bits in (2, 21, 65, 130):
        top = (1 << bits - 1) - 1
        for count in (1, 48, 49, 97, 1000):
            rng = random.Random(count)
            digits = [rng.randint(-top, top) for _ in range(count)]
            digits[0], digits[-1], digits[count // 2] = -top, top, top
            packed = sum(d << bits * i for i, d in enumerate(digits))
            assert _unpack(packed, bits, count) == digits, (bits, count)


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
            key = WreathLabel(f.order, _sparse(tuple(sorted(pa + pb, reverse=True)) for pa, pb in zip(_dense(la), _dense(lb))))
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
            terms[rho] = Cyclotomic(order, nums) * Fraction(1, rng.choice([1, 2, 6]))
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
        g = WreathSeries(order, {x: c * -1, y: c})
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


def _factor_series(order, size, factor):
    # a z-scaled integer slot factor [(position, chi, exponent)] of labels of one size as a WreathSeries
    labels = wreath_class_labels(size, order)
    return WreathSeries(order, {
        labels[i]: zeta(order, exponent) * Fraction(chi, centralizer_order(labels[i])) for i, chi, exponent in factor
    })


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_isotypic_factor_matches_power_sum_products(order):
    from wreathlitt.wreath import _schur_isotypic_factor

    lambdas = [lam for k in range(1, 7 if order <= 2 else 5) for lam in partitions.partitions_of(k)]
    for lam in lambdas:
        for j in range(order):
            factor = _schur_isotypic_factor(order, j, lam)
            assert all(type(chi) is int and chi and type(e) is int for _, chi, e in factor), (j, lam)
            assert _factor_series(order, sum(lam), factor) == _isotypic_factor_reference(order, j, lam), (j, lam)


@pytest.mark.parametrize("order, n", [(1, 5), (2, 4), (3, 3), (4, 3), (5, 2), (6, 2), (12, 2), (4, 4)])
def test_characters_are_z_times_the_product_of_reference_factors(order, n):
    # one entry per class, in wreath_class_labels order, all zero exactly
    # where the reference product has no term
    labels, zero = wreath_class_labels(n, order), (0,) * euler_phi(order)
    for rho in labels:
        product = WreathSeries.one(order)
        for j, part in rho.slots:
            product = product * _isotypic_factor_reference(order, j, part)
        values = characters(rho)
        assert type(values) is list and len(values) == len(labels), rho
        for sigma, nums in zip(labels, values):
            assert type(nums) is tuple and all(type(a) is int for a in nums), (rho, sigma)
            if sigma not in product.terms:
                assert nums == zero, (rho, sigma)
                continue
            assert Cyclotomic(order, nums, 1) == centralizer_order(sigma) * product.terms[sigma], (rho, sigma)


def test_characters_at_n_1_are_single_roots():
    # the irreducible j:1 at the class t:1 is zeta^(jt), one monomial
    order = 150
    labels = wreath_class_labels(1, order)
    for rho in labels:
        (j, _), = rho.slots
        values = characters(rho)
        assert len(values) == order
        for sigma, nums in zip(labels, values):
            (t, _), = sigma.slots
            assert nums == zeta(order, j * t).nums, (j, t)


def _compositions_reference(total, slots):
    # first slot's load descending, the rest recursively
    if slots == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total, -1, -1) for rest in _compositions_reference(total - first, slots - 1)]


def test_label_order_matches_slotwise_recursion():
    for order in range(1, 6):
        for n in range(7):
            expected = [
                WreathLabel(order, _sparse(parts))
                for comp in _compositions_reference(n, order)
                for parts in itertools.product(*(partitions.partitions_of(c) for c in comp))
            ]
            assert wreath_class_labels(n, order) == expected, (n, order)


def test_labels_at_a_large_order_need_no_recursion():
    labels = wreath_class_labels(1, 1100)
    assert len(labels) == 1100
    assert labels[0] == lab(1100, {0: (1,)}) and labels[-1] == lab(1100, {1099: (1,)})
