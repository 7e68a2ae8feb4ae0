"""The wreath symmetric function ring for the groups mu_m^n semidirect S_n.

Conjugacy classes and irreducibles are labelled by maps j -> partition for
j in 0..m-1, the j-th slot recording cycles whose cycle product is the j-th
power of the primitive m-th root of unity.  A label of size n has at most n
nonempty slots, and stores only those.  Series live in the P-basis,
P_rho = product over slots of p_{rho_j} on the slot's own alphabet, which is
orthogonal for the wreath pairing with norm the centralizer order.

Eigenvalue data is never materialized: an l-cycle with cycle product z
contributes the l-th roots of z, so all power sums of eigenvalues lie in
Z[zeta_m] and come from a divisor sum; Schur values at them are integer
polynomials mod x^m - 1 over one denominator per degree, read at x = 2^b so
that one big-integer product does a polynomial product.  Irreducible
characters are integers too, merged by class position through a table of
(position of a u b, z_(a u b) / (z_a z_b)); each value is a sparse map
exponent -> integer until one reduction, and handed back as a list by class
position, so that no reader hashes a label per class; merge tables are
memoised, as they read label structure alone.

Convention note: the isotypic alphabet map phi_j = (1/m) sum_t zeta^(jt) X_t
is a linear change of alphabets; its root-of-unity weights are coefficients,
fixed under p_n substitution (they are never raised to the n-th power).  So
s_lam[phi_j] weighs each cycle of slot t by one zeta^(jt)/m, never one per
box: at sigma it is chi^lam(cycle type of sigma) zeta^(j sum_t t len(sigma_t))
over the centralizer order of sigma.  This is the unique reading that makes
the hyperoctahedral character tables and the independent verification
paths agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import factorial, prod

from . import partitions
from .exactnum import Cyclotomic, _reduce, euler_phi, zeta
from .partitions import Partition, format_partition, parse_integer, parse_partition
from .symfunc import SymSeries, _min_trunc, constant, omega_at_root, stretch

__all__ = [
    "NonIntegralError",
    "OrderMismatchError",
    "WreathLabel",
    "WreathSeries",
    "centralizer_order",
    "characters",
    "evaluation_kernel",
    "evaluation_kernel_product_form",
    "format_label",
    "frobenius_characteristic",
    "irreducible_dimension",
    "merge_labels",
    "parse_label",
    "power_trace",
    "schur_at_eigenvalues",
    "schur_evaluator",
    "schur_numerators",
    "wreath_class_labels",
    "wreath_inner_product",
]

class OrderMismatchError(ValueError):
    """Two wreath values built over different root-of-unity orders."""


class NonIntegralError(ArithmeticError):
    """A quantity that must be a non-negative integer failed to be one."""


@dataclass(frozen=True, slots=True)
class WreathLabel:
    """A class/irreducible label, an m-multipartition: slots holds (j, partition)
    for each nonempty slot, with j rising strictly within 0..m-1, and every
    slot not in it holds the empty partition.  So a label costs memory in its
    size, not in m, and equal labels have equal slots."""

    order: int
    slots: tuple[tuple[int, Partition], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        last = -1
        for j, part in self.slots:
            if not last < j < self.order or not part:
                raise ValueError(f"expected nonempty slots at rising j in 0..{self.order - 1}, got {self.slots!r}")
            last = j

    @property
    def size(self) -> int:
        return sum(sum(part) for _, part in self.slots)

    @classmethod
    def from_mapping(cls, order: int, mapping: dict[int, Partition]) -> "WreathLabel":
        # An empty partition occupies no slot, so it never conflicts, in either order.
        slots: dict[int, Partition] = {}
        for j, part in mapping.items():
            if not part:
                continue
            if (k := j % order) in slots:
                raise ValueError(f"slot {k} assigned twice")
            slots[k] = tuple(part)
        return cls(order, tuple(sorted(slots.items())))

    def inverse(self) -> "WreathLabel":
        """As a class label, the class of the inverse elements: inverting
        turns each cycle product zeta^t into zeta^(-t), so slot t moves to
        slot -t mod m.  Character values there are the complex conjugates."""
        m = self.order
        return WreathLabel(m, tuple(sorted((-j % m, part) for j, part in self.slots)))

    def __repr__(self) -> str:
        return f"WreathLabel(m={self.order}, {format_label(self) or 'empty'})"


def merge_labels(a: WreathLabel, b: WreathLabel) -> WreathLabel:
    if a.order != b.order:
        raise OrderMismatchError(f"orders {a.order} and {b.order} differ")
    merged = dict(a.slots)
    for j, part in b.slots:
        merged[j] = tuple(sorted(merged.get(j, ()) + part, reverse=True))
    return WreathLabel(a.order, tuple(sorted(merged.items())))


def _compositions(total: int, slots: int):
    # Stars and bars: star positions among total + slots - 1 places, taken in
    # lexicographic order, give the first slot's load descending-first; a star
    # at position p with i stars before it lies in slot p - i.  Yields the
    # loaded slots, rising, and their loads.
    for stars in combinations(range(total + slots - 1), total):
        loads = Counter(position - i for i, position in enumerate(stars))
        yield tuple(loads), tuple(loads.values())


def wreath_class_labels(n: int, order: int) -> list[WreathLabel]:
    """All labels of size n, in a fixed order: slot loads descending-first,
    then partitions slotwise in reverse-lexicographic order.  Every call
    lists the same label objects, so dicts keyed by them hit by identity."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return list(_class_labels(n, order))


# Label structure only; a run asks for few (size, order) pairs.
@lru_cache(maxsize=1 << 6)
def _class_labels(n: int, order: int) -> tuple[WreathLabel, ...]:
    by_load = [partitions.partitions_of(c) for c in range(n + 1)]
    return tuple(
        WreathLabel(order, tuple(zip(slots, parts)))
        for slots, loads in _compositions(n, order)
        for parts in product(*map(by_load.__getitem__, loads))
    )


# Label structure only, like _class_labels; a run asks for few (size, order) pairs.
@lru_cache(maxsize=1 << 6)
def _cycle_type_classes(n: int, order: int) -> tuple[tuple[Partition, tuple[tuple[int, int], ...]], ...]:
    # The labels grouped by cycle type: per type, each label's position and the sum
    # over its cycles of each one's slot t.
    groups: dict[Partition, list[tuple[int, int]]] = {}
    for i, sigma in enumerate(_class_labels(n, order)):
        cycle_type = tuple(sorted(chain.from_iterable(part for _, part in sigma.slots), reverse=True))
        groups.setdefault(cycle_type, []).append((i, sum(t * len(part) for t, part in sigma.slots)))
    return tuple((cycle_type, tuple(members)) for cycle_type, members in groups.items())


def centralizer_order(rho: WreathLabel) -> int:
    """Centralizer order of the class labelled rho inside the wreath product."""
    out = 1
    for _, part in rho.slots:
        out *= partitions.centralizer_order(part) * rho.order ** len(part)
    return out


def _cyclic_trace(rho: WreathLabel, r: int, bits: int) -> int:
    # p_r at rho's eigenvalues, an integer polynomial mod x^m - 1, packed at x = 2^bits.
    m = rho.order
    return sum(ell << bits * (j * (r // ell) % m) for j, part in rho.slots for ell in part if r % ell == 0)


def _cyclic_product(a: int, b: int, m: int, bits: int) -> int:
    # Product of two packed polynomials mod x^m - 1: x^m = 1 folds the high m digits
    # onto the low ones, exact while the digits are non-negative and below 2^bits - 1.
    c = a * b
    return (c & (1 << m * bits) - 1) + (c >> m * bits)


def _digit_bits(bound: int) -> int:
    # The width of a signed packed digit that holds every integer of absolute value <= bound.
    return bound.bit_length() + 1


def _unpack(packed: int, bits: int, count: int) -> list[int]:
    # The count signed digits of packed at x = 2^bits, lowest first: an offset of
    # 2^(bits-1) per digit makes each one a non-negative bit field.  Halving the integer
    # until each part holds at most 48 digits keeps the decoding linear in its size.
    half, mask, width = 1 << bits - 1, (1 << bits) - 1, bits * count
    parts = [(packed + ((1 << width) - 1) // mask * half & (1 << width) - 1, count)]
    while parts[-1][1] > 48:  # the last part is a largest one
        parts = [piece for value, k in parts for low in [k // 2]
                 for piece in ((value & (1 << bits * low) - 1, low), (value >> bits * low, k - low))]
    return [(value >> i & mask) - half for value, k in parts for i in range(0, bits * k, bits)]


def power_trace(rho: WreathLabel, r: int) -> Cyclotomic:
    """Power sum p_r of the eigenvalue multiset of the class rho.

    An l-cycle with cycle product zeta^j has eigenvalues the l-th roots of
    zeta^j; their r-th powers sum to l * zeta^(j*r/l) when l divides r and
    vanish otherwise.
    """
    if r < 1:
        raise ValueError("power index must be >= 1")
    # the trace's coefficients are non-negative and sum to at most |rho|
    bits = _digit_bits(rho.size)
    return Cyclotomic(rho.order, _unpack(_cyclic_trace(rho, r, bits), bits, rho.order))


def schur_evaluator(lambdas, n: int):
    """The Schur polynomials s_lam, lam in lambdas, at the eigenvalues of a
    class of size at most n, one integer per class: (dens, bound, at).

    Kronecker substitution: at(rho, bits, spacing) is, at x = 2^bits, the sum
    over i of x^(i * spacing) times S_i, where S_i, an integer polynomial mod
    x^m - 1 (spacing >= m), is lambdas[i]'s value at rho times dens[i] =
    |lam|! = lcm(z_mu) over the partitions mu of |lam|.  bound bounds the sum
    of |coefficients| of every S_i, so any bits >= _digit_bits(bound) keeps
    them apart.

    Each lam's character row is read once, here, scaled to that den, and each
    mu's coefficients over the lambdas are packed once per (bits, spacing).
    Per class, its traces p_r are packed once, each p_mu is p_mu without its
    last part times that part's trace, one product mod x^m - 1, and every S_i
    comes from one sum of p_mu times mu's packed coefficients.  The traces'
    coefficients are non-negative and those of p_mu sum to at most
    n^len(mu), so every product is exact.  A lam with more rows than there
    are eigenvalues gives 0.
    """
    top = max(map(sum, lambdas), default=0)
    # every mu up to degree top by position, () first; per later mu, mu[:-1]'s position and mu[-1]
    position = {mu: i for i, mu in enumerate(mu for k in range(top + 1) for mu in partitions.partitions_of(k))}
    steps = [(position[mu[:-1]], mu[-1]) for mu in position if mu]
    rows, dens, bound, packed_rows = {}, [], 0, {}
    for i, lam in enumerate(lambdas):
        k = sum(lam)
        row, den = partitions.character_table(k)[partitions.partition_index(k)[lam]], factorial(k)
        scaled = [(mu, chi * (den // partitions.centralizer_order(mu))) for mu, chi in zip(partitions.partitions_of(k), row)]
        for mu, c in scaled:
            rows.setdefault(position[mu], []).append((i, c))
        bound = max(bound, sum(abs(c) * n ** len(mu) for mu, c in scaled))
        dens.append(den)

    def at(rho: WreathLabel, bits: int, spacing: int) -> int:
        m = rho.order
        if (bits, spacing) not in packed_rows:
            step = bits * spacing
            packed_rows[bits, spacing] = [(mu, sum(c << step * i for i, c in row)) for mu, row in rows.items()]
        traces = [None] + [_cyclic_trace(rho, r, bits) for r in range(1, top + 1)]
        products = [1]
        for parent, part in steps:
            products.append(_cyclic_product(products[parent], traces[part], m, bits))
        return sum(products[mu] * row for mu, row in packed_rows[bits, spacing])

    return dens, bound, at


def schur_numerators(evaluator, rho: WreathLabel) -> list[tuple[int, ...]]:
    """Each lam's value from evaluator = schur_evaluator(lambdas, n) at rho,
    as its power-basis numerators reduced mod Phi_m, over dens[i]."""
    dens, bound, at = evaluator
    m, bits = rho.order, _digit_bits(bound)
    digits = _unpack(at(rho, bits, m), bits, len(dens) * m)
    return [_reduce(digits[i:i + m], m) for i in range(0, len(digits), m)]


def schur_at_eigenvalues(lam: Partition, rho: WreathLabel) -> Cyclotomic:
    """s_lam at the eigenvalues of rho: the one-lambda case of schur_evaluator."""
    evaluator = schur_evaluator([lam], rho.size)
    return Cyclotomic(rho.order, schur_numerators(evaluator, rho)[0], evaluator[0][0])


def evaluation_kernel(rho: WreathLabel, max_degree: int) -> SymSeries:
    """The series whose Hall pairing against f returns f at rho's eigenvalues.

    In power sums: sum over lam of p_lam * (p_lam at the eigenvalues) / z_lam,
    truncated by total degree; so F_lam is p_lam at the eigenvalues, the
    product of the traces over the parts of lam.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    traces = {r: power_trace(rho, r) for r in range(1, max_degree + 1)}
    return SymSeries(
        {lam: prod(traces[part] for part in lam) for k in range(max_degree + 1) for lam in partitions.partitions_of(k)},
        max_degree,
    )


def evaluation_kernel_product_form(rho: WreathLabel, max_degree: int) -> SymSeries:
    """Same series built from its product formula: one geometric factor
    (1 - zeta^j x^l)^{-1} over every cycle of the class, expanded plethystically."""
    m = rho.order
    result = constant(1, max_degree)
    for j, part in rho.slots:
        for ell, mult in Counter(part).items():
            factor = stretch(omega_at_root(j, m, max_degree // ell), ell)
            for _ in range(mult):
                result = result * factor
    return result


class WreathSeries:
    """Sparse element of the wreath ring in the P-basis.

    The same conventions as SymSeries: truncation None is exact, zero
    coefficients are never stored, equality ignores the truncation tag.
    A coefficient may itself be a series on further alphabets.
    """

    __slots__ = ("order", "truncation", "terms")

    def __init__(self, order: int, terms: dict, truncation: int | None = None):
        clean = {}
        for label, coeff in terms.items():
            if label.order != order:
                raise OrderMismatchError("label order differs from series order")
            if truncation is not None and label.size > truncation:
                continue
            if coeff:
                clean[label] = coeff
        self.order = order
        self.truncation = truncation
        self.terms = clean

    @classmethod
    def one(cls, order: int) -> "WreathSeries":
        return cls(order, {WreathLabel(order, ()): Fraction(1)})

    def __add__(self, other: "WreathSeries") -> "WreathSeries":
        if not isinstance(other, WreathSeries):
            return NotImplemented
        if other.order != self.order:
            raise OrderMismatchError("cannot add series of different orders")
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) + coeff
        return WreathSeries(self.order, out, _min_trunc(self.truncation, other.truncation))

    def __radd__(self, other):
        # 0 + f, as in sum() or a dict.get(key, 0) accumulator
        return self if other == 0 else NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __mul__(self, other):
        if isinstance(other, WreathSeries):
            if other.order != self.order:
                raise OrderMismatchError("cannot multiply series of different orders")
            trunc = _min_trunc(self.truncation, other.truncation)
            out: dict = {}
            for la, ca in self.terms.items():
                for lb, cb in other.terms.items():
                    if trunc is None or la.size + lb.size <= trunc:
                        key = merge_labels(la, lb)
                        out[key] = out.get(key, 0) + ca * cb
            return WreathSeries(self.order, out, trunc)
        return WreathSeries(
            self.order,
            {label: coeff * other for label, coeff in self.terms.items()},
            self.truncation,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WreathSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(f"({coeff})*P[{format_label(label) or 'empty'}]" for label, coeff in self.terms.items())
        return f"WreathSeries[m={self.order}; D={self.truncation}]({body or '0'})"


def wreath_inner_product(f: WreathSeries, g: WreathSeries):
    """Bilinear pairing, diagonal on the P-basis with norm the centralizer
    order; an element of Q(zeta_m)."""
    if f.order != g.order:
        raise OrderMismatchError("pairing requires equal orders")
    if len(g.terms) < len(f.terms):
        f, g = g, f
    shared = (
        centralizer_order(label) * cf * cg
        for label, cf in f.terms.items()
        if (cg := g.terms.get(label)) is not None
    )
    return sum(shared, Cyclotomic.from_rational(0, f.order))


def _schur_isotypic_factor(order: int, j: int, lam: Partition) -> list[tuple[int, int, int]]:
    # s_lam[phi_j] in closed form (see the convention note), z-scaled: (position of sigma,
    # chi, j turns) for z_sigma [P_sigma] = chi zeta^(j turns) != 0, with chi read once per
    # cycle type and only that type's labels visited.
    return [(i, chi, j * turns) for cycle_type, members in _cycle_type_classes(sum(lam), order)
            if (chi := partitions.symmetric_group_character(lam, cycle_type)) for i, turns in members]


# Label structure only, like _class_labels: for labels a and b of sizes k1 and k2, by
# position, (the position of c = a u b among the labels of size k1 + k2, z_c / (z_a z_b)).
@lru_cache(maxsize=1 << 6)
def _merge_table(k1: int, k2: int, order: int) -> list[list[tuple[int, int]]]:
    position = {c: i for i, c in enumerate(_class_labels(k1 + k2, order))}
    return [
        [(position[c := merge_labels(a, b)], centralizer_order(c) // (centralizer_order(a) * centralizer_order(b)))
         for b in _class_labels(k2, order)]
        for a in _class_labels(k1, order)
    ]


# zeta^e in the power basis, as its nonzero (index, numerator) pairs, for e in 0..m-1
@lru_cache(maxsize=1 << 4)
def _power_basis(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(tuple((i, a) for i, a in enumerate(zeta(order, e).nums) if a) for e in range(order))


def characters(rho: WreathLabel) -> list[tuple[int, ...]]:
    """chi^rho at each class of wreath_class_labels(rho.size, rho.order), in
    that order, as integer power-basis numerators, all zero where it vanishes:
    the ring product of the z-scaled slot factors, where z_c [P_c] fg gains
    (z_c / (z_a z_b)) (z_a [P_a] f)(z_b [P_b] g) for c = a u b, an integer.
    Classes are merged by position through _merge_table, and each value is
    kept as a sparse map exponent -> integer until one reduction at the end."""
    m = rho.order
    factors = [(sum(part), _schur_isotypic_factor(m, j, part)) for j, part in rho.slots]
    (size, first), *rest = factors or [(0, [(0, 1, 0)])]
    values = {a: {turn % m: chi} for a, chi, turn in first}
    for k, factor in rest:
        table, merged = _merge_table(size, k, m), {}
        for a, monomials in values.items():
            row = table[a]
            for b, chi, turn in factor:
                c, ratio = row[b]
                scale, out = chi * ratio, merged.setdefault(c, {})
                for e, x in monomials.items():
                    t = (e + turn) % m
                    out[t] = out.get(t, 0) + scale * x
        values, size = merged, size + k
    phi, basis = euler_phi(m), _power_basis(m)
    result = [(0,) * phi] * len(_class_labels(size, m))
    for c, monomials in values.items():
        if len(monomials) == 1 and 1 in monomials.values():
            # one root of unity, as every value is at n = 1: its numerators are cached
            result[c] = zeta(m, *monomials).nums
            continue
        nums = [0] * phi
        for e, x in monomials.items():
            for i, a in basis[e]:
                nums[i] += a * x
        result[c] = tuple(nums)
    return result


def frobenius_characteristic(rho: WreathLabel) -> WreathSeries:
    """P-basis expansion of the characteristic of the irreducible labelled rho:
    its coefficient at a class label sigma is the character value there over
    sigma's centralizer order."""
    values = zip(_class_labels(rho.size, rho.order), characters(rho))
    return WreathSeries(rho.order, {sigma: Cyclotomic(rho.order, nums, centralizer_order(sigma)) for sigma, nums in values})


def irreducible_dimension(rho: WreathLabel) -> int:
    """Dimension of the irreducible labelled rho:
    a multinomial times the product of the slotwise tableau counts."""
    dim = factorial(rho.size)
    for _, part in rho.slots:
        dim = dim // factorial(sum(part)) * partitions.specht_dimension(part)
    return dim


def parse_label(text: str, order: int) -> WreathLabel:
    """Parse "j:parts" items joined by semicolons, e.g. "0:2,1;1:1".

    Slots not mentioned hold the empty partition; exponents are reduced
    mod the order.  An empty item occupies no slot, so it never conflicts;
    two nonempty items for one slot are an error.
    """
    mapping: dict[int, Partition] = {}
    text = text.strip()
    if text:
        for item in text.split(";"):
            if ":" not in item:
                raise ValueError(f"bad label item {item!r}, expected 'j:parts'")
            head, _, tail = item.partition(":")
            j = parse_integer(head)
            if not (part := parse_partition(tail)):
                continue
            if j % order in mapping:
                raise ValueError(f"slot {j % order} assigned twice")
            mapping[j % order] = part
    return WreathLabel.from_mapping(order, mapping)


def format_label(rho: WreathLabel) -> str:
    return ";".join(f"{j}:{format_partition(part)}" for j, part in rho.slots)
