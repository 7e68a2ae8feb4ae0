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
numerators mod Phi_m over one denominator per degree.  Irreducible
characters are integers too, merged by class position through a table of
(position of a u b, z_(a u b) / (z_a z_b)); each value is a sparse map
exponent -> integer until one reduction.  Labels hash once, at construction;
merges and merge tables are memoised, as they read label structure alone.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import factorial, lcm, prod
from operator import mul

from . import partitions
from .exactnum import Cyclotomic, _reduce, euler_phi, zeta
from .partitions import Partition, format_partition, parse_partition
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
    "identity_label",
    "irreducible_dimension",
    "merge_labels",
    "parse_label",
    "power_trace",
    "schur_at_eigenvalues",
    "schur_evaluator",
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
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        last = -1
        for j, part in self.slots:
            if not last < j < self.order or not part:
                raise ValueError(f"expected nonempty slots at rising j in 0..{self.order - 1}, got {self.slots!r}")
            last = j
        object.__setattr__(self, "_hash", hash((self.order, self.slots)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not WreathLabel:
            return NotImplemented
        return self._hash == other._hash and self.order == other.order and self.slots == other.slots

    @property
    def size(self) -> int:
        return sum(sum(part) for _, part in self.slots)

    @classmethod
    def from_mapping(cls, order: int, mapping: dict[int, Partition]) -> "WreathLabel":
        # An empty partition occupies no slot: a later one may fill it.
        slots: dict[int, Partition] = {}
        for j, part in mapping.items():
            k = j % order
            if slots.get(k):
                raise ValueError(f"slot {k} assigned twice")
            slots[k] = tuple(part)
        return cls(order, tuple(sorted((k, part) for k, part in slots.items() if part)))

    def sort_key(self):
        # The order of the dense m-tuples of partitions, empty slots included:
        # at the first slot where two labels differ, an empty partition sorts
        # first, and so does the label whose next nonempty slot lies further
        # on, hence -j.
        return (self.size, tuple((-j, part) for j, part in self.slots))

    def inverse(self) -> "WreathLabel":
        """As a class label, the class of the inverse elements: inverting
        turns each cycle product zeta^t into zeta^(-t), so slot t moves to
        slot -t mod m.  Character values there are the complex conjugates."""
        m = self.order
        return WreathLabel(m, tuple(sorted((-j % m, part) for j, part in self.slots)))

    def __repr__(self) -> str:
        return f"WreathLabel(m={self.order}, {format_label(self) or 'empty'})"


def identity_label(n: int, order: int) -> WreathLabel:
    """The class of the identity element: n one-cycles with trivial product."""
    return WreathLabel.from_mapping(order, {0: (1,) * n})


# Pure label structure, shared by every caller; bounded, as labels vary per scope.
@lru_cache(maxsize=1 << 12)
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
    then partitions slotwise in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    by_load = [partitions.partitions_of(c) for c in range(n + 1)]
    return [
        WreathLabel(order, tuple(zip(slots, parts)))
        for slots, loads in _compositions(n, order)
        for parts in product(*map(by_load.__getitem__, loads))
    ]


# Label structure only, like merge_labels; a run asks for few (size, order) pairs.
@lru_cache(maxsize=1 << 6)
def _class_structure(n: int, order: int) -> tuple[tuple[WreathLabel, Partition, int], ...]:
    # Per label: its cycle type, and the sum over its cycles of each one's slot t.
    return tuple(
        (sigma, tuple(sorted(chain.from_iterable(part for _, part in sigma.slots), reverse=True)),
         sum(t * len(part) for t, part in sigma.slots))
        for sigma in wreath_class_labels(n, order)
    )


# Bounded like merge_labels: a large-m table would keep one entry per label.
@lru_cache(maxsize=1 << 12)
def centralizer_order(rho: WreathLabel) -> int:
    """Centralizer order of the class labelled rho inside the wreath product."""
    out = 1
    for _, part in rho.slots:
        out *= partitions.centralizer_order(part) * rho.order ** len(part)
    return out


def _cyclic_trace(rho: WreathLabel, r: int) -> list[int]:
    # Integer coefficients of p_r at rho's eigenvalues, mod x^m - 1.
    m = rho.order
    work = [0] * m
    for j, part in rho.slots:
        for ell in part:
            if r % ell == 0:
                work[j * (r // ell) % m] += ell
    return work


def _cyclic_product(a: list[int], b: list[int]) -> list[int]:
    # Product of two integer polynomials mod x^m - 1, m = len(a) = len(b).
    m = len(a)
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % m] += x * y
    return out


def power_trace(rho: WreathLabel, r: int) -> Cyclotomic:
    """Power sum p_r of the eigenvalue multiset of the class rho.

    An l-cycle with cycle product zeta^j has eigenvalues the l-th roots of
    zeta^j; their r-th powers sum to l * zeta^(j*r/l) when l divides r and
    vanish otherwise.
    """
    if r < 1:
        raise ValueError("power index must be >= 1")
    return Cyclotomic(rho.order, _cyclic_trace(rho, r))


def schur_evaluator(lambdas):
    """The values of the Schur polynomials s_lam, lam in lambdas, at the
    eigenvalues of a class, on integers: (dens, at), where at(rho) lists each
    lam's power-basis numerators, reduced mod Phi_m, over dens[i] = lcm(z_mu)
    over the partitions mu of |lam|, not in lowest terms.

    Each lam's character row is read once, here, scaled to that lcm.  Per
    class, its traces p_r and each p_mu are built once, as integer
    polynomials mod x^m - 1, p_mu as p_mu without its last part times that
    part's trace, and reduced mod Phi_m once; each value is then one integer
    dot of lam's row per power-basis column.  A lam with more rows than
    there are eigenvalues gives 0 (the zero specialization, not an error).
    """
    # |lam| -> lcm(z_mu) over the partitions mu of |lam|, once per degree
    lcms = {k: lcm(*map(partitions.centralizer_order, partitions.partitions_of(k))) for k in set(map(sum, lambdas))}
    rows, dens = [], []
    for lam in lambdas:
        k = sum(lam)
        row, den = partitions.character_table(k)[lam], lcms[k]
        rows.append((len(lam), k, [chi * (den // partitions.centralizer_order(mu)) for mu, chi in row.items()]))
        dens.append(den)
    top = max(lcms, default=0)

    def at(rho: WreathLabel) -> list[tuple[int, ...]]:
        m, size = rho.order, rho.size
        traces = [None] + [_cyclic_trace(rho, r) for r in range(1, top + 1)]
        products = {(): [1] + [0] * (m - 1)}
        for k in range(1, top + 1):
            for mu in partitions.partitions_of(k):
                products[mu] = _cyclic_product(products[mu[:-1]], traces[mu[-1]])
        # |lam| -> its p_mu reduced mod Phi_m (in place: every product is built), as columns over mu
        columns = {k: list(zip(*(_reduce(products[mu], m) for mu in partitions.partitions_of(k)))) for k in lcms}
        zero = (0,) * euler_phi(m)
        return [
            tuple([sum(map(mul, row, column)) for column in columns[k]]) if length <= size else zero
            for length, k, row in rows
        ]

    return dens, at


def schur_at_eigenvalues(lam: Partition, rho: WreathLabel) -> Cyclotomic:
    """s_lam at the eigenvalues of rho: the one-lambda case of schur_evaluator."""
    (den,), at = schur_evaluator([lam])
    return Cyclotomic(rho.order, at(rho)[0], den)


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
        for ell, mult in partitions.multiplicities(part).items():
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
            pairs: dict[WreathLabel, list] = {}
            for la, ca in self.terms.items():
                for lb, cb in other.terms.items():
                    if trunc is None or la.size + lb.size <= trunc:
                        pairs.setdefault(merge_labels(la, lb), []).append((ca, cb))
            out = {key: sum(a * b for a, b in pair) for key, pair in pairs.items()}
            return WreathSeries(self.order, out, trunc)
        return WreathSeries(
            self.order,
            {label: coeff * other for label, coeff in self.terms.items()},
            self.truncation,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WreathSeries):
            return NotImplemented
        if self.order != other.order or self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __repr__(self) -> str:
        body = " + ".join(
            f"({coeff})*P[{format_label(label) or 'empty'}]"
            for label, coeff in sorted(
                self.terms.items(), key=lambda kv: kv[0].sort_key()
            )
        )
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


def _schur_isotypic_factor(order: int, j: int, lam: Partition) -> list[tuple[WreathLabel, int, int]]:
    # s_lam[phi_j] in closed form (see the convention note), z-scaled, in one pass over
    # the labels: (sigma, chi, j turns) for z_sigma [P_sigma] = chi zeta^(j turns) != 0.
    return [
        (sigma, chi, j * turns) for sigma, cycle_type, turns in _class_structure(sum(lam), order)
        if (chi := partitions.symmetric_group_character(lam, cycle_type))
    ]


# Label structure only, like _class_structure: each label's position in wreath_class_labels.
@lru_cache(maxsize=1 << 6)
def _class_index(n: int, order: int) -> dict[WreathLabel, int]:
    return {sigma: i for i, (sigma, _, _) in enumerate(_class_structure(n, order))}


# Label structure only, like merge_labels: for labels a and b of sizes k1 and k2, by
# position, (the position of c = a u b among the labels of size k1 + k2, z_c / (z_a z_b)).
@lru_cache(maxsize=1 << 6)
def _merge_table(k1: int, k2: int, order: int) -> list[list[tuple[int, int]]]:
    position = _class_index(k1 + k2, order)
    return [
        [(position[c := merge_labels(a, b)], centralizer_order(c) // (centralizer_order(a) * centralizer_order(b)))
         for b in _class_index(k2, order)]
        for a in _class_index(k1, order)
    ]


# zeta^e in the power basis, as its nonzero (index, numerator) pairs, for e in 0..m-1
@lru_cache(maxsize=1 << 4)
def _power_basis(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(tuple((i, a) for i, a in enumerate(zeta(order, e).nums) if a) for e in range(order))


def characters(rho: WreathLabel) -> dict[WreathLabel, tuple[int, ...]]:
    """chi^rho at each class where it is nonzero, as integer power-basis
    numerators: the ring product of the z-scaled slot factors, where z_c [P_c] fg
    gains (z_c / (z_a z_b)) (z_a [P_a] f)(z_b [P_b] g) for c = a u b, an integer.
    Classes are keyed by position, merged through _merge_table, and each value
    is kept as a sparse map exponent -> integer until one reduction at the end."""
    m = rho.order
    factors = [(sum(part), _schur_isotypic_factor(m, j, part)) for j, part in rho.slots]
    (size, first), *rest = factors or [(0, [(WreathLabel(m, ()), 1, 0)])]
    position = _class_index(size, m)
    values = {position[sigma]: {turn % m: chi} for sigma, chi, turn in first}
    for k, factor in rest:
        table, position = _merge_table(size, k, m), _class_index(k, m)
        factor = [(position[b], chi, turn) for b, chi, turn in factor]
        merged = {}
        for a, monomials in values.items():
            row = table[a]
            for b, chi, turn in factor:
                c, ratio = row[b]
                scale, out = chi * ratio, merged.setdefault(c, {})
                for e, x in monomials.items():
                    t = (e + turn) % m
                    out[t] = out.get(t, 0) + scale * x
        values, size = merged, size + k
    result, phi, basis, structure = {}, euler_phi(m), _power_basis(m), _class_structure(size, m)
    for c, monomials in values.items():
        nums = [0] * phi
        for e, x in monomials.items():
            for i, a in basis[e]:
                nums[i] += a * x
        if any(nums):
            result[structure[c][0]] = tuple(nums)
    return result


def frobenius_characteristic(rho: WreathLabel) -> WreathSeries:
    """P-basis expansion of the characteristic of the irreducible labelled rho:
    its coefficient at a class label sigma is the character value there over
    sigma's centralizer order."""
    values = characters(rho).items()
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
    mod the order, and assigning one slot twice is an error.
    """
    mapping: dict[int, Partition] = {}
    text = text.strip()
    if text:
        for item in text.split(";"):
            if ":" not in item:
                raise ValueError(f"bad label item {item!r}, expected 'j:parts'")
            head, _, tail = item.partition(":")
            j = int(head)
            part = parse_partition(tail)
            if j % order in mapping:
                raise ValueError(f"slot {j % order} assigned twice")
            if part:
                mapping[j % order] = part
    return WreathLabel.from_mapping(order, mapping)


def format_label(rho: WreathLabel) -> str:
    return ";".join(f"{j}:{format_partition(part)}" for j, part in rho.slots)
