"""The wreath symmetric function ring for the groups mu_m^n semidirect S_n.

Conjugacy classes and irreducibles are labelled by maps j -> partition for
j in 0..m-1, the j-th slot recording cycles whose cycle product is the j-th
power of the primitive m-th root of unity.  Series live in the P-basis,
P_rho = product over slots of p_{rho_j} on the slot's own alphabet, which is
orthogonal for the wreath pairing with norm the centralizer order.

Eigenvalue data is never materialized: an l-cycle with cycle product z
contributes the l-th roots of z, so all power sums of eigenvalues lie in
Z[zeta_m] and come from a divisor sum; Schur values at them stay integer
polynomials mod x^m - 1 until one reduction mod Phi_m.  Labels hash once, at
construction, and a series product reduces each cyclotomic coefficient once;
merging labels is memoised, as it reads label structure alone.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations, product
from math import factorial, lcm
from operator import mul

from . import partitions
from .exactnum import Cyclotomic, reduce_mod_cyclotomic, sum_of_products, zeta
from .partitions import Partition, format_partition, parse_partition
from .symfunc import SymSeries, omega_at_root, stretch

__all__ = [
    "NonIntegralError",
    "OrderMismatchError",
    "WreathLabel",
    "WreathSeries",
    "centralizer_order",
    "characteristic_polynomial",
    "conjugacy_class_size",
    "evaluation_kernel",
    "evaluation_kernel_product_form",
    "format_label",
    "frobenius_characteristic",
    "identity_label",
    "irreducible_character",
    "irreducible_dimension",
    "merge_labels",
    "parse_label",
    "power_trace",
    "schur_at_eigenvalues",
    "schur_values_at_class",
    "wreath_class_labels",
    "wreath_inner_product",
]


class OrderMismatchError(ValueError):
    """Two wreath values built over different root-of-unity orders."""


class NonIntegralError(ArithmeticError):
    """A quantity that must be a non-negative integer failed to be one."""


@dataclass(frozen=True)
class WreathLabel:
    """A class/irreducible label: one partition per power of the root of unity."""

    order: int
    parts: tuple[Partition, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.parts) != self.order:
            raise ValueError(
                f"expected {self.order} slots, got {len(self.parts)}"
            )
        object.__setattr__(self, "_hash", hash((self.order, self.parts)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not WreathLabel:
            return NotImplemented
        return self._hash == other._hash and self.order == other.order and self.parts == other.parts

    @property
    def size(self) -> int:
        return sum(sum(part) for part in self.parts)

    @classmethod
    def from_mapping(cls, order: int, mapping: dict[int, Partition]) -> "WreathLabel":
        slots = [()] * order
        for j, part in mapping.items():
            k = j % order
            if slots[k]:
                raise ValueError(f"slot {k} assigned twice")
            slots[k] = tuple(part)
        return cls(order, tuple(slots))

    def sort_key(self):
        return (self.size, self.parts)

    def __repr__(self) -> str:
        return f"WreathLabel(m={self.order}, {format_label(self) or 'empty'})"


def identity_label(n: int, order: int) -> WreathLabel:
    """The class of the identity element: n one-cycles with trivial product."""
    return WreathLabel(order, ((1,) * n,) + ((),) * (order - 1))


# Pure label structure, shared by every caller; bounded, as labels vary per scope.
@lru_cache(maxsize=1 << 12)
def merge_labels(a: WreathLabel, b: WreathLabel) -> WreathLabel:
    if a.order != b.order:
        raise OrderMismatchError(f"orders {a.order} and {b.order} differ")
    return WreathLabel(
        a.order,
        tuple(
            tuple(sorted(pa + pb, reverse=True)) for pa, pb in zip(a.parts, b.parts)
        ),
    )


def _compositions(total: int, slots: int):
    # Stars and bars: star positions among total + slots - 1 places, taken in
    # lexicographic order, give the first slot's load descending-first; a
    # star's slot is the number of bars before it.
    for stars in combinations(range(total + slots - 1), total):
        comp = [0] * slots
        for i, position in enumerate(stars):
            comp[position - i] += 1
        yield tuple(comp)


def wreath_class_labels(n: int, order: int) -> list[WreathLabel]:
    """All labels of size n, in a fixed order: slot loads descending-first,
    then partitions slotwise in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    by_load = [partitions.partitions_of(c) for c in range(n + 1)]
    return [
        WreathLabel(order, parts)
        for comp in _compositions(n, order)
        for parts in product(*map(by_load.__getitem__, comp))
    ]


@lru_cache(maxsize=None)
def centralizer_order(rho: WreathLabel) -> int:
    """Centralizer order of the class labelled rho inside the wreath product."""
    out = 1
    for part in rho.parts:
        out *= partitions.centralizer_order(part) * rho.order ** len(part)
    return out


def conjugacy_class_size(rho: WreathLabel) -> int:
    group_order = rho.order**rho.size * factorial(rho.size)
    size, rem = divmod(group_order, centralizer_order(rho))
    if rem:
        raise NonIntegralError(f"class size of {rho!r} is not integral")
    return size


def characteristic_polynomial(rho: WreathLabel) -> tuple[Cyclotomic, ...]:
    """Coefficients (constant first) of det(Id - t*g) for g in the class rho.

    Each l-cycle with cycle product zeta^j contributes a factor 1 - zeta^j t^l.
    """
    m = rho.order
    poly: list[Cyclotomic] = [Cyclotomic.from_rational(1, m)]
    for j, part in enumerate(rho.parts):
        for ell in part:
            root = zeta(m, j)
            poly = [
                (poly[i] if i < len(poly) else Cyclotomic.from_rational(0, m))
                - (root * poly[i - ell] if i >= ell else Cyclotomic.from_rational(0, m))
                for i in range(len(poly) + ell)
            ]
    return tuple(poly)


def _cyclic_trace(rho: WreathLabel, r: int) -> list[int]:
    # Integer coefficients of p_r at rho's eigenvalues, mod x^m - 1.
    m = rho.order
    work = [0] * m
    for j, part in enumerate(rho.parts):
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
    return reduce_mod_cyclotomic(_cyclic_trace(rho, r), rho.order)


def schur_values_at_class(lambdas, rho: WreathLabel) -> list[Cyclotomic]:
    """Exact values of the Schur polynomials s_lam, lam in lambdas, at the
    eigenvalues of rho, from the power-sum expansion of s_lam.

    rho's traces p_r and each p_mu are built once, as integer polynomials mod
    x^m - 1, p_mu as p_mu without its last part times that part's trace.
    Scaled to lcm(z_mu), each value is one integer dot of lam's character row
    per power of x and one reduction mod Phi_m.  A lam with more rows than
    there are eigenvalues gives 0 (the zero specialization, not an error).
    """
    m = rho.order
    top = max(map(sum, lambdas), default=0)
    traces = [None] + [_cyclic_trace(rho, r) for r in range(1, top + 1)]
    products = {(): [1] + [0] * (m - 1)}
    for k in range(1, top + 1):
        for mu in partitions.partitions_of(k):
            products[mu] = _cyclic_product(products[mu[:-1]], traces[mu[-1]])
    columns = {}  # |lam| -> (lcm(z_mu), the scaled p_mu as m integer columns over mu)
    values = []
    for lam in lambdas:
        if len(lam) > rho.size:
            values.append(Cyclotomic.from_rational(0, m))
            continue
        k = sum(lam)
        shapes = partitions.partitions_of(k)
        if k not in columns:
            den = lcm(*map(partitions.centralizer_order, shapes))
            scaled = ([c * (den // partitions.centralizer_order(mu)) for c in products[mu]] for mu in shapes)
            columns[k] = den, list(zip(*scaled))
        den, cols = columns[k]
        row = [partitions.symmetric_group_character(lam, mu) for mu in shapes]
        values.append(reduce_mod_cyclotomic([sum(map(mul, row, col)) for col in cols], m) * Fraction(1, den))
    return values


def schur_at_eigenvalues(lam: Partition, rho: WreathLabel) -> Cyclotomic:
    """s_lam at the eigenvalues of rho: the one-lambda case of schur_values_at_class."""
    return schur_values_at_class([lam], rho)[0]


def evaluation_kernel(rho: WreathLabel, max_degree: int) -> SymSeries:
    """The series whose Hall pairing against f returns f at rho's eigenvalues.

    In power sums: sum over lam of p_lam * (p_lam at the eigenvalues) / z_lam,
    truncated by total degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    traces = {r: power_trace(rho, r) for r in range(1, max_degree + 1)}
    terms: dict[Partition, object] = {}
    for k in range(max_degree + 1):
        for lam in partitions.partitions_of(k):
            value = Fraction(1, partitions.centralizer_order(lam))
            for part in lam:
                value = value * traces[part]
            if value:
                terms[lam] = value
    return SymSeries("p", terms, max_degree)


def evaluation_kernel_product_form(rho: WreathLabel, max_degree: int) -> SymSeries:
    """Same series built from its product formula: one geometric factor
    (1 - zeta^j x^l)^{-1} over every cycle of the class, expanded plethystically."""
    m = rho.order
    result = SymSeries("p", {(): Fraction(1)}, max_degree)
    for j, part in enumerate(rho.parts):
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
        return cls(order, {WreathLabel(order, ((),) * order): Fraction(1)})

    def coefficient(self, label: WreathLabel):
        return self.terms.get(label, Fraction(0))

    def __add__(self, other: "WreathSeries") -> "WreathSeries":
        if not isinstance(other, WreathSeries):
            return NotImplemented
        if other.order != self.order:
            raise OrderMismatchError("cannot add series of different orders")
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) + coeff
        trunc = self.truncation
        if trunc is None or (other.truncation is not None and other.truncation < trunc):
            trunc = other.truncation
        return WreathSeries(self.order, out, trunc)

    def __radd__(self, other):
        # 0 + f, as in sum() or a dict.get(key, 0) accumulator
        return self if other == 0 else NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __mul__(self, other):
        if isinstance(other, WreathSeries):
            if other.order != self.order:
                raise OrderMismatchError("cannot multiply series of different orders")
            trunc = self.truncation
            if trunc is None or (
                other.truncation is not None and other.truncation < trunc
            ):
                trunc = other.truncation
            pairs: dict[WreathLabel, list] = {}
            for la, ca in self.terms.items():
                for lb, cb in other.terms.items():
                    if trunc is None or la.size + lb.size <= trunc:
                        pairs.setdefault(merge_labels(la, lb), []).append((ca, cb))
            out = {key: _sum_of_pair_products(self.order, pair) for key, pair in pairs.items()}
            return WreathSeries(self.order, out, trunc)
        return WreathSeries(
            self.order,
            {label: coeff * other for label, coeff in self.terms.items()},
            self.truncation,
        )

    def __rmul__(self, other):
        if isinstance(other, WreathSeries):
            return NotImplemented
        return self * other

    def conjugate(self) -> "WreathSeries":
        """The bar involution: conjugate every P-coefficient."""
        out = {}
        for label, coeff in self.terms.items():
            if isinstance(coeff, Cyclotomic):
                out[label] = coeff.conjugate()
            else:
                out[label] = coeff
        return WreathSeries(self.order, out, self.truncation)

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


def _sum_of_pair_products(order: int, pairs: list):
    # One reduction mod Phi_m if a factor is cyclotomic; else each type's own sum.
    if any(isinstance(a, Cyclotomic) or isinstance(b, Cyclotomic) for a, b in pairs):
        return sum_of_products(order, ((1, a, b) for a, b in pairs))
    return sum(a * b for a, b in pairs)


def wreath_inner_product(f: WreathSeries, g: WreathSeries):
    """Bilinear pairing, diagonal on the P-basis with norm the centralizer
    order; an element of Q(zeta_m), summed with one reduction mod Phi_m."""
    if f.order != g.order:
        raise OrderMismatchError("pairing requires equal orders")
    if len(g.terms) < len(f.terms):
        f, g = g, f
    shared = (
        (centralizer_order(label), cf, cg)
        for label, cf in f.terms.items()
        if (cg := g.terms.get(label)) is not None
    )
    return sum_of_products(f.order, shared)


def _schur_isotypic_factor(order: int, j: int, lam: Partition) -> WreathSeries:
    # s_lam[phi_j] in closed form (see the convention note), one pass over the labels.
    terms = {}
    for sigma in wreath_class_labels(sum(lam), order):
        cycle_type = tuple(sorted(chain.from_iterable(filter(None, sigma.parts)), reverse=True))
        chi = partitions.symmetric_group_character(lam, cycle_type)
        if chi:
            twist = j * sum(t * len(part) for t, part in enumerate(sigma.parts) if part)
            terms[sigma] = zeta(order, twist) * Fraction(chi, centralizer_order(sigma))
    return WreathSeries(order, terms)


def frobenius_characteristic(rho: WreathLabel) -> WreathSeries:
    """P-basis expansion of the characteristic of the irreducible labelled rho:
    the ring product of its closed-form slot factors s_{rho_j}[phi_j].

    The coefficient at a class label sigma, multiplied by sigma's centralizer
    order, is the irreducible character value on that class.
    """
    factors = [
        _schur_isotypic_factor(rho.order, j, part)
        for j, part in enumerate(rho.parts)
        if part
    ]
    return reduce(WreathSeries.__mul__, factors) if factors else WreathSeries.one(rho.order)


def irreducible_character(rho: WreathLabel, sigma: WreathLabel) -> Cyclotomic:
    """Character of the irreducible rho on the class sigma."""
    if rho.order != sigma.order:
        raise OrderMismatchError("labels of different orders")
    if rho.size != sigma.size:
        raise ValueError("labels index different groups")
    coeff = frobenius_characteristic(rho).coefficient(sigma)
    value = centralizer_order(sigma) * coeff
    if isinstance(value, Fraction):
        value = Cyclotomic.from_rational(value, rho.order)
    return value


def irreducible_dimension(rho: WreathLabel) -> int:
    """Dimension of the irreducible labelled rho:
    a multinomial times the product of the slotwise tableau counts."""
    dim = factorial(rho.size)
    for part in rho.parts:
        dim //= factorial(sum(part))
    for part in rho.parts:
        dim *= partitions.specht_dimension(part)
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
    return ";".join(
        f"{j}:{format_partition(part)}" for j, part in enumerate(rho.parts) if part
    )
