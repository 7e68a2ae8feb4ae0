"""Degree-truncated symmetric series in one alphabet.

A series is a sparse map partition -> coefficient, tagged with a basis:
power sum ('p'), complete homogeneous ('h'), or Schur ('s').  The constant
term lives at the empty partition.  Every basis conversion routes through
the power sums, where the Hall pairing is diagonal and plethysm acts by
stretching part sizes.  Truncation is explicit on each value (None meaning
an exact, finitely supported element) and propagates as the minimum across
binary operations.

Products, conversions and plethysm share one kernel on z-scaled power-sum
coefficients, F_mu = z_mu [p_mu] f = <f, p_mu> (Macdonald, ch. I 2 and 8).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from . import partitions
from .exactnum import Cyclotomic, common_denominator, zeta
from .partitions import Partition

POWER_SUM = "p"
HOMOGENEOUS = "h"
SCHUR = "s"
_BASES = (POWER_SUM, HOMOGENEOUS, SCHUR)

__all__ = [
    "DegreeOutOfRangeError",
    "SymSeries",
    "TruncationTooShortError",
    "constant",
    "convert",
    "h_basis",
    "hall_inner_product",
    "omega",
    "omega_at_root",
    "p_basis",
    "plethysm",
    "s_basis",
    "schur_coefficient",
    "series_from_json",
    "series_to_json",
    "stretch",
]


class TruncationTooShortError(ValueError):
    """The plethysm argument is not known to the degree requested."""


class DegreeOutOfRangeError(ValueError):
    """A coefficient beyond the series truncation was requested."""


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _canonical_order(lam: Partition):
    # Sort by total degree, then reverse-lexicographically within a degree.
    return (sum(lam), tuple(-part for part in lam))


class SymSeries:
    """Sparse symmetric series; ``truncation`` None marks an exact element.

    Equality compares expansions (converting bases when they differ); the
    truncation bound is metadata and takes no part in it.
    """

    __slots__ = ("basis", "truncation", "terms")

    def __init__(self, basis: str, terms: dict, truncation: int | None = None):
        if basis not in _BASES:
            raise ValueError(f"unknown basis tag {basis!r}")
        if truncation is not None and truncation < 0:
            raise ValueError("truncation must be non-negative")
        clean = {}
        for lam, coeff in terms.items():
            if truncation is not None and sum(lam) > truncation:
                continue
            if coeff:
                clean[lam] = coeff
        self.basis = basis
        self.truncation = truncation
        self.terms = clean

    def coefficient(self, lam: Partition):
        """Coefficient of the basis element indexed by lam (no conversion)."""
        return self.terms.get(lam, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def restricted(self, max_degree: int) -> "SymSeries":
        return SymSeries(self.basis, self.terms, _min_trunc(self.truncation, max_degree))

    def __add__(self, other: "SymSeries") -> "SymSeries":
        if not isinstance(other, SymSeries):
            return NotImplemented
        if other.basis != self.basis:
            other = convert(other, self.basis)
        out = dict(self.terms)
        for lam, coeff in other.terms.items():
            out[lam] = out.get(lam, 0) + coeff
        return SymSeries(self.basis, out, _min_trunc(self.truncation, other.truncation))

    def __sub__(self, other: "SymSeries") -> "SymSeries":
        return self + (-other)

    def __neg__(self) -> "SymSeries":
        return SymSeries(
            self.basis, {lam: -c for lam, c in self.terms.items()}, self.truncation
        )

    def __mul__(self, other):
        if isinstance(other, SymSeries):
            # p- and h-basis elements multiply by merging indices; s goes to p.
            if self.basis == other.basis and self.basis in (POWER_SUM, HOMOGENEOUS):
                basis, f, g = self.basis, self, other
            else:
                basis, f, g = POWER_SUM, _to_power(self), _to_power(other)
            trunc = _min_trunc(self.truncation, other.truncation)
            (f, fden), (g, gden) = common_denominator(f.terms), common_denominator(g.terms)
            product = _graded_product(_z_scaled(f), _z_scaled(g), trunc)
            return SymSeries(basis, _unscaled(product, fden * gden), trunc)
        return SymSeries(
            self.basis,
            {lam: c * other for lam, c in self.terms.items()},
            self.truncation,
        )

    def __rmul__(self, other):
        if isinstance(other, SymSeries):
            return NotImplemented
        return SymSeries(
            self.basis,
            {lam: other * c for lam, c in self.terms.items()},
            self.truncation,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSeries):
            return NotImplemented
        a, b = self, other
        if a.basis != b.basis:
            a, b = convert(a, POWER_SUM), convert(b, POWER_SUM)
        if a.terms.keys() != b.terms.keys():
            return False
        return all(a.terms[lam] == b.terms[lam] for lam in a.terms)

    def __repr__(self) -> str:
        body = " + ".join(
            f"({coeff})*{self.basis}{list(lam)}"
            for lam, coeff in sorted(self.terms.items(), key=lambda kv: _canonical_order(kv[0]))
        )
        return f"SymSeries[{self.basis}; D={self.truncation}]({body or '0'})"


def p_basis(lam: Partition, coeff=Fraction(1), truncation: int | None = None) -> SymSeries:
    return SymSeries(POWER_SUM, {tuple(lam): coeff}, truncation)


def h_basis(lam: Partition, coeff=Fraction(1), truncation: int | None = None) -> SymSeries:
    return SymSeries(HOMOGENEOUS, {tuple(lam): coeff}, truncation)


def s_basis(lam: Partition, coeff=Fraction(1), truncation: int | None = None) -> SymSeries:
    return SymSeries(SCHUR, {tuple(lam): coeff}, truncation)


def constant(value, basis: str = POWER_SUM, truncation: int | None = None) -> SymSeries:
    return SymSeries(basis, {(): value}, truncation)


@lru_cache(maxsize=None)
def _z(lam: Partition) -> int:
    return partitions.centralizer_order(lam)


def _p_part_in_h(n: int) -> dict:
    # From log(sum_k h_k t^k) = sum_n p_n t^n / n, the z-scaled h coefficients
    # of p_n are z_lam [h_lam] p_n = (-1)^(l-1) n (l-1)! prod(lam), l = len(lam).
    return {
        lam: (-1) ** (len(lam) - 1) * n * factorial(len(lam) - 1) * prod(lam)
        for lam in partitions.partitions_of(n)
    }


def _graded_product(f: dict, g: dict, max_degree: int | None) -> dict:
    """The one truncated product loop, for any exact coefficient type.

    With b_a * b_b = b_(a+b) (p or h) and F_a = z_a [b_a] f, F_(a+b) gains
    C * F_a * G_b for the integer C = z_(a+b) / (z_a z_b) = prod_k
    binom(m_k(a) + m_k(b), m_k(a)).  Only degree pairs within max_degree are visited.
    """
    g_by_degree = _by_degree(g)
    out: dict = {}
    for da, f_terms in _by_degree(f).items():
        for db, g_terms in g_by_degree.items():
            if max_degree is not None and da + db > max_degree:
                continue
            for a, ca, za in f_terms:
                for b, cb, zb in g_terms:
                    key = tuple(sorted(a + b, reverse=True))
                    out[key] = out.get(key, 0) + _z(key) // (za * zb) * ca * cb
    return out


def _by_degree(terms: dict) -> dict[int, list]:
    out: dict[int, list] = {}
    for lam, c in terms.items():
        out.setdefault(sum(lam), []).append((lam, c, _z(lam)))
    return out


def _product_over_parts(lam: Partition, part_terms) -> dict:
    """The z-scaled product over the parts k of lam of part_terms(k)."""
    out: dict = {(): 1}
    for i, part in enumerate(lam):
        out = part_terms(part) if i == 0 else _graded_product(out, part_terms(part), None)
    return out


def _z_scaled(terms: dict) -> dict:
    return {lam: c * _z(lam) for lam, c in terms.items()}


def _unscaled(terms: dict, den: int = 1) -> dict:
    out = {}
    for lam, c in terms.items():
        scale = _z(lam) * den
        # Fraction(c, scale) is the cheap exact quotient; cyclotomics multiply.
        rational = isinstance(c, (int, Fraction))
        out[lam] = Fraction(c, scale) if rational else c * Fraction(1, scale)
    return out


def _scaled(f: SymSeries) -> dict:
    """F_mu = z_mu [p_mu] f, read off directly: s_lam has F_mu = chi^lam(mu)
    and h_k has F_mu = 1 for every mu of size k."""
    if f.basis == POWER_SUM:
        return _z_scaled(f.terms)
    out: dict = {}
    for lam, coeff in f.terms.items():
        if f.basis == SCHUR:
            shapes = partitions.partitions_of(sum(lam))
            chars = {mu: partitions.symmetric_group_character(lam, mu) for mu in shapes}
            expansion = {mu: chi for mu, chi in chars.items() if chi}
        else:
            ones = lambda k: dict.fromkeys(partitions.partitions_of(k), 1)  # noqa: E731
            expansion = _product_over_parts(lam, ones)
        for mu, c in expansion.items():
            out[mu] = out.get(mu, 0) + coeff * c
    return out


def _to_power(f: SymSeries) -> SymSeries:
    if f.basis == POWER_SUM:
        return f
    return SymSeries(POWER_SUM, _unscaled(_scaled(f)), f.truncation)


def _from_power(f: SymSeries, target: str) -> SymSeries:
    out: dict[Partition, object] = {}
    for mu, coeff in f.terms.items():
        if target == HOMOGENEOUS:
            # h is multiplicative like p: the same product works on z-scaled h coefficients.
            expanded = _unscaled(_product_over_parts(mu, _p_part_in_h)).items()
        else:
            # p_mu = sum over lam of chi^lam(mu) * s_lam; zero terms are dropped below
            shapes = partitions.partitions_of(sum(mu))
            expanded = ((lam, partitions.symmetric_group_character(lam, mu)) for lam in shapes)
        for lam, c in expanded:
            out[lam] = out.get(lam, 0) + coeff * c
    return SymSeries(target, out, f.truncation)


def convert(f: SymSeries, target: str) -> SymSeries:
    """Re-expand f in the target basis, keeping its truncation."""
    if target not in _BASES:
        raise ValueError(f"unknown basis tag {target!r}")
    if f.basis == target:
        return f
    g = _to_power(f)
    if target == POWER_SUM:
        return g
    return _from_power(g, target)


def hall_inner_product(f: SymSeries, g: SymSeries):
    """Hall pairing: diagonal on power sums with <p_lam, p_lam> = z_lam."""
    fp, gp = _to_power(f).terms, _to_power(g).terms
    total = Fraction(0)
    for lam in fp.keys() & gp.keys():
        total = total + _z(lam) * fp[lam] * gp[lam]
    return total


def stretch(f: SymSeries, n: int) -> SymSeries:
    """Substitute p_r -> p_{n*r}, keeping all coefficients fixed.

    This is plethysm by p_n on the right in the sense used here: exponents
    of the underlying variables are scaled, coefficients (rational or
    cyclotomic) are untouched, and constants pass through.
    """
    if n < 1:
        raise ValueError("stretch factor must be >= 1")
    fp = _to_power(f)
    trunc = None if fp.truncation is None else n * fp.truncation + (n - 1)
    return SymSeries(
        POWER_SUM,
        {tuple(n * part for part in lam): c for lam, c in fp.terms.items()},
        trunc,
    )


def plethysm(f: SymSeries, g: SymSeries, max_degree: int | None = None) -> SymSeries:
    """The substitution f[g], computed on power sums up to max_degree.

    Expands f in power sums and maps each p_lam to the product of the
    stretched copies of g.  When max_degree is omitted, the truncation of g
    is used; an exact g gives an exact result for polynomial f.
    """
    if max_degree is None:
        degree = g.truncation
    else:
        degree = max_degree
        if g.truncation is not None and g.truncation < max_degree:
            raise TruncationTooShortError(
                f"argument known to degree {g.truncation}, need {max_degree}"
            )
    # f = sum over mu of (W_mu / z_mu) p_mu; over den = lcm(z_mu) the weights
    # W_mu * den / z_mu are integers when f is (a multiple of) a Schur function.
    weights = _scaled(f)
    den = lcm(*map(_z, weights))
    g_scaled = _scaled(g)
    stretched: dict[int, dict] = {}
    # Products over the parts of mu, shared between all mu with the same prefix.
    prefixes: dict[Partition, dict] = {(): {(): 1}}
    total: dict[Partition, object] = {}
    for mu, weight in weights.items():
        k = len(mu)
        while mu[:k] not in prefixes:
            k -= 1
        product = prefixes[mu[:k]]
        for i in range(k, len(mu)):
            r = mu[i]
            if r not in stretched:
                # p_r[g]: z_(r nu) = r^len(nu) z_nu, so F_(r nu) = r^len(nu) G_nu.
                stretched[r] = {
                    tuple(r * part for part in nu): r ** len(nu) * c
                    for nu, c in g_scaled.items()
                    if degree is None or r * sum(nu) <= degree
                }
            product = stretched[r] if i == 0 else _graded_product(product, stretched[r], degree)
            prefixes[mu[: i + 1]] = product
        weight = weight * (den // _z(mu))
        for nu, c in product.items():
            total[nu] = total.get(nu, 0) + weight * c
    return SymSeries(POWER_SUM, _unscaled(total, den), degree)


def omega(max_degree: int) -> SymSeries:
    """1 + h_1 + ... + h_D: the plethystic exponential, truncated."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    terms: dict[Partition, Fraction] = {(): Fraction(1)}
    for k in range(1, max_degree + 1):
        terms[(k,)] = Fraction(1)
    return SymSeries(HOMOGENEOUS, terms, max_degree)


def omega_at_root(exponent: int, order: int, max_degree: int) -> SymSeries:
    """The geometric kernel sum of zeta^(j*k) h_k for the root zeta_order^exponent."""
    if not 0 <= exponent < order:
        raise ValueError(f"exponent must lie in 0..{order - 1}")
    terms: dict[Partition, Cyclotomic] = {(): zeta(order, 0)}
    for k in range(1, max_degree + 1):
        terms[(k,)] = zeta(order, exponent * k)
    return SymSeries(HOMOGENEOUS, terms, max_degree)


def schur_coefficient(f: SymSeries, lam: Partition):
    """Coefficient of the Schur element at lam, read off by Hall pairing."""
    if f.truncation is not None and sum(lam) > f.truncation:
        raise DegreeOutOfRangeError(
            f"degree {sum(lam)} exceeds series truncation {f.truncation}"
        )
    return hall_inner_product(f, s_basis(lam))


def series_to_json(f: SymSeries) -> dict:
    """JSON form of a rational series: basis, truncation, and sorted terms."""
    from .exactnum import to_rational

    entries = []
    for lam in sorted(f.terms, key=_canonical_order):
        coeff = to_rational(f.terms[lam])
        entries.append({"partition": list(lam), "coeff": str(coeff)})
    return {"basis": f.basis, "truncation": f.truncation, "terms": entries}


def series_from_json(obj: dict) -> SymSeries:
    terms = {
        tuple(entry["partition"]): Fraction(entry["coeff"]) for entry in obj["terms"]
    }
    return SymSeries(obj["basis"], terms, obj["truncation"])
