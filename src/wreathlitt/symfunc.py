"""Degree-truncated symmetric series in one alphabet.

A series is a sparse map partition -> F_mu = z_mu [p_mu] f = <f, p_mu>, its
z-scaled power-sum coordinate (Macdonald, ch. I 2 and 8), with the constant
term at the empty partition.  These are the only coordinates: h_k has
F_mu = 1 at every mu of size k and s_lam has F_mu = chi^lam(mu), so on the
main path every value is an integer.  Products merge indices with integer
factors, plethysm by p_n stretches parts, and the Hall pairing is the sum of
F_mu G_mu / z_mu.  The power-sum coefficients F_mu / z_mu are shown only on
the way out, by ``coefficient``, ``repr`` and ``series_to_json``.
Truncation is explicit on each value (None meaning an exact, finitely
supported element) and propagates as the minimum across binary operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import partitions
from .exactnum import Cyclotomic, zeta
from .partitions import Partition

__all__ = [
    "SymSeries",
    "TruncationTooShortError",
    "constant",
    "h_basis",
    "hall_inner_product",
    "omega_at_root",
    "p_basis",
    "plethysm",
    "plethysms",
    "s_basis",
    "series_to_json",
    "stretch",
]


class TruncationTooShortError(ValueError):
    """The plethysm argument is not known to the degree requested."""


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _canonical_order(lam: Partition):
    # Sort by total degree, then reverse-lexicographically within a degree.
    return (sum(lam), tuple(-part for part in lam))


_z = partitions.centralizer_order


class SymSeries:
    """Sparse symmetric series: ``terms`` maps mu to F_mu = <f, p_mu>, and
    ``truncation`` None marks an exact element.  The truncation bound is
    metadata and takes no part in equality.
    """

    __slots__ = ("truncation", "terms")

    def __init__(self, terms: dict, truncation: int | None = None):
        if truncation is not None and truncation < 0:
            raise ValueError("truncation must be non-negative")
        clean = {}
        for lam, coeff in terms.items():
            if truncation is not None and sum(lam) > truncation:
                continue
            if coeff:
                clean[lam] = coeff
        self.truncation = truncation
        self.terms = clean

    def coefficient(self, lam: Partition):
        """The power-sum coefficient [p_lam] f = F_lam / z_lam."""
        return self.terms.get(lam, 0) * Fraction(1, _z(lam))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def restricted(self, max_degree: int) -> "SymSeries":
        return SymSeries(self.terms, _min_trunc(self.truncation, max_degree))

    def __add__(self, other: "SymSeries") -> "SymSeries":
        if not isinstance(other, SymSeries):
            return NotImplemented
        out = dict(self.terms)
        for lam, coeff in other.terms.items():
            out[lam] = out.get(lam, 0) + coeff
        return SymSeries(out, _min_trunc(self.truncation, other.truncation))

    def __radd__(self, other):
        # 0 + f, as in sum() or a dict.get(key, 0) accumulator
        return self if other == 0 else NotImplemented

    def __sub__(self, other: "SymSeries") -> "SymSeries":
        return self + (-other)

    def __neg__(self) -> "SymSeries":
        return SymSeries({lam: -c for lam, c in self.terms.items()}, self.truncation)

    def __mul__(self, other):
        if isinstance(other, SymSeries):
            trunc = _min_trunc(self.truncation, other.truncation)
            return SymSeries(_graded_product(self.terms, other.terms, trunc), trunc)
        return SymSeries({lam: c * other for lam, c in self.terms.items()}, self.truncation)

    def __rmul__(self, other):
        if isinstance(other, SymSeries):
            return NotImplemented
        return SymSeries({lam: other * c for lam, c in self.terms.items()}, self.truncation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSeries):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(
            f"({self.coefficient(lam)})*p{list(lam)}" for lam in sorted(self.terms, key=_canonical_order)
        )
        return f"SymSeries[p; D={self.truncation}]({body or '0'})"


def p_basis(lam: Partition, coeff=1, truncation: int | None = None) -> SymSeries:
    lam = tuple(lam)
    return SymSeries({lam: coeff * _z(lam)}, truncation)


def h_basis(lam: Partition, coeff=1, truncation: int | None = None) -> SymSeries:
    # h_k has F_mu = 1 at every mu of size k; h_lam is the product over its parts.
    terms = {(): coeff}
    for part in lam:
        terms = _graded_product(terms, dict.fromkeys(partitions.partitions_of(part), 1), None)
    return SymSeries(terms, truncation)


def s_basis(lam: Partition, coeff=1, truncation: int | None = None) -> SymSeries:
    # s_lam has F_mu = chi^lam(mu), the Frobenius formula.
    lam = tuple(lam)
    shapes = partitions.partitions_of(sum(lam))
    return SymSeries({mu: coeff * partitions.symmetric_group_character(lam, mu) for mu in shapes}, truncation)


def constant(value, truncation: int | None = None) -> SymSeries:
    return SymSeries({(): value}, truncation)


def _graded_product(f: dict, g: dict, max_degree: int | None) -> dict:
    """The one truncated product loop, for any exact coefficient type.

    With p_a * p_b = p_(a+b), F_(a+b) gains C * F_a * G_b for the integer
    C = z_(a+b) / (z_a z_b) = prod_k binom(m_k(a) + m_k(b), m_k(a)).  Only
    degree pairs within max_degree are visited.
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


def hall_inner_product(f: SymSeries, g: SymSeries):
    """Hall pairing: <f, g> = sum over lam of F_lam * G_lam / z_lam."""
    total = Fraction(0)
    for lam in f.terms.keys() & g.terms.keys():
        total = total + f.terms[lam] * g.terms[lam] * Fraction(1, _z(lam))
    return total


def stretch(f: SymSeries, n: int) -> SymSeries:
    """Substitute p_r -> p_{n*r}, keeping all power-sum coefficients fixed.

    This is plethysm by p_n on the right in the sense used here: exponents
    of the underlying variables are scaled, coefficients (rational or
    cyclotomic) are untouched, and constants pass through.  As
    z_(n mu) = n^len(mu) z_mu, F_(n mu) = n^len(mu) F_mu.
    """
    if n < 1:
        raise ValueError("stretch factor must be >= 1")
    trunc = None if f.truncation is None else n * f.truncation + (n - 1)
    return SymSeries(
        {tuple(n * part for part in lam): n ** len(lam) * c for lam, c in f.terms.items()},
        trunc,
    )


def plethysm(f: SymSeries, g: SymSeries, max_degree: int | None = None) -> SymSeries:
    """The substitution f[g]: ``plethysms`` for the one series f."""
    return plethysms([f], g, max_degree)[0]


def _quotient(value, den: int):
    # value / den, exact: an int when den divides an int value.
    if isinstance(value, int):
        q, r = divmod(value, den)
        return Fraction(value, den) if r else q
    return value * Fraction(1, den)


def plethysms(fs, g: SymSeries, max_degree: int | None = None) -> list[SymSeries]:
    """The substitutions f[g] for every f in fs, on power sums up to max_degree.

    Each p_mu in f maps to the product of the stretched copies p_r[g] over
    mu's parts.  One depth-first walk builds these products for all of fs,
    with each mu's parts in ascending order, so that the mu share the dense
    p_1[g] factors, and it holds only the products on its current path.  When
    max_degree is omitted, the truncation of g is used; an exact g gives an
    exact result for polynomial f."""
    if max_degree is None:
        degree = g.truncation
    else:
        degree = max_degree
        if g.truncation is not None and g.truncation < max_degree:
            raise TruncationTooShortError(f"argument known to degree {g.truncation}, need {max_degree}")
    dens, leaves = [], {}
    for i, f in enumerate(fs):
        # f[g] sums (F_mu / z_mu) p_mu[g]; over den = lcm(z_mu), F_mu * den / z_mu is integral when F is.
        dens.append(lcm(*map(_z, f.terms)))
        for mu, weight in f.terms.items():
            leaves.setdefault(mu[::-1], []).append((i, weight * (dens[i] // _z(mu))))
    totals: dict[Partition, list] = {}  # nu -> den * F_nu for each f[g], in fs order
    stretched: dict[int, dict] = {}
    path, stack = (), [{(): 1}]
    for parts in sorted(leaves):  # the depth-first order of the ascending mu's trie
        k = 0
        while k < min(len(path), len(parts)) and path[k] == parts[k]:
            k += 1
        del stack[k + 1 :]
        for r in parts[k:]:
            if r not in stretched:
                # p_r[g]: z_(r nu) = r^len(nu) z_nu, so F_(r nu) = r^len(nu) G_nu.
                stretched[r] = {
                    tuple(r * part for part in nu): r ** len(nu) * c
                    for nu, c in g.terms.items()
                    if degree is None or r * sum(nu) <= degree
                }
            stack.append(stretched[r] if len(stack) == 1 else _graded_product(stack[-1], stretched[r], degree))
        path = parts
        for nu, c in stack[-1].items():
            row = totals.setdefault(nu, [0] * len(dens))
            for i, weight in leaves[parts]:
                row[i] += weight * c
    return [SymSeries({nu: _quotient(row[i], den) for nu, row in totals.items()}, degree) for i, den in enumerate(dens)]


def omega_at_root(exponent: int, order: int, max_degree: int) -> SymSeries:
    """The geometric kernel sum of zeta^(j*k) h_k for the root zeta_order^exponent."""
    if not 0 <= exponent < order:
        raise ValueError(f"exponent must lie in 0..{order - 1}")
    terms: dict[Partition, Cyclotomic] = {}
    for k in range(max_degree + 1):
        root = zeta(order, exponent * k)
        terms.update(dict.fromkeys(partitions.partitions_of(k), root))
    return SymSeries(terms, max_degree)


def series_to_json(f: SymSeries) -> dict:
    """JSON form of a rational series: its power-sum coefficients, sorted."""
    from .exactnum import to_rational

    entries = []
    for lam in sorted(f.terms, key=_canonical_order):
        coeff = to_rational(f.coefficient(lam))
        entries.append({"partition": list(lam), "coeff": str(coeff)})
    return {"basis": "p", "truncation": f.truncation, "terms": entries}
