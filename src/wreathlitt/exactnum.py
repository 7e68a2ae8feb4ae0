"""Exact scalars: arbitrary-precision rationals and the cyclotomic fields Q(zeta_m).

Rationals are plain ``fractions.Fraction``.  An element of Q(zeta_m) is a
tuple of integer numerators in the power basis of Q[x]/(Phi_m(x)) over one
positive denominator, in lowest terms.  Phi_m, the m-th cyclotomic
polynomial, is monic and integral, so reduction stays in the integers, and
quotienting by it rather than x^m - 1 gives Q(zeta_m) itself: each number has
one representation.  No computation divides in Q(zeta_m), so elements only
add, multiply and conjugate; conjugation moves the numerator of zeta^i to
x^(-i mod m) and reduces once, and no computation path calls it.

Each operation reduces and normalises its result, and so does the wreath
ring's series arithmetic.  ``Cyclotomic(order, coeffs)`` is the reduction:
it takes the rational coordinates of any polynomial in zeta and reduces them
mod Phi_order once.  ``packed_numerators`` dots two vectors packed as integer
columns over one denominator with one reduction, and stops before the
``Cyclotomic``, so that a caller can test its sum for an integer with one
``divmod`` and build no number at all.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul

__all__ = [
    "Cyclotomic",
    "NotRationalError",
    "cyclotomic_polynomial",
    "euler_phi",
    "packed_numerators",
    "to_rational",
    "zeta",
]


class NotRationalError(ArithmeticError):
    """A cyclotomic number with a nonzero zeta-component was coerced to Q."""


def _divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact quotient of integer polynomials; den must be monic and divide num.
    work = list(num)
    d = len(den) - 1
    out = [0] * (len(work) - d)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + d]
        out[i] = c
        if c:
            for k in range(d + 1):
                work[i + k] -= c * den[k]
    if any(work[:d]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_order(x), constant term first.

    Computed by dividing x^order - 1 by Phi_d(x) for every proper divisor d.
    """
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    if order == 1:
        return (-1, 1)
    poly = [0] * (order + 1)
    poly[0], poly[order] = -1, 1
    for d in range(1, order):
        if order % d == 0:
            poly = _divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(order: int) -> int:
    """Euler's totient, read off as the degree of Phi_order."""
    return len(cyclotomic_polynomial(order)) - 1


def _reduce(work: list[int], order: int) -> tuple[int, ...]:
    # Integer remainder of sum(work[i] * x^i) modulo the monic Phi_order(x).
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            for k in range(d):
                work[i - d + k] -= c * phi[k]
    return tuple(work[:d]) + (0,) * (d - len(work))


class Cyclotomic:
    """An element of Q(zeta_order): integer numerators ``nums`` of 1, zeta, ...,
    zeta^(phi-1) over one positive denominator ``den``, in lowest terms.

    Supports mixed arithmetic with ``int`` and ``Fraction``; two elements of
    different orders only interact when at least one of them is rational.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs, den: int = 0):
        """coeffs: rational coordinates of 1, zeta, zeta^2, ..., reduced mod
        Phi_order here; or, given den >= 1, a tuple of reduced numerators."""
        if not den:
            fracs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
            den = lcm(*(c.denominator for c in fracs))
            coeffs = _reduce([c.numerator * (den // c.denominator) for c in fracs], order)
        g = gcd(den, *coeffs) if den != 1 else 1
        self.order, self.den = order, den // g
        self.nums = coeffs if g == 1 else tuple(a // g for a in coeffs)

    @classmethod
    def from_rational(cls, value, order: int) -> "Cyclotomic":
        value = Fraction(value)
        return cls(order, (value.numerator,) + (0,) * (euler_phi(order) - 1), value.denominator)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} has a nonzero zeta-component")
        return Fraction(self.nums[0], self.den)

    def to_complex(self) -> complex:
        root = cmath.exp(2j * cmath.pi / self.order)
        return sum((c * root**i for i, c in enumerate(self.nums)), 0j) / self.den

    def conjugate(self) -> "Cyclotomic":
        """Image under zeta -> zeta^(-1); fixes rationals, is an involution.
        The numerator of zeta^i moves to x^(-i mod m), then one reduction."""
        work = [0] * self.order
        for i, c in enumerate(self.nums):
            work[-i % self.order] = c
        return Cyclotomic(self.order, _reduce(work, self.order), self.den)

    def _coerced(self, other):
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return other
            if other.is_rational():
                return Cyclotomic.from_rational(other.to_rational(), self.order)
            if self.is_rational():
                return None  # caller retries from other's side
            raise ValueError(
                f"cannot mix Q(zeta_{self.order}) and Q(zeta_{other.order})"
            )
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            if isinstance(other, Cyclotomic):
                return other + self.to_rational()
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return Cyclotomic(self.order, tuple(map(add, self.nums, o.nums)), da)
        return Cyclotomic(self.order, tuple(a * db + b * da for a, b in zip(self.nums, o.nums)), da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return Cyclotomic(self.order, tuple(a * p for a in self.nums), self.den * q)
        o = self._coerced(other)
        if o is None:
            if isinstance(other, Cyclotomic):
                return other * self.to_rational()
            return NotImplemented
        a, b = self.nums, o.nums
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return Cyclotomic(self.order, _reduce(prod, self.order), self.den * o.den)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self.nums == other.nums and self.den == other.den
            return (
                self.is_rational()
                and other.is_rational()
                and (self.nums[0], self.den) == (other.nums[0], other.den)
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and (self.nums[0], self.den) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.to_rational())
        return hash((self.order, self.nums, self.den))

    def __repr__(self) -> str:
        if not self:
            return "Cyclotomic(0)"
        parts = []
        for i, c in enumerate(Fraction(n, self.den) for n in self.nums):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z{self.order}")
            else:
                parts.append(f"{c}*z{self.order}^{i}")
        return f"Cyclotomic({' + '.join(parts)})"


def zeta(order: int, power: int = 1) -> Cyclotomic:
    """The root of unity zeta_order^power; the exponent is taken mod order."""
    return _zeta_cached(order, power % order)


@lru_cache(maxsize=None)
def _zeta_cached(order: int, power: int) -> Cyclotomic:
    mono = [0] * (power + 1)
    mono[power] = 1
    return Cyclotomic(order, _reduce(mono, order), 1)


def packed_numerators(order: int, x, y) -> tuple[tuple[int, ...], int]:
    """(nums, den) of the exact sum of x_k * y_k over two packed vectors of one
    length, not in lowest terms: one integer dot per pair of columns, one reduction."""
    (xs, dx), (ys, dy) = x, y
    work = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            work[i + j] += sum(map(mul, a, b))
    return _reduce(work, order), dx * dy


def to_rational(value) -> Fraction:
    """Project an exact scalar to Q, raising NotRationalError if impossible."""
    if isinstance(value, Cyclotomic):
        return value.to_rational()
    return Fraction(value)

