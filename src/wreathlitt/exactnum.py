"""Exact scalars: arbitrary-precision rationals and the cyclotomic fields Q(zeta_m).

Rationals are plain ``fractions.Fraction``.  Elements of Q(zeta_m) are stored
in the power basis of Q[x]/(Phi_m(x)), with Phi_m the m-th cyclotomic
polynomial.  Quotienting by Phi_m rather than x^m - 1 makes the quotient
Q(zeta_m) itself, so each number has one representative and equality and
rationality tests are unambiguous.  No computation divides in Q(zeta_m), so
elements only add, multiply and conjugate.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm

__all__ = [
    "Cyclotomic",
    "NotRationalError",
    "common_denominator",
    "cyclotomic_polynomial",
    "euler_phi",
    "reduce_mod_cyclotomic",
    "to_rational",
    "zeta",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def reduce_mod_cyclotomic(coeffs, order: int) -> "Cyclotomic":
    """Remainder of sum(coeffs[i] * x^i) modulo Phi_order(x)."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            for k in range(d):
                work[i - d + k] -= c * phi[k]
            work[i] = _ZERO
    work = work[:d]
    work.extend([_ZERO] * (d - len(work)))
    return Cyclotomic(order, tuple(work))


class Cyclotomic:
    """An element of Q(zeta_order) as coefficients of 1, zeta, ..., zeta^(phi-1).

    Supports mixed arithmetic with ``int`` and ``Fraction``; two elements of
    different orders only interact when at least one of them is rational.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_rational(cls, value, order: int) -> "Cyclotomic":
        head = (Fraction(value),)
        return cls(order, head + (_ZERO,) * (euler_phi(order) - 1))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} has a nonzero zeta-component")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        root = cmath.exp(2j * cmath.pi / self.order)
        return sum((complex(c) * root**i for i, c in enumerate(self.coeffs)), 0j)

    def conjugate(self) -> "Cyclotomic":
        """Image under zeta -> zeta^(-1); fixes rationals, is an involution."""
        m = self.order
        work = [_ZERO] * m
        for i, c in enumerate(self.coeffs):
            work[(m - i) % m] += c
        return reduce_mod_cyclotomic(work, m)

    def _coerced(self, other):
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return other
            if other.is_rational():
                return Cyclotomic.from_rational(other.coeffs[0], self.order)
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
                return other + self.coeffs[0]
            return NotImplemented
        return Cyclotomic(
            self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            if isinstance(other, Cyclotomic):
                return -(other - self.coeffs[0])
            return NotImplemented
        return Cyclotomic(
            self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            if isinstance(other, Cyclotomic):
                return other * self.coeffs[0]
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return reduce_mod_cyclotomic(prod, self.order)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.coeffs[0] == other.coeffs[0]
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        if not self:
            return "Cyclotomic(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
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
    mono = [_ZERO] * (power + 1)
    mono[power] = _ONE
    return reduce_mod_cyclotomic(mono, order)


def to_rational(value) -> Fraction:
    """Project an exact scalar to Q, raising NotRationalError if impossible."""
    if isinstance(value, Cyclotomic):
        return value.to_rational()
    return Fraction(value)


def common_denominator(values: dict) -> tuple[dict, int]:
    """(numerators, den): rational values as integers over their least common
    denominator; values of any other type (cyclotomic) unchanged over 1."""
    if not all(isinstance(v, (int, Fraction)) for v in values.values()):
        return values, 1
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den
