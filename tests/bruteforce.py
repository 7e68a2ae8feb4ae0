"""Independent brute-force oracles used by the tests.

Most of this recomputes expected values from first principles, by routes
disjoint from the library's own algorithms: explicit monomial polynomials in
finitely many variables, the Frobenius alternant formula for characters,
Euler's pentagonal recurrence for partition counts, multiplying out the
primitive roots of unity for cyclotomic polynomials, and counting fixed
points for permutation characters.  Two helpers on wreath class labels,
which no computation path needs, live here too and use the library's
labels and cyclotomic arithmetic: the class size (group order over
centralizer order) and the characteristic polynomial det(Id - t*g).  So
do ``pack``, which packs a vector of exact scalars as integer columns one
lowest-terms number at a time, and ``packed_numerators``, which dots two
such vectors with one reduction: the integer dot that oracle paths A and B
took per cell before they read whole rows off Kronecker-packed integers.
``plain_read_off`` is the main path's read-off as it was before it packed a
degree's cells into one integer: one Hall dot per cell.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from wreathlitt import partitions
from wreathlitt.exactnum import Cyclotomic, _reduce, euler_phi, zeta
from wreathlitt.partitions import format_partition
from wreathlitt.wreath import NonIntegralError, WreathLabel, centralizer_order

Mono = dict  # exponent tuple -> coefficient


def pentagonal_partition_counts(limit: int) -> list[int]:
    """p(0..limit) by Euler's pentagonal number recurrence."""
    counts = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g > n:
                    break
                total += (-1) ** (k + 1) * counts[n - g]
            if k * (3 * k - 1) // 2 > n:
                break
            k += 1
        counts.append(total)
    return counts


def mono_mul(a: Mono, b: Mono) -> Mono:
    out: Mono = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def power_sum_mono(r: int, nvars: int) -> Mono:
    out: Mono = {}
    for i in range(nvars):
        exp = [0] * nvars
        exp[i] = r
        out[tuple(exp)] = 1
    return out


def p_mu_mono(mu, nvars: int) -> Mono:
    out: Mono = {(0,) * nvars: 1}
    for part in mu:
        out = mono_mul(out, power_sum_mono(part, nvars))
    return out


def h_k_mono(k: int, nvars: int) -> Mono:
    out: Mono = {}
    for combo in itertools.combinations_with_replacement(range(nvars), k):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        key = tuple(exp)
        out[key] = out.get(key, 0) + 1
    return out


def vandermonde_mono(nvars: int) -> Mono:
    """The alternant sum over permutations of sign * x^(sigma applied to delta)."""
    delta = tuple(range(nvars - 1, -1, -1))
    out: Mono = {}
    for perm in itertools.permutations(range(nvars)):
        sign = 1
        seen = [False] * nvars
        for start in range(nvars):
            if seen[start]:
                continue
            length, cursor = 0, start
            while not seen[cursor]:
                seen[cursor] = True
                cursor = perm[cursor]
                length += 1
            if length % 2 == 0:
                sign = -sign
        exp = tuple(delta[perm[i]] for i in range(nvars))
        out[exp] = out.get(exp, 0) + sign
    return out


def frobenius_character(lam, mu) -> int:
    """chi^lam(mu) as the coefficient of x^(lam + delta) in the alternant
    times the power sum: the classical Frobenius formula, no recursion."""
    n = sum(lam)
    assert sum(mu) == n
    poly = mono_mul(vandermonde_mono(n), p_mu_mono(mu, n))
    padded = tuple(lam) + (0,) * (n - len(lam))
    target = tuple(padded[i] + (n - 1 - i) for i in range(n))
    return poly.get(target, 0)


def ssyt_schur_mono(lam, nvars: int) -> Mono:
    """Monomial expansion of the Schur polynomial by enumerating semistandard
    tableaux with entries 1..nvars."""
    if not lam:
        return {(0,) * nvars: 1}
    rows = len(lam)
    out: Mono = {}

    def fill(row: int, col: int, tableau):
        if row == rows:
            exp = [0] * nvars
            for r in tableau:
                for v in r:
                    exp[v] += 1
            key = tuple(exp)
            out[key] = out.get(key, 0) + 1
            return
        nrow, ncol = (row, col + 1) if col + 1 < lam[row] else (row + 1, 0)
        lo = 0
        if col > 0:
            lo = tableau[row][col - 1]  # weakly increasing along rows
        if row > 0 and col < lam[row - 1]:
            lo = max(lo, tableau[row - 1][col] + 1)  # strictly down columns
        for v in range(lo, nvars):
            tableau[row].append(v)
            fill(nrow, ncol, tableau)
            tableau[row].pop()

    fill(0, 0, [[] for _ in range(rows)])
    return out


def schur_decompose(poly: Mono, nvars: int) -> dict[tuple, int]:
    """Write a symmetric polynomial as an integer combination of Schur
    polynomials by repeatedly stripping the lex-leading term."""
    work = {k: v for k, v in poly.items() if v}
    out: dict[tuple, int] = {}
    while work:
        lead = max(work)
        shape = tuple(x for x in lead if x)
        assert all(
            shape[i] >= shape[i + 1] for i in range(len(shape) - 1)
        ), f"leading exponent {lead} is not a partition"
        coeff = work[lead]
        out[shape] = coeff
        for key, value in ssyt_schur_mono(shape, nvars).items():
            updated = work.get(key, 0) - coeff * value
            if updated:
                work[key] = updated
            else:
                work.pop(key, None)
    return out


def young_permutation_character(mu, nu) -> int:
    """The number of ways to assign each cycle of nu to one part of mu so
    that the cycle lengths given to every part add up to that part: the
    fixed points of a permutation of cycle type nu on the ordered set
    partitions with block sizes mu."""
    assert sum(mu) == sum(nu)

    def count(i: int, room: list[int]) -> int:
        if i == len(nu):
            return 1
        total = 0
        for j, free in enumerate(room):
            if free >= nu[i]:
                room[j] -= nu[i]
                total += count(i + 1, room)
                room[j] += nu[i]
        return total

    return count(0, list(mu))


def cyclotomic_from_roots(order: int) -> list[int]:
    """Phi_order as the product of (x - zeta^k) over the primitive k, in
    complex floating point, rounded back to integers; constant first."""
    coeffs = [1 + 0j]
    for k in range(1, order + 1):
        if gcd(k, order) == 1:
            root = cmath.exp(2j * cmath.pi * k / order)
            # x * coeffs - root * coeffs
            coeffs = [a - root * b for a, b in zip([0j] + coeffs, coeffs + [0j])]
    rounded = [round(c.real) for c in coeffs]
    assert all(abs(c - r) < 1e-8 for c, r in zip(coeffs, rounded))
    return rounded


def newton_power_sums_from_poly(coeffs, count: int):
    """Power sums of the roots of prod(1 - a_i t) = sum coeffs[k] t^k, via
    Newton's identities on the signed elementary symmetric functions."""
    e = [(-1) ** k * coeffs[k] for k in range(len(coeffs))]
    degree = len(coeffs) - 1
    sums = []
    for r in range(1, count + 1):
        value = 0
        for i in range(1, r):
            if r - i <= degree:
                value = value + (-1) ** (r - i - 1) * e[r - i] * sums[i - 1]
        if r <= degree:
            value = value + (-1) ** (r - 1) * r * e[r]
        sums.append(value)
    return sums


def conjugacy_class_size(rho: WreathLabel) -> int:
    """Size of the class rho: the group order m^n n! over its centralizer order."""
    size, rem = divmod(rho.order**rho.size * factorial(rho.size), centralizer_order(rho))
    assert not rem, f"class size of {rho!r} is not integral"
    return size


def characteristic_polynomial(rho: WreathLabel) -> tuple[Cyclotomic, ...]:
    """Coefficients (constant first) of det(Id - t*g) for g in the class rho.

    Each l-cycle with cycle product zeta^j contributes a factor 1 - zeta^j t^l.
    """
    m = rho.order
    poly: list[Cyclotomic] = [Cyclotomic.from_rational(1, m)]
    for j, part in rho.slots:
        for ell in part:
            root = zeta(m, j)
            poly = [
                (poly[i] if i < len(poly) else Cyclotomic.from_rational(0, m))
                - (root * poly[i - ell] if i >= ell else Cyclotomic.from_rational(0, m))
                for i in range(len(poly) + ell)
            ]
    return tuple(poly)


def pack(order: int, values) -> tuple[list[list[int]], int]:
    """(columns, den): int, Fraction or Cyclotomic values in Q(zeta_order) as
    integer columns, column i holding each value's numerator of zeta^i, over
    one common denominator.  Trailing zero columns are dropped, so a rational
    vector packs to one column."""
    entries = []
    for value in values:
        # (nums, den) of an int, Fraction or Cyclotomic, as a Q(zeta_order) element
        if not isinstance(value, Cyclotomic):
            entries.append(((value.numerator,), value.denominator))
        elif value.order == order or value.is_rational():
            entries.append((value.nums if value.order == order else value.nums[:1], value.den))
        else:
            raise ValueError(f"cannot mix Q(zeta_{order}) and Q(zeta_{value.order})")
    den = lcm(*(d for _, d in entries))
    columns = [[0] * len(entries) for _ in range(euler_phi(order))]
    for k, (nums, d) in enumerate(entries):
        for column, a in zip(columns, nums):
            column[k] = a * (den // d)
    while len(columns) > 1 and not any(columns[-1]):
        columns.pop()
    return columns, den


def packed_numerators(order: int, x, y) -> tuple[tuple[int, ...], int]:
    """(nums, den) of the exact sum of x_k * y_k over two vectors packed by
    pack, not in lowest terms: one integer dot per pair of columns, then one
    reduction mod Phi_order."""
    (xs, dx), (ys, dy) = x, y
    work = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            work[i + j] += sum(map(mul, a, b))
    return _reduce(work, order), dx * dy


def plain_read_off(series, lambdas) -> list[int]:
    """<f, s_lam> for each lam in lambdas, one cell at a time: the sum over nu
    of F_nu * chi^lam(nu) / z_nu, as one integer dot of chi^lam's row with the
    vector of F_nu * den / z_nu over den = lcm(z_nu), built once per degree,
    and one exact integer division, which raises NonIntegralError as the
    main path does."""
    terms, vectors, values = series.terms, {}, []
    for lam in lambdas:
        k = sum(lam)
        if k not in vectors:
            shapes = partitions.partitions_of(k)
            den = lcm(*map(partitions.centralizer_order, shapes))
            vectors[k] = [terms.get(nu, 0) * (den // partitions.centralizer_order(nu)) for nu in shapes], den
        vector, den = vectors[k]
        total = sum(map(mul, partitions.character_table(k)[lam].values(), vector))
        value, rem = divmod(total, den)
        if rem or value < 0:
            raise NonIntegralError(f"multiplicity at {format_partition(lam)} came out {Fraction(total, den)}")
        values.append(value)
    return values
