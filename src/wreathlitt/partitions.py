"""Integer partitions, their statistics, and symmetric group characters.

Characters are computed by the Murnaghan-Nakayama recursion, phrased on
beta-sets (first-column hook lengths): removing a border strip of size r
means lowering one beta number by r, with sign given by the number of beta
numbers jumped over.  Full character tables are built per degree on first
use and kept in memory for the life of the process; they are never written
to or read from disk.  A table is stored as rows, {lam: {mu: chi^lam(mu)}},
with the rows and each row's keys in partitions_of(n) order.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "SizeMismatchError",
    "centralizer_order",
    "character_table",
    "conjugate_partition",
    "format_partition",
    "multiplicities",
    "parse_partition",
    "partitions_of",
    "specht_dimension",
    "symmetric_group_character",
]


class SizeMismatchError(ValueError):
    """Character arguments index different symmetric groups."""


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    return list(_partitions(n, n))


def _is_partition(seq) -> bool:
    return all(
        isinstance(x, int) and x >= 1 and (i == 0 or seq[i - 1] >= x)
        for i, x in enumerate(seq)
    )


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part size -> number of occurrences."""
    out: dict[int, int] = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out


@lru_cache(maxsize=None)
def centralizer_order(lam: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type lam."""
    out = 1
    for part, mult in multiplicities(lam).items():
        out *= factorial(mult) * part**mult
    return out


def conjugate_partition(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def specht_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    dim, rem = divmod(factorial(sum(lam)), hooks)
    assert rem == 0
    return dim


# Complete character tables per degree as rows; degree 0 seeds the recursion.
_TABLES: dict[int, dict[Partition, dict[Partition, int]]] = {0: {(): {(): 1}}}


def _border_strip_removals(lam: Partition, size: int):
    """Yield (smaller partition, sign) for each removable border strip: lowering
    beta[i] below beta[i + 1 .. j] moves rows i + 1 .. j up one row and one box
    shorter, leaves the strip's other boxes in row j, and signs it (-1)^(j - i)."""
    k = len(lam)
    beta = [part + k - 1 - i for i, part in enumerate(lam)]
    beta_set = set(beta)
    for i, b in enumerate(beta):
        lowered = b - size
        if lowered < 0 or lowered in beta_set:
            continue
        j = i
        while j + 1 < k and beta[j + 1] > lowered:
            j += 1
        shrunk = lam[:i] + tuple(x - 1 for x in lam[i + 1 : j + 1]) + (lowered + j + 1 - k,) + lam[j + 1 :]
        yield tuple(x for x in shrunk if x > 0), (-1 if (j - i) % 2 else 1)


def _build_table(n: int) -> dict[Partition, dict[Partition, int]]:
    shapes = _partitions(n, n)
    table: dict[Partition, dict[Partition, int]] = {lam: {} for lam in shapes}
    # Filled column by column, so each row's keys come in partitions_of(n) order.
    # Strips depend on mu's first part alone: each shape's are found once per size.
    strips_by_size: dict[int, list] = {}
    for mu in shapes:
        strip, rest = mu[0], mu[1:]
        rows = strips_by_size.get(strip)
        if rows is None:
            rows = strips_by_size[strip] = [tuple(_border_strip_removals(lam, strip)) for lam in shapes]
        lower = _TABLES[n - strip]
        for lam, strips in zip(shapes, rows):
            table[lam][mu] = sum([sign * lower[smaller][rest] for smaller, sign in strips])
    return table


def character_table(n: int) -> dict[Partition, dict[Partition, int]]:
    """The full character table of the symmetric group of degree n.

    As rows: table[lam][mu] is chi^lam(mu), and both the rows and each row's
    keys come in partitions_of(n) order.  Building degree n fills in all
    lower degrees as well.  A built table is returned after one lookup.
    """
    table = _TABLES.get(n)
    if table is None:
        if n < 0:
            raise ValueError(f"no symmetric group of negative degree: {n}")
        for k in range(1, n + 1):
            if k not in _TABLES:
                _TABLES[k] = _build_table(k)
        table = _TABLES[n]
    return table


def symmetric_group_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character of shape lam at cycle type mu."""
    if sum(lam) != sum(mu):
        raise SizeMismatchError(f"|{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}")
    return character_table(sum(lam))[lam][mu]


def parse_partition(text: str) -> Partition:
    """Parse "3,1,1"; both "" and "[]" denote the empty partition."""
    text = text.strip()
    if text in ("", "[]"):
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"not a partition: {text!r}") from None
    if not _is_partition(parts):
        raise ValueError(f"parts must be weakly decreasing positive integers: {text!r}")
    return parts


def format_partition(lam: Partition) -> str:
    return "[]" if not lam else ",".join(str(part) for part in lam)
