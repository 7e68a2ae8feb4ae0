import gc
import hashlib
import tracemalloc
from math import factorial

import pytest

from bruteforce import frobenius_character, pentagonal_partition_counts
from wreathlitt import partitions
from wreathlitt.partitions import (
    SizeMismatchError,
    centralizer_order,
    character_table,
    format_partition,
    parse_integer,
    parse_partition,
    partition_index,
    partitions_of,
    specht_dimension,
    symmetric_group_character,
)


def test_partitions_of_small():
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(10)) == 42


def test_partition_counts_match_pentagonal_recurrence():
    counts = pentagonal_partition_counts(40)
    for n in range(41):
        assert len(partitions_of(n)) == counts[n]


def test_reverse_lex_order():
    for n in range(9):
        parts = partitions_of(n)
        # each partition is strictly later in lex order than its successor
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def test_centralizer_order():
    assert centralizer_order(()) == 1
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3, 3, 2)) == 36


def test_class_sizes_partition_group():
    for n in range(1, 10):
        assert sum(factorial(n) // centralizer_order(mu) for mu in partitions_of(n)) == factorial(n)


def test_specht_dimension():
    assert specht_dimension(()) == 1
    for n in range(1, 7):
        assert specht_dimension((n,)) == 1
    assert specht_dimension((2, 1)) == 2
    assert specht_dimension((2, 2)) == 2
    for n in range(1, 8):
        total = sum(specht_dimension(lam) ** 2 for lam in partitions_of(n))
        assert total == factorial(n)


def test_character_examples():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert symmetric_group_character((n,), mu) == 1
    assert symmetric_group_character((1, 1), (2,)) == -1
    assert symmetric_group_character((2, 1), (1, 1, 1)) == 2
    assert symmetric_group_character((2, 1), (3,)) == -1
    assert symmetric_group_character((), ()) == 1


def test_size_mismatch():
    with pytest.raises(SizeMismatchError):
        symmetric_group_character((2,), (1,))


@pytest.mark.parametrize("n", range(1, 6))
def test_characters_against_frobenius_formula(n):
    # fully independent oracle: alternant coefficient extraction
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert symmetric_group_character(lam, mu) == frobenius_character(lam, mu), (lam, mu)


def test_column_orthogonality():
    for n in range(1, 8):
        shapes = partitions_of(n)
        for mu in shapes:
            for nu in shapes:
                total = sum(
                    symmetric_group_character(lam, mu) * symmetric_group_character(lam, nu)
                    for lam in shapes
                )
                assert total == (centralizer_order(mu) if mu == nu else 0)


def test_character_at_identity_is_dimension():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert symmetric_group_character(lam, (1,) * n) == specht_dimension(lam)


@pytest.mark.parametrize("n", range(9, 13))
def test_orthogonality_and_dimensions_past_degree_8(n):
    shapes = partitions_of(n)
    rows = character_table(n)
    class_sizes = [factorial(n) // centralizer_order(mu) for mu in shapes]
    for lam, row in zip(shapes, rows):
        assert row[-1] == specht_dimension(lam)  # (1^n) is the last cycle type
        for nu, other in zip(shapes, rows):
            total = sum(a * b * size for a, b, size in zip(row, other, class_sizes))
            assert total == (factorial(n) if lam == nu else 0), (lam, nu)
    columns = list(zip(*rows))
    for mu, column in zip(shapes, columns):
        for nu, other in zip(shapes, columns):
            total = sum(a * b for a, b in zip(column, other))
            assert total == (centralizer_order(mu) if mu == nu else 0), (mu, nu)


# sha256 of repr of the sorted ((shape, cycle type), chi) cells of
# character_table(n), recorded from the per-cycle-type build of the
# Murnaghan-Nakayama recursion.
@pytest.mark.parametrize(
    "n, digest",
    [
        (12, "cea13d34329ae6ba1c291a8e6d7fd0076f9e00f00b018ea3640e9dd6aae5c39e"),
        pytest.param(
            16,
            "89ed63113493e02834244b5dcf1f6f882bb6a5a15d1b9a23c8535d77b8336eb9",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_character_table_digest(n, digest):
    shapes = partitions_of(n)
    cells = [((lam, mu), chi) for lam, row in zip(shapes, character_table(n)) for mu, chi in zip(shapes, row)]
    text = repr(sorted(cells))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tables_do_not_depend_on_build_order(monkeypatch):
    def tables_after(*degrees):
        monkeypatch.setattr(partitions, "_TABLES", {0: ((1,),)})
        for n in degrees:
            character_table(n)
        return [character_table(n) for n in range(12)]

    assert tables_after(5, 11) == tables_after(11)


def test_rows_and_entries_are_indexed_by_partition_position():
    # table[i][j] is chi at (partitions_of(n)[i], partitions_of(n)[j]); the read-offs zip rows with partitions_of(n).
    for n in range(13):
        shapes = partitions_of(n)
        assert all(partition_index(n)[lam] == i for i, lam in enumerate(shapes))
        table = character_table(n)
        assert len(table) == len(shapes)
        assert all(len(row) == len(shapes) for row in table)


def test_table_memory(monkeypatch):
    # Building degrees 1..14 from the seed keeps about 0.47 MB (CPython 3.11).
    # The full collection first empties CPython's tuple free lists, which
    # otherwise hold the build's freed transient tuples, about 0.6 MB more;
    # rows as dicts {mu: chi} took about 2.3 MB, and a (shape, cycle type)
    # key tuple per cell about 4.5 MB.
    for n in range(15):
        partition_index(n)
    monkeypatch.setattr(partitions, "_TABLES", {0: ((1,),)})
    tracemalloc.start()
    try:
        character_table(14)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 750_000, current


def test_negative_degree_is_a_value_error():
    with pytest.raises(ValueError, match="negative"):
        character_table(-1)


def test_parse_and_format():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("") == ()
    assert parse_partition("[]") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("1,3")
    with pytest.raises(ValueError):
        parse_partition("a,b")
    with pytest.raises(ValueError):
        parse_partition("0")
    assert parse_partition(" 3, 1 ") == (3, 1)
    assert parse_integer(" -12 ") == -12
    # int() takes underscores, a plus sign and non-ASCII digits; these do not
    for text in ("1_0", "+1", "\u0663", "\uff11", "1.0", "", "-"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_integer(text)
        with pytest.raises(ValueError, match="not a partition"):
            parse_partition(text + ",1")
