from math import factorial

import pytest

from bruteforce import frobenius_character, pentagonal_partition_counts
from wreathlitt.partitions import (
    SizeMismatchError,
    centralizer_order,
    format_partition,
    parse_partition,
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
