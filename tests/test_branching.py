import random
from fractions import Fraction

import pytest

from bruteforce import h_basis, plain_read_off
from wreathlitt.branching import (
    HypothesisViolationError,
    _lambda_grid,
    _reader,
    _signed_digits,
    branching_coefficient,
    branching_series,
    branching_table,
    table_series,
)
from wreathlitt.oracle import branching_by_pairing
from wreathlitt.partitions import partitions_of
from wreathlitt.symfunc import constant, hall_inner_product, omega_at_root, plethysm, s_basis
from wreathlitt.wreath import NonIntegralError, WreathLabel, wreath_class_labels


def lab(order, mapping):
    return WreathLabel.from_mapping(order, mapping)


def test_series_reduces_to_littlewood_for_trivial_group():
    mu = (2, 1)
    direct = branching_series(lab(1, {0: mu}), 4)
    classical = plethysm(s_basis(mu), omega_at_root(0, 1, 4), 4)
    assert direct == classical


def test_series_degree_one_component():
    # only the j=1 factor can contribute in degree 1
    for n in (2, 3, 4):
        rho = lab(2, {0: (n - 1,), 1: (1,)})
        series = branching_series(rho, 1)
        # to degree 1: no constant term and h_1 with coefficient 1
        assert series == h_basis((1,))


def test_series_constant_term():
    # constant 1 exactly when slot 0 is a one-row partition and the rest empty
    assert branching_series(lab(2, {0: (3,)}), 0).coefficient(()) == 1
    assert branching_series(lab(2, {0: (2, 1)}), 0).coefficient(()) == 0
    assert branching_series(lab(2, {0: (2,), 1: (1,)}), 0).coefficient(()) == 0
    assert branching_series(lab(3, {2: (1,)}), 0).coefficient(()) == 0


def test_branching_examples():
    assert branching_coefficient(lab(2, {0: (1,)}), (2,)) == 1
    assert branching_coefficient(lab(2, {1: (1,)}), (2,)) == 0
    assert branching_coefficient(lab(1, {0: (2,)}), (2,)) == 2
    assert branching_coefficient(lab(1, {0: (1, 1)}), (2,)) == 1
    # restriction of the trivial representation
    for order in (1, 2, 3):
        for n in (1, 2, 3):
            for rho in wreath_class_labels(n, order):
                expected = 1 if rho.slots == ((0, (n,)),) else 0
                assert branching_coefficient(rho, ()) == expected


def test_hypothesis_guard():
    with pytest.raises(HypothesisViolationError):
        branching_coefficient(lab(2, {1: (1,)}), (1, 1))


def test_littlewood_examples():
    # m = 1: the multiplicity of the Specht module mu in V^lambda restricted to S_n
    for n in range(1, 6):
        assert branching_coefficient(lab(1, {0: (n,)}), (1,)) == 1
    for n in range(2, 6):
        assert branching_coefficient(lab(1, {0: (n - 1, 1)}), (1,)) == 1
    for n in range(3, 6):
        assert branching_coefficient(lab(1, {0: (1,) * n}), (1,)) == 0
    assert branching_coefficient(lab(1, {0: (1, 1)}), (1, 1)) == 1


def test_littlewood_agrees_with_general_path():
    # Littlewood's formula: the multiplicity is <s_mu[1 + h_1 + h_2 + ...], s_lam>
    alphabet = omega_at_root(0, 1, 6)
    for n in range(1, 6):
        for mu in partitions_of(n):
            littlewood = plethysm(s_basis(mu), alphabet, 6)
            for size in range(7):
                for lam in partitions_of(size):
                    if len(lam) > n:
                        continue
                    assert branching_coefficient(lab(1, {0: mu}), lam) == hall_inner_product(littlewood, s_basis(lam))


def test_stability_in_truncation():
    small = branching_table(2, 2, 2)
    large = branching_table(2, 2, 5)
    # the smaller grid is a prefix of the larger, so each row is a prefix too
    assert small.labels == large.labels and large.lambdas[: len(small.lambdas)] == small.lambdas
    for small_row, large_row in zip(small.rows, large.rows):
        assert large_row[: len(small_row)] == small_row


def test_table_shape_and_oracle_agreement():
    table = branching_table(2, 1, 2)
    assert [len(row) for row in table.rows] == [3, 3]  # 2 labels x partitions [], (1), (2)
    table = branching_table(1, 3, 3)
    for rho, row in zip(table.labels, table.rows):
        assert row == [branching_by_pairing(rho, lam) for lam in table.lambdas]


def test_integrality_of_series_coefficients():
    # the generating series itself is rational; pairings must land in Z >= 0
    for rho in wreath_class_labels(3, 2):
        series = branching_series(rho, 4)
        for k in range(5):
            for lam in partitions_of(k):
                if len(lam) > 3:
                    continue
                value = hall_inner_product(series, s_basis(lam))
                assert isinstance(value, Fraction)
                assert value.denominator == 1 and value >= 0


def test_table_parallel_matches_serial():
    serial = branching_table(2, 2, 3, jobs=1)
    parallel = branching_table(2, 2, 3, jobs=4)
    assert serial.rows == parallel.rows
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_json_obj() == parallel.to_json_obj()


@pytest.mark.parametrize("order, size, max_degree", [(1, 6, 9), (2, 4, 7), (3, 3, 6), (4, 3, 5)])
def test_table_matches_the_per_label_path(order, size, max_degree):
    # The table builds each slot factor once; every cell must equal the one
    # read off the label's own series, including labels with empty slots.
    table = branching_table(order, size, max_degree)
    assert table.labels == wreath_class_labels(size, order)
    assert table.rows == [plain_read_off(branching_series(rho, max_degree), table.lambdas) for rho in table.labels]


@pytest.mark.parametrize("order, size, max_degree", [(1, 10, 14), (2, 6, 10), (4, 4, 8), (5, 1, 3), (2, 4, 0)])
def test_packed_read_off_matches_the_plain_dot(order, size, max_degree):
    # The widest digits (m = 1, degree 14), lambda = [] alone (degree 0), and
    # degrees in which a series has no terms (m = 5 at n = 1, m = 4 at odd degrees).
    lambdas = _lambda_grid(size, max_degree)
    read = _reader(lambdas)
    for rho, series in table_series(order, size, max_degree):
        assert list(read(series)) == plain_read_off(series, lambdas), rho


def test_packed_read_off_of_digits_wider_than_a_word():
    # c * s_mu reads off as c at mu and 0 elsewhere; at c = 3^100 the degree-6
    # digits take three words, and -c * s_mu fails at mu in both readers.
    lambdas, c = _lambda_grid(6, 7), 3**100
    read = _reader(lambdas)
    for mu in partitions_of(6):
        series = s_basis(mu) * c
        assert list(read(series)) == plain_read_off(series, lambdas) == [c * (lam == mu) for lam in lambdas]
        for reader in (lambda f: list(read(f)), lambda f: plain_read_off(f, lambdas)):
            with pytest.raises(NonIntegralError, match=f"came out -{c}$"):
                reader(s_basis(mu) * -c)


@pytest.mark.parametrize("words", range(1, 9))
def test_signed_digits_round_trip_at_every_width(words):
    # Every width the read-off can choose is a whole number of 64-bit words;
    # the extreme digits +-(2^(b-1) - 1) of a b-bit field come back as they went in.
    bits = 64 * words
    top = (1 << bits - 1) - 1
    digits = [top, -top, 0, -1, 1, top, -top, top - 1]
    packed = sum(d << bits * i for i, d in enumerate(digits))
    assert _signed_digits(packed, bits, len(digits)) == digits
    assert _signed_digits(-top, bits, 1) == [-top]
    # A block is split in halves down to at most 48 fields: counts on each side of
    # that and of one split, and a long block, with the extreme digits at both ends.
    if words <= 3:
        for count in (1, 48, 49, 97, 1000):
            rng = random.Random(count)
            digits = [rng.randint(-top, top) for _ in range(count)]
            digits[0], digits[-1], digits[count // 2] = -top, top, top
            packed = sum(d << bits * i for i, d in enumerate(digits))
            assert _signed_digits(packed, bits, count) == digits, count


@pytest.mark.parametrize("exponent", [0, 1, 62, 63, 64, 65, 127, 128, 129, 191, 200])
def test_read_off_widths_hold_their_bound(exponent, monkeypatch):
    # The constant c reads off at lambda = [] as c, from a field chosen for the
    # bound |c|: just below and at each power of two, across the word
    # boundaries, the field holds c and -c and is a whole number of 64-bit words.
    import wreathlitt.branching as branching_module

    true, widths = branching_module._packed_columns, []
    monkeypatch.setattr(branching_module, "_packed_columns", lambda rows, bits: widths.append(bits) or true(rows, bits))
    read = _reader([()])
    for c in {(1 << exponent) - 1, 1 << exponent} - {0}:
        assert list(read(constant(c, truncation=0))) == [c]
        with pytest.raises(NonIntegralError, match=f"came out -{c}$"):
            list(read(constant(-c, truncation=0)))
    assert widths and all(bits % 64 == 0 for bits in widths)


def test_each_degree_block_is_packed_once_at_the_table_m1_scope(monkeypatch):
    # branching_table(1, 7, 11), the benchmark's table: every row's digits fit
    # one 64-bit word, so each degree's chi columns are packed once, at the
    # first row, in degree order.  A width that changes from row to row packs
    # some blocks once per row.
    import wreathlitt.branching as branching_module

    true, calls = branching_module._packed_columns, []

    def counted(rows, bits):
        calls.append((len(rows), len(rows[0]), bits))
        return true(rows, bits)

    monkeypatch.setattr(branching_module, "_packed_columns", counted)
    branching_table(1, 7, 11)
    blocks = [len([lam for lam in partitions_of(k) if len(lam) <= 7]) for k in range(12)]
    assert calls == [(count, len(partitions_of(k)), 64) for k, count in enumerate(blocks)]


def test_table_series_equals_branching_series():
    for rho, series in table_series(3, 3, 5):
        direct = branching_series(rho, 5)
        assert series.terms == direct.terms
        assert series.truncation == direct.truncation


@pytest.mark.parametrize("order, size, max_degree", [(1, 7, 11), (3, 3, 5), (2, 4, 8)])
def test_main_path_series_hold_integers(order, size, max_degree):
    # F_mu = <f, p_mu> is an integer for every branching series, so the main
    # path never leaves integer arithmetic.
    for rho, series in table_series(order, size, max_degree):
        assert all(type(value) is int for value in series.terms.values()), rho
    series = branching_series(lab(3, {0: (2,), 1: (1, 1), 2: (1,)}), 6)
    assert series and all(type(value) is int for value in series.terms.values())


def test_table_starts_no_process(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("branching_table started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert branching_table(2, 2, 3, jobs=8).rows == branching_table(2, 2, 3).rows


def test_read_off_remainder_raises_non_integral(monkeypatch):
    # The exact division in the read-off is the main path's integrality check.
    # rho = (2) has [p_3] = 1/3 in degree 3, and the plethysm for rho never
    # reads the degree-3 character table, so only the read-off sees this edit.
    import re

    from wreathlitt import partitions
    from wreathlitt.wreath import NonIntegralError

    rho, lam = lab(1, {0: (2,)}), (2, 1)
    assert branching_coefficient(rho, lam) == 1
    rows = [list(row) for row in partitions.character_table(3)]
    rows[1][0] += 1  # chi^(2,1) at (3): rows and entries in partitions_of(3) order
    monkeypatch.setitem(partitions._TABLES, 3, tuple(map(tuple, rows)))
    with pytest.raises(NonIntegralError, match=re.escape("multiplicity at 2,1 came out 4/3")):
        branching_coefficient(rho, lam)


def test_random_cells_agree_with_character_average():
    import random

    from wreathlitt.oracle import branching_by_character_average

    # m in 1..4, n <= 5, |lambda| <= 9; about 4 s on a 2-core Xeon VM.
    rng = random.Random(20261017)
    for _ in range(100):
        order, n = rng.randint(1, 4), rng.randint(1, 5)
        rho = rng.choice(wreath_class_labels(n, order))
        lam = rng.choice([lam for lam in partitions_of(rng.randint(0, 9)) if len(lam) <= n])
        assert branching_coefficient(rho, lam) == branching_by_character_average(rho, lam), (rho, lam)
