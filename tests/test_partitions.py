import re
from fractions import Fraction as F
from math import factorial
from typing import Iterator

import pytest

from alphadet.errors import ShapeWeightMismatch, SizeCapExceeded
from alphadet.partitions import (
    _partitions,
    conjugate,
    content_poly,
    content_poly_at,
    format_partition,
    kostka_ssyt,
    num_standard_tableaux,
    parse_partition,
    partitions_of,
)
from alphadet.polynomials import QPoly


def test_partitions_of_small():
    assert partitions_of(1) == [(1,)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(8)) == 22


def test_partitions_reverse_lex_order():
    for n in range(1, 10):
        parts = partitions_of(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert all(a > b for a, b in zip(parts, parts[1:]))
        assert all(sum(p) == n for p in parts)


def _partitions_recursive(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Oracle: the partitions of remaining into parts of at most cap, in
    reverse-lexicographic order, largest first part first."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _partitions_recursive(remaining - first, first):
            yield (first,) + rest


def test_partition_generator_matches_the_recursive_oracle():
    # order included, past the cap that partitions_of applies
    for n in range(15):
        assert _partitions(n) == tuple(_partitions_recursive(n, n)), n
    assert len(_partitions(14)) == 135


def test_partitions_cap():
    with pytest.raises(SizeCapExceeded):
        partitions_of(13)


def _standard_tableaux_count(shape):
    """Brute-force count of standard fillings, independent of hook lengths."""
    total_cells = sum(shape)

    def grow(filled_rows):
        placed = sum(filled_rows)
        if placed == total_cells:
            return 1
        count = 0
        for r, width in enumerate(shape):
            if filled_rows[r] < width and (r == 0 or filled_rows[r] < filled_rows[r - 1]):
                filled_rows[r] += 1
                count += grow(filled_rows)
                filled_rows[r] -= 1
        return count

    return grow([0] * len(shape))


def test_num_standard_tableaux_known():
    assert num_standard_tableaux((5,)) == 1
    assert num_standard_tableaux((2, 2)) == 2
    assert num_standard_tableaux((2, 2)) == _standard_tableaux_count((2, 2))


def test_hook_formula_matches_enumeration():
    for n in range(1, 7):
        for shape in partitions_of(n):
            assert num_standard_tableaux(shape) == _standard_tableaux_count(shape)


def test_square_sum_identity():
    for n in range(1, 9):
        assert sum(num_standard_tableaux(p) ** 2 for p in partitions_of(n)) == factorial(n)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    for n in range(1, 9):
        for shape in partitions_of(n):
            assert conjugate(conjugate(shape)) == shape
            assert num_standard_tableaux(shape) == num_standard_tableaux(conjugate(shape))


def test_content_poly_known():
    assert content_poly((3,)) == QPoly([1, 3, 2])
    assert content_poly((1, 1, 1)) == QPoly([1, -1]) * QPoly([1, -2])
    assert content_poly((2, 2)) == QPoly([1, 0, -1])


def test_content_poly_conjugation_negates_variable():
    for n in range(1, 9):
        for shape in partitions_of(n):
            flipped = QPoly(
                [c if i % 2 == 0 else -c for i, c in enumerate(content_poly(shape).coeffs)]
            )
            assert content_poly(conjugate(shape)) == flipped


def test_content_poly_at_known():
    assert content_poly_at((2, 2), F(-1, 2)) == F(3, 4)
    assert content_poly_at((3, 1), F(-1, 2)) == 0
    assert content_poly_at((2, 2), F(1, 2)) == F(3, 4)
    assert content_poly_at((4,), F(1)) == 24


def test_content_poly_at_matches_expansion():
    for shape in partitions_of(6):
        for x in (F(-1, 2), F(1, 3), F(2)):
            assert content_poly_at(shape, x) == content_poly(shape).eval(x)


def test_content_vanishing_iff_wide():
    for n in range(1, 9):
        for shape in partitions_of(n):
            for k in range(1, n + 1):
                vanishes = content_poly_at(shape, F(-1, k)) == 0
                assert vanishes == (shape[0] > k)


def test_rectangle_values_from_hook_formula():
    for k, n in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        size = k * n
        shape = (k,) * n
        f = num_standard_tableaux(shape)
        assert content_poly_at(shape, F(-1, k)) == F(factorial(size), k**size * f)
        assert content_poly_at(shape, F(1, n)) == F(factorial(size), n**size * f)


def test_kostka_known_values():
    assert kostka_ssyt((2, 2), (2, 1, 1)) == 1
    for k, n in [(2, 2), (3, 2), (2, 3)]:
        assert kostka_ssyt((k,) * n, (k,) * n) == 1


def test_kostka_unit_weight_counts_standard_tableaux():
    for shape in partitions_of(5):
        assert kostka_ssyt(shape, (1,) * 5) == num_standard_tableaux(shape)


def test_kostka_vanishes_for_long_shapes():
    for k, n in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 8), (8, 1)]:
        size = k * n
        if size > 8:
            continue
        for shape in partitions_of(size):
            if len(shape) > n:
                assert kostka_ssyt(shape, (k,) * n) == 0


def test_kostka_errors():
    with pytest.raises(ShapeWeightMismatch):
        kostka_ssyt((2, 2), (2, 1))
    with pytest.raises(SizeCapExceeded):
        kostka_ssyt((11,), (1,) * 11)


def test_partition_strings():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert format_partition((3, 2, 1)) == "3,2,1"
    with pytest.raises(ValueError):
        parse_partition("1,2")


@pytest.mark.parametrize(
    "shape, weight, message",
    [
        ((2, 1), (4, -1), "weight entries must be non-negative: (4, -1)"),
        ((1,), (-1, 2), "weight entries must be non-negative: (-1, 2)"),
        ((3,), [2, 2, -1], "weight entries must be non-negative: (2, 2, -1)"),
    ],
)
def test_kostka_refuses_a_negative_weight(shape, weight, message):
    # before the size check, which the negative entry would pass
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kostka_ssyt(shape, weight)
