"""Integer partitions, Young-diagram counts, content polynomials and a
semistandard-tableau Kostka oracle.

Partitions are plain tuples of weakly decreasing positive integers; the
string form is "3,2,1".  Cells use (row, column) 1-based English notation,
so the content of a cell is column - row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterator, Sequence

from .errors import IdentityViolation, ShapeWeightMismatch, SizeCapExceeded
from .polynomials import QPoly

PARTITIONS_CAP = 12
KOSTKA_CAP = 10


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def parse_partition(text: str) -> tuple[int, ...]:
    return check_partition(tuple(int(t) for t in text.split(",")))


def format_partition(parts: Sequence[int]) -> str:
    return ",".join(str(p) for p in parts)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in reverse-lexicographic order: (n) first,
    (1,...,1) last."""
    if n > PARTITIONS_CAP:
        raise SizeCapExceeded(f"n={n} exceeds partition cap {PARTITIONS_CAP}")
    return list(_partitions(n))


@cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """``partitions_of(n)`` as a memoized tuple, without the cap: the
    cut-and-join builder reads every t = 1..n on each build.

    Each partition after (n) comes from the one before: its last part above
    1 is lowered by one, and the trailing ones and the freed unit are
    refilled with parts of the lowered size and one smaller remainder."""
    if n == 0:
        return ((),)
    found = []
    parts = [n]
    while True:
        found.append(tuple(parts))
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return tuple(found)
        size = parts[-1] - 1
        parts[-1] = size
        spread = ones + 1
        while spread >= size:
            parts.append(size)
            spread -= size
        if spread:
            parts.append(spread)


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def cells(parts: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(row, column) pairs, 1-based, row-major."""
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            yield i, j


def hook_lengths(parts: Sequence[int]) -> list[int]:
    parts = tuple(parts)
    conj = conjugate(parts)
    return [parts[i - 1] - j + conj[j - 1] - i + 1 for i, j in cells(parts)]


def num_standard_tableaux(parts: Sequence[int]) -> int:
    """Count of standard Young tableaux via the hook length formula."""
    parts = check_partition(parts)
    count = factorial(sum(parts))
    for h in hook_lengths(parts):
        if count % h:
            raise IdentityViolation(
                f"hook product of {parts} does not divide {sum(parts)}!",
                witness={"shape": format_partition(parts)},
            )
        count //= h
    return count


def _content_coefficients(parts: Sequence[int]) -> tuple[int, ...]:
    """The integer coefficients of the product over cells (i, j) of
    (1 + (j - i) * a), constant term first: |parts| + 1 of them, trailing
    zeros kept.  Each factor is multiplied in place, from the top down."""
    out = [1]
    for i, j in cells(check_partition(parts)):
        out.append(0)
        for d in range(len(out) - 1, 0, -1):
            out[d] += (j - i) * out[d - 1]
    return tuple(out)


def content_poly(parts: Sequence[int]) -> QPoly:
    """Product over cells (i, j) of (1 + (j - i) * a), expanded."""
    return QPoly(_content_coefficients(parts))


def content_poly_at(parts: Sequence[int], x: Fraction) -> Fraction:
    """content_poly evaluated at a rational point, without expanding."""
    x = Fraction(x)
    out = Fraction(1)
    for i, j in cells(check_partition(parts)):
        out *= 1 + (j - i) * x
    return out


def kostka_ssyt(shape: Sequence[int], weight: Sequence[int]) -> int:
    """Number of semistandard tableaux of the given shape and weight,
    counted by exhaustive backtracking over fillings (rows weakly
    increasing, columns strictly increasing, entry value v used
    weight[v-1] times).

    This is deliberately character-free so it can serve as an independent
    oracle for character-based formulas.
    """
    shape = check_partition(shape)
    weight = tuple(weight)
    if any(w < 0 for w in weight):
        raise ValueError(f"weight entries must be non-negative: {weight}")
    if sum(shape) != sum(weight):
        raise ShapeWeightMismatch(f"|{shape}| != |{weight}|")
    if sum(shape) > KOSTKA_CAP:
        raise SizeCapExceeded(f"|shape| > {KOSTKA_CAP}")

    nrows = len(shape)
    nvals = len(weight)
    remaining = list(weight)
    rows: list[list[int]] = [[] for _ in range(nrows)]
    order = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def fill(pos: int) -> int:
        if pos == len(order):
            return 1
        r, c = order[pos]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        total = 0
        for v in range(lo, nvals + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            rows[r].append(v)
            total += fill(pos + 1)
            rows[r].pop()
            remaining[v - 1] += 1
        return total

    return fill(0)
