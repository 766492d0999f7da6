"""Deterministic test-instance generation.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer) with
rejection sampling for exactly uniform bounded draws, so the same seed
yields the same matrix on every platform.  Entries are small integers in
[-9, 9] to keep rational bit growth bounded across factorial-size sums.
"""

from __future__ import annotations

from .errors import SizeCapExceeded
from .matrices import RatMatrix
from .perms import Perm

MATRIX_CELL_CAP = 10**4
ENTRY_LO = -9
ENTRY_HI = 9

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-gamma constant and
    each output is finalized with two xor-shift multiplies."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Exactly uniform draw from [0, bound) via rejection sampling."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, deterministic given the stream position."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def random_int_rows(rows: int, cols: int, seed: int) -> list[tuple[int, ...]]:
    """The entries of ``random_matrix(rows, cols, seed)`` as integer rows,
    drawn from the same stream with the same checks, and no Fraction built."""
    if rows < 1 or cols < 1:
        raise ValueError("dimensions must be positive")
    if rows * cols > MATRIX_CELL_CAP:
        raise SizeCapExceeded(f"{rows}x{cols} exceeds {MATRIX_CELL_CAP} cells")
    randint = SplitMix64(seed).randint
    return [tuple([randint(ENTRY_LO, ENTRY_HI) for _ in range(cols)]) for _ in range(rows)]


def random_matrix(rows: int, cols: int, seed: int) -> RatMatrix:
    """Seeded matrix with integer entries uniform on [-9, 9], row-major draw
    order; identical seeds give identical matrices.  Its entries are the
    integer rows of ``random_int_rows``, which a caller that needs no
    Fractions draws alone."""
    return RatMatrix(random_int_rows(rows, cols, seed))


def random_perm(n: int, rng: SplitMix64) -> Perm:
    """Seeded uniform permutation drawn from an existing stream."""
    items = list(range(1, n + 1))
    rng.shuffle(items)
    return Perm(items)
