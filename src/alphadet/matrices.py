"""Dense matrices of exact rationals and the structured forms used by the
determinant-like functionals.

JSON wire form: {"rows": R, "cols": C, "entries": [["p/q", ...], ...]}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSquare
from .perms import Perm, young_blocks
from .rationals import dumps, format_rational, parse_rational


class RatMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable]):
        # a type test, as in polynomials._frac: a Fraction subclass is copied
        grid = tuple(
            tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in entries
        )
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise DimensionMismatch("ragged rows")
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[1] * cols for _ in range(rows)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def require_square(self) -> int:
        if not self.is_square():
            raise NotSquare(f"{self.rows}x{self.cols} matrix is not square")
        return self.rows

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def with_column(self, j: int, col: Sequence) -> "RatMatrix":
        return RatMatrix(
            [
                [col[i] if c == j else v for c, v in enumerate(row)]
                for i, row in enumerate(self.entries)
            ]
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.entries)) if self.rows else RatMatrix(())

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def permute_columns(self, sigma: Perm) -> "RatMatrix":
        """Right-multiply by the permutation matrix of sigma: column j of
        the result is column sigma(j) of self."""
        if sigma.n != self.cols:
            raise DimensionMismatch("permutation size != column count")
        return RatMatrix(
            [[row[sigma.images[j] - 1] for j in range(self.cols)] for row in self.entries]
        )

    def permute_rows(self, sigma: Perm) -> "RatMatrix":
        """Left-multiply by the permutation matrix of sigma: row i of the
        result is row sigma^-1(i) of self."""
        if sigma.n != self.rows:
            raise DimensionMismatch("permutation size != row count")
        inv = sigma.inverse()
        return RatMatrix([self.entries[inv.images[i] - 1] for i in range(self.rows)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({[[format_rational(e) for e in row] for row in self.entries]})"

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(e) for e in row] for row in self.entries],
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatMatrix":
        if not isinstance(data, dict) or not {"rows", "cols", "entries"} <= data.keys():
            raise DimensionMismatch('matrix JSON needs "rows", "cols" and "entries"')
        entries = data["entries"]
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise DimensionMismatch('"entries" must be a list of lists')
        m = cls([[parse_rational(e) for e in row] for row in entries])
        if m.rows != data["rows"] or m.cols != data["cols"]:
            raise DimensionMismatch("declared dimensions do not match entries")
        return m

    @classmethod
    def from_json(cls, text: str) -> "RatMatrix":
        import json  # only reading a matrix file needs the decoder

        try:
            data = json.loads(text)
        except RecursionError:
            raise DimensionMismatch("matrix JSON is nested too deeply") from None
        return cls.from_json_dict(data)


def scaled_int_rows(a: RatMatrix) -> tuple[list[tuple[int, ...]], int]:
    """Clear denominators: integer rows and the scale L with a = rows / L
    entrywise.  Permutation sums are homogeneous in the entries, so exact
    results are recovered by one division at the end."""
    scale = 1
    for row in a.entries:
        for e in row:
            d = e.denominator
            if d != 1:
                scale = scale // gcd(scale, d) * d
    rows = [tuple(e.numerator * (scale // e.denominator) for e in row) for row in a.entries]
    return rows, scale


def perm_matrix(sigma: Perm) -> RatMatrix:
    """0/1 matrix with entry (i, j) = 1 iff i = sigma(j)."""
    n = sigma.n
    return RatMatrix(
        [[1 if sigma.images[j - 1] == i else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def require_inflatable(a: RatMatrix, k: int) -> None:
    """Refuse k < 1 and a shape that is not kn x n, the inputs that
    ``inflate`` takes."""
    if k < 1:
        raise ValueError("k must be positive")
    if a.rows != k * a.cols:
        raise DimensionMismatch(f"need kn x n input, got {a.rows}x{a.cols} with k={k}")


def inflate(a: RatMatrix, k: int) -> RatMatrix:
    """Repeat each column k times in place, turning kn x n into kn x kn."""
    require_inflatable(a, k)
    return RatMatrix([[v for v in row for _ in range(k)] for row in a.entries])


def block_ones(mu: Sequence[int]) -> RatMatrix:
    """Block-diagonal matrix of all-one blocks with sizes mu_1, mu_2, ..."""
    n = sum(mu)
    grid = [[0] * n for _ in range(n)]
    for block in young_blocks(mu):
        for i in block:
            for j in block:
                grid[i - 1][j - 1] = 1
    return RatMatrix(grid)


def column_replicator(n: int, k: int) -> RatMatrix:
    """The kn x n matrix whose inflation is the block-ones matrix of (k^n):
    identity blocks stacked as I_n with each row repeated k times."""
    return RatMatrix(
        [[1 if r // k == c else 0 for c in range(n)] for r in range(n * k)]
    )


class PermutedBlockOnes:
    """The row-permuted block-ones matrix P(g) * block_ones(mu), kept
    unmaterialized: entry (r, s) = 1 iff g^-1(r) and s share a mu-block, as
    in ``block_ones(mu).permute_rows(g)``.  mu is any composition of n:
    every part is at least 1.  Equal (g, mu) compare and hash equal."""

    __slots__ = ("g", "mu")

    def __init__(self, g: Perm, mu: tuple[int, ...]):
        if mu and min(mu) < 1:
            raise ValueError(f"parts must be positive: {tuple(mu)}")
        if g.n != sum(mu):
            raise DimensionMismatch("permutation size != sum(mu)")
        self.g, self.mu = g, mu

    def __eq__(self, other):
        if type(other) is not PermutedBlockOnes:
            return NotImplemented
        return (self.g, self.mu) == (other.g, other.mu)

    def __hash__(self):
        return hash((self.g, self.mu))

    def __repr__(self):
        return f"PermutedBlockOnes(g={self.g!r}, mu={self.mu!r})"

