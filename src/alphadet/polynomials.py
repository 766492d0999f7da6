"""Dense exact polynomials over the rationals, in one and two variables.

Degrees stay tiny here (bounded by the matrix size), so dense coefficient
storage is simpler and faster than anything sparse.  Both types are
immutable and kept in canonical form: trailing zero coefficients (and, in
two variables, trailing all-zero rows/columns) are stripped, so ``==`` is
structural equality and values are safe to hash and share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DivisionByZeroPoly, NotDivisible
from .rationals import format_rational, parse_rational


def _frac(x) -> Fraction:
    # a type test, not isinstance, whose ABC check is slow on an int; a
    # Fraction subclass is copied to a plain Fraction
    return x if type(x) is Fraction else Fraction(x)


class QPoly:
    """Univariate polynomial; ``coeffs[i]`` is the coefficient of the i-th power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "QPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "QPoly":
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QPoly):
            if not self.coeffs or not other.coeffs:
                return QPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return QPoly(out)
        return QPoly(c * _frac(other) for c in self.coeffs)

    __rmul__ = __mul__

    def eval(self, x) -> Fraction:
        """Evaluate exactly at a rational point (Horner)."""
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, divisor: "QPoly") -> "QPoly":
        """Return q with self = q * divisor, failing if division is not exact."""
        if not divisor.coeffs:
            raise DivisionByZeroPoly("division by the zero polynomial")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        lead = dc[-1]
        if len(rem) < len(dc):
            if any(rem):
                raise NotDivisible(f"{self!r} is not divisible by {divisor!r}")
            return QPoly.zero()
        qlen = len(rem) - len(dc) + 1
        quot = [Fraction(0)] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + len(dc) - 1] / lead
            quot[i] = c
            if c:
                for j, d in enumerate(dc):
                    rem[i + j] -= c * d
        if any(rem):
            raise NotDivisible(f"{self!r} is not divisible by {divisor!r}")
        return QPoly(quot)

    def to_strings(self) -> list[str]:
        """Serialized form: list of rational strings, constant term first."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "QPoly":
        return cls(parse_rational(s) for s in items)

    def __repr__(self) -> str:
        return f"QPoly({[format_rational(c) for c in self.coeffs]})"


def eval_grid(grid: Sequence[Sequence[int]], denom: int, x, y) -> Fraction:
    """sum grid[i][j] x^i y^j / denom for an integer grid with rows of equal
    length, exactly.  With x = p/q, y = r/s and I, J the top exponents, the
    numerator sum grid[i][j] p^i q^(I-i) r^j s^(J-j) is integer arithmetic,
    and one Fraction over denom q^I s^J is reduced at the end."""
    x, y = _frac(x), _frac(y)
    if not grid:
        return Fraction(0)
    top_i, top_j = len(grid) - 1, len(grid[0]) - 1
    p, q, r, s = x.numerator, x.denominator, y.numerator, y.denominator
    x_terms = [p**i * q ** (top_i - i) for i in range(top_i + 1)]
    y_terms = [r**j * s ** (top_j - j) for j in range(top_j + 1)]
    total = sum(
        xi * sum(c * yj for c, yj in zip(row, y_terms)) for xi, row in zip(x_terms, grid)
    )
    return Fraction(total, denom * q**top_i * s**top_j)


class QPoly2:
    """Bivariate polynomial; ``grid[i][j]`` is the coefficient of a^i * b^j."""

    __slots__ = ("grid",)

    def __init__(self, grid: Iterable[Iterable] = ()):
        rows = [[_frac(c) for c in row] for row in grid]
        width = max((len(r) for r in rows), default=0)
        for r in rows:
            r.extend([Fraction(0)] * (width - len(r)))
        # canonical form: drop trailing all-zero rows, then columns
        while rows and all(c == 0 for c in rows[-1]):
            rows.pop()
        while width and rows and all(r[width - 1] == 0 for r in rows):
            width -= 1
        self.grid: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(r[:width]) for r in rows
        )

    @classmethod
    def zero(cls) -> "QPoly2":
        return cls(())

    @classmethod
    def outer(cls, p: QPoly, q: QPoly) -> "QPoly2":
        """Product p(a) * q(b) as a bivariate polynomial."""
        return cls([[pc * qc for qc in q.coeffs] for pc in p.coeffs])

    def coefficient(self, i: int, j: int) -> Fraction:
        if 0 <= i < len(self.grid) and 0 <= j < len(self.grid[i]):
            return self.grid[i][j]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.grid)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly2) and self.grid == other.grid

    def __hash__(self) -> int:
        return hash(self.grid)

    def __add__(self, other: "QPoly2") -> "QPoly2":
        nr = max(len(self.grid), len(other.grid))
        nc = max(
            max((len(r) for r in self.grid), default=0),
            max((len(r) for r in other.grid), default=0),
        )
        out = [[Fraction(0)] * nc for _ in range(nr)]
        for src in (self.grid, other.grid):
            for i, row in enumerate(src):
                for j, c in enumerate(row):
                    out[i][j] += c
        return QPoly2(out)

    def __sub__(self, other: "QPoly2") -> "QPoly2":
        return self + (-1 * other)

    def __mul__(self, other) -> "QPoly2":
        return QPoly2([[c * _frac(other) for c in row] for row in self.grid])

    __rmul__ = __mul__

    def eval(self, x, y) -> Fraction:
        """Evaluate exactly at a rational point, by ``eval_grid`` over the
        lcm of the coefficient denominators."""
        d = lcm(*(c.denominator for row in self.grid for c in row))
        scaled = [[c.numerator * (d // c.denominator) for c in row] for row in self.grid]
        return eval_grid(scaled, d, x, y)

    def is_symmetric(self) -> bool:
        """True iff the coefficient grid equals its transpose."""
        n = max(len(self.grid), max((len(r) for r in self.grid), default=0))
        return all(
            self.coefficient(i, j) == self.coefficient(j, i)
            for i in range(n)
            for j in range(i + 1, n)
        )

    def transpose(self) -> "QPoly2":
        nr = len(self.grid)
        nc = max((len(r) for r in self.grid), default=0)
        return QPoly2([[self.coefficient(i, j) for i in range(nr)] for j in range(nc)])

    def to_strings(self) -> list[list[str]]:
        return [[format_rational(c) for c in row] for row in self.grid]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "QPoly2":
        return cls([[parse_rational(s) for s in row] for row in rows])

    def __repr__(self) -> str:
        return f"QPoly2({self.to_strings()})"
