"""Determinant-like functionals built on permutation sums.

Everything is exact: matrices are scaled to integers up front (the sums are
homogeneous of degree n in the entries), permutation sums accumulate plain
integers grouped by cycle statistic, and rationals only appear when the
accumulated counts are combined at the end.

Every permutation sum of an entry product runs through one zero-pruning
cycle walk, ``class_sums``; naive enumeration lives only in the tests, as
the oracle of each path.  Every two-parameter sum is ``adet2_poly`` on the
cycle-class tables, under the one cap ``ADET2_CAP``: the structured value
is ``adet2_poly`` of P(g) 1_mu, and the wreath average is the
two-parameter determinant of the inflation at beta = -1/k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Sequence

from .errors import SizeCapExceeded
from .matrices import PermutedBlockOnes, RatMatrix, inflate, scaled_int_rows
from .perms import Perm, _embed, _trans_len, perm_of_cycle_type, perm_tuples
from .polynomials import QPoly, QPoly2

ADET_CAP = 9
ADET2_CAP = 8
SUBGROUP_AVG_CAP = 7
DET_POWER_TERM_CAP = 10**7


def class_sums(rows: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """Integer sums of the products prod_j rows[p(j)][j] over the
    permutations p of each cycle type.

    Each p is built cycle by cycle: a cycle opens at the smallest letter not
    yet placed and follows only nonzero entries of the current column, so a
    zero entry prunes every permutation through it.  Letters are bits of the
    mask ``free``; the running key adds (n+1)^(L-1) per closed cycle of
    length L, so its base-(n+1) digits are the multiplicities of the lengths.
    """
    n = len(rows)
    base = n + 1
    columns = [tuple(row[c] for row in rows) for c in range(n)]
    nonzero = [sum(1 << r for r, v in enumerate(col) if v) for col in columns]
    by_key: dict[int, int] = {}

    def open_cycle(free: int, key: int, prod: int) -> None:
        if not free:
            by_key[key] = by_key.get(key, 0) + prod
            return
        start = free & -free
        extend(free ^ start, start, start.bit_length() - 1, 1, key, prod)

    def extend(free: int, start: int, col: int, unit: int, key: int, prod: int) -> None:
        # col ends the open cycle, which began at the letter bit `start`;
        # unit is (n+1)^(L-1) for the cycle's length L so far
        column = columns[col]
        if nonzero[col] & start:
            open_cycle(free, key + unit, prod * column[start.bit_length() - 1])
        unit *= base
        rest = free & nonzero[col]
        while rest:
            bit = rest & -rest
            rest ^= bit
            r = bit.bit_length() - 1
            extend(free ^ bit, start, r, unit, key, prod * column[r])

    open_cycle((1 << n) - 1, 0, 1)
    lengths = range(n, 0, -1)
    return {
        tuple(ln for ln in lengths for _ in range(key // base ** (ln - 1) % base)): total
        for key, total in by_key.items()
    }


@cache
def _trans_lens(n: int) -> bytes:
    """Transposition lengths of perm_tuples(n), in enumeration order."""
    return bytes(_trans_len(p) for p in perm_tuples(n))


@cache
def class_table(rho: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """K[i][j] = #{sigma in S_n : len(g sigma) = i, len(sigma) = j} for any
    g of cycle type rho.

    Conjugating g by c relabels sigma as c sigma c^-1 without changing
    either length, so the table depends only on rho.
    """
    n = sum(rho)
    # g0[v] = g(v) - 1: walks the cycles of g sigma from 1-based images of sigma
    g0 = (0,) + tuple(v - 1 for v in perm_of_cycle_type(rho, n).images)
    flat = [0] * (n * n)
    letters = range(n)
    for p, len_sigma in zip(perm_tuples(n), _trans_lens(n)):
        seen = bytearray(n)
        cycles = 0
        for i in letters:
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = 1
                    j = g0[p[j]]
        flat[(n - cycles) * n + len_sigma] += 1
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def adet_poly(a: RatMatrix) -> QPoly:
    """The alpha-determinant as an exact polynomial: coefficient d collects
    the permutations at transposition length d."""
    n = a.require_square()
    if n > ADET_CAP:
        raise SizeCapExceeded(f"n={n} exceeds alpha-determinant cap {ADET_CAP}")
    rows, scale = scaled_int_rows(a)
    acc = [0] * (n + 1)
    for rho, total in class_sums(rows).items():
        acc[n - len(rho)] += total
    denom = scale**n
    return QPoly(Fraction(v, denom) for v in acc)


def adet_at(a: RatMatrix, x: Fraction) -> Fraction:
    """The alpha-determinant evaluated at a rational parameter value."""
    return adet_poly(a).eval(x)


def adet2_poly(a: RatMatrix) -> QPoly2:
    """Two-parameter deformation: double sum over permutation pairs with
    entry products prod_i a[tau(i), sigma(i)], exponents (len tau, len sigma).

    With pi = tau sigma^-1 the entry product is prod_j a[pi(j), j], so the
    double sum is the sum over pi of that product times the class table of
    pi's cycle type.
    """
    n = a.require_square()
    if n > ADET2_CAP:
        raise SizeCapExceeded(f"n={n} exceeds two-parameter cap {ADET2_CAP}")
    if n == 0:
        return QPoly2([[1]])
    rows, scale = scaled_int_rows(a)
    joint = [[0] * n for _ in range(n)]
    for rho, w in class_sums(rows).items():
        for row, counts in zip(joint, class_table(rho)):
            for j, c in enumerate(counts):
                row[j] += w * c
    denom = scale**n
    return QPoly2([[Fraction(v, denom) for v in row] for row in joint])


def adet2_structured(s: PermutedBlockOnes, x: Fraction, y: Fraction) -> Fraction:
    """Two-parameter value on a row-permuted block-ones matrix.

    The entry product of a pair (tau, sigma) is 1 exactly when
    tau sigma^-1 = g h with h in S_mu, and 0 otherwise; the nonzero entry
    products of P(g) 1_mu are exactly these translates, so ``adet2_poly``
    of the matrix sums the class tables of g h over S_mu.
    """
    # before materializing, so a huge g is refused without an n x n matrix
    if s.g.n > ADET2_CAP:
        raise SizeCapExceeded(f"n={s.g.n} exceeds two-parameter cap {ADET2_CAP}")
    return adet2_poly(s.materialize()).eval(x, y)


def wrdet(a: RatMatrix, k: int) -> Fraction:
    """k-wreath determinant of a kn x n matrix: the alpha-determinant of
    the k-fold column inflation, evaluated at -1/k."""
    return adet_at(inflate(a, k), Fraction(-1, k))


def wreath_average_poly(a: RatMatrix, k: int) -> QPoly:
    """Signed average over all column permutations of the inflated matrix:
    sum over sigma in S_kn of (-1/k)^len(sigma) * adet_poly(inflate(a) P(sigma)).

    That is the two-parameter determinant of the inflation at beta = -1/k:
    the pair (tau, sigma) contributes alpha^len(tau) (-1/k)^len(sigma) times
    the entry product of tau on the column-permuted inflation.
    """
    b = inflate(a, k)
    beta = Fraction(-1, k)
    return QPoly(QPoly(row).eval(beta) for row in adet2_poly(b).grid)


def subgroup_avg_adet(a: RatMatrix, k: int) -> QPoly:
    """Sum of adet_poly over the column permutations by S_k embedded in S_n
    fixing the letters k+1..n."""
    n = a.require_square()
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if n > SUBGROUP_AVG_CAP:
        raise SizeCapExceeded(f"n={n} exceeds subgroup-average cap {SUBGROUP_AVG_CAP}")
    total = QPoly.zero()
    for s in perm_tuples(k):
        sigma = Perm(_embed(s, n))
        total = total + adet_poly(a.permute_columns(sigma))
    return total


def det_power_coeff(profile, k: int) -> int:
    """Coefficient of the monomial prod x_ij^m_ij in the k-th power of the
    determinant of an n x n matrix of indeterminates, by expanding over
    k-tuples of permutations with sign products."""
    n = profile.n
    nperms = factorial(n)
    if nperms**k > DET_POWER_TERM_CAP:
        raise SizeCapExceeded(f"(n!)^k = {nperms**k} exceeds {DET_POWER_TERM_CAP}")
    target = profile.m
    perms = list(perm_tuples(n))
    signs = [-1 if _trans_len(p) % 2 else 1 for p in perms]

    total = 0
    used = [[0] * n for _ in range(n)]

    def extend(t: int, sign: int) -> None:
        nonlocal total
        if t == k:
            total += sign
            return
        for p, s in zip(perms, signs):
            placed = 0
            for i in range(n):
                j = p[i] - 1
                if used[i][j] >= target[i][j]:
                    break
                used[i][j] += 1
                placed += 1
            if placed == n:
                extend(t + 1, sign * s)
            for i in range(placed):
                used[i][p[i] - 1] -= 1

    extend(0, 1)
    return total
