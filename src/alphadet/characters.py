"""Irreducible characters of the symmetric group and the functionals built
from them: Young-subgroup averages, immanants and the character-basis
expansion of the alpha power weight.

Characters are evaluated by the Murnaghan-Nakayama border-strip recursion
on the first-column hook lengths of the shape (its beta numbers), stored
as the set bits of one int: a shape of l parts has beta numbers
lambda_i + l - i, i = 1..l.  A border strip of size t is a set bit b whose
bit b - t is clear; removing it moves that bit down by t, and its height
is the number of set bits strictly between.  A strip that empties the
last row leaves a zero part, bit 0 set, which is shifted out, so each
partition has one beta set, and the recursion's memo one entry per
(partition, classes left).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterable, Sequence

from .adet import _check_adet_cap, class_sums, translate_class_sums
from .errors import IdentityViolation, ShapeWeightMismatch, SizeCapExceeded
from .matrices import RatMatrix, scaled_int_rows
from .partitions import (
    check_partition,
    content_poly,
    num_standard_tableaux,
    partitions_of,
)
from .perms import Perm, young_subgroup_order
from .polynomials import QPoly

CHARACTER_CAP = 12


@cache
def _mn(shape: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """The character of ``shape`` at the class of cycle type ``rho``, both
    valid partitions of one n.  Memoized as asked, so that a repeated
    question is one lookup, over the recursion's memo of beta sets."""
    betas = 0
    for i, part in enumerate(reversed(shape)):
        betas |= 1 << part + i
    return _strips(betas, rho)


@cache
def _strips(betas: int, rho: tuple[int, ...]) -> int:
    """The Murnaghan-Nakayama sum over the border strips of size rho[0] of
    the shape with beta set betas, removing the rest of rho recursively."""
    if not rho:
        return 1
    t, rest = rho[0], rho[1:]
    total = 0
    movable = betas >> t << t & ~(betas << t)  # b >= t in betas, b - t not
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        sub = betas ^ (1 << b) ^ (1 << b - t)
        if b == t:  # shift out the zero parts
            sub >>= (~sub & sub + 1).bit_length() - 1
        term = _strips(sub, rest)
        if (betas >> b - t & (1 << t) - 1).bit_count() & 1:
            total -= term
        else:
            total += term
    return total


def character(shape: Sequence[int], rho: Sequence[int]) -> int:
    """Irreducible character of S_n indexed by ``shape``, evaluated on the
    conjugacy class of cycle type ``rho``."""
    shape = check_partition(shape)
    rho = check_partition(rho)
    if sum(shape) != sum(rho):
        raise ShapeWeightMismatch(f"|{shape}| != |{rho}|")
    if sum(shape) > CHARACTER_CAP:
        raise SizeCapExceeded(f"|shape| > {CHARACTER_CAP}")
    return _mn(shape, rho)


def subgroup_averaged_character(
    shape: Sequence[int], mu: Sequence[int], g: Perm
) -> Fraction:
    """Average of the ``shape`` character over the right translates of g by
    the Young subgroup of mu: (1/mu!) * sum over tau in S_mu of chi(g tau).

    The sum is one class-sum walk of P(g) 1_mu by letter type, which never
    enumerates S_mu, so any mu is admitted and only n is capped."""
    shape = check_partition(shape)
    mu = check_partition(mu)
    if sum(mu) != g.n or sum(shape) != g.n:
        raise ShapeWeightMismatch("shape, mu and permutation sizes must agree")
    if g.n > CHARACTER_CAP:  # before the walk
        raise SizeCapExceeded(f"|shape| > {CHARACTER_CAP}")
    # shape and the class sums' cycle types are valid partitions of n already
    return Fraction(_character_sum(shape, translate_class_sums(g, mu)), young_subgroup_order(mu))


def _character_sum(shape: tuple[int, ...], sums: Iterable[tuple[tuple[int, ...], int]]) -> int:
    """sum_rho chi^shape(rho) w_rho over the (rho, w_rho) class sums, for a
    valid shape and cycle types of its size: the character average's
    numerator, read by ``subgroup_averaged_character`` and zsf's case."""
    return sum(_mn(shape, rho) * w for rho, w in sums)


def immanant(shape: Sequence[int], a: RatMatrix) -> Fraction:
    """Character-weighted permutation sum: sum over sigma in S_n of
    chi(sigma) * prod_i a[sigma(i), i]."""
    n = a.require_square()
    shape = check_partition(shape)
    if sum(shape) != n:
        raise ShapeWeightMismatch(f"|{tuple(shape)}| != {n}")
    _check_adet_cap(n)  # the dense walk adet_poly runs, under its cap
    rows, scale = scaled_int_rows(a)
    by_type = class_sums(rows)
    total = sum(character(shape, ct) * acc for ct, acc in by_type.items())
    return Fraction(total, scale**n)


def alpha_power_expansion(n: int) -> dict[tuple[int, ...], QPoly]:
    """Character-basis expansion of the weight sigma -> a^(transposition
    length): builds, per cycle type, the polynomial
    (1/n!) * sum over shapes of f^shape * content_poly(shape) * chi(shape)
    and checks it equals the monomial a^(n - number of parts), the weight of
    every permutation of that cycle type.  Both sides depend on a permutation
    only through its cycle type, so the p(n) checks cover all of S_n and no
    permutation is enumerated.

    Raises IdentityViolation with the offending cycle type if any check
    fails; returns the verified table otherwise.
    """
    shapes = partitions_of(n)
    f = {lam: num_standard_tableaux(lam) for lam in shapes}
    fpoly = {lam: content_poly(lam) for lam in shapes}
    inv_order = Fraction(1, factorial(n))
    table: dict[tuple[int, ...], QPoly] = {}
    for cls in shapes:
        acc = QPoly.zero()
        for lam in shapes:
            acc = acc + (f[lam] * character(lam, cls) * inv_order) * fpoly[lam]
        if acc != QPoly.monomial(n - len(cls)):
            raise IdentityViolation(
                f"expansion mismatch at cycle type {cls}", witness={"cycle_type": cls}
            )
        table[cls] = acc
    return table
