"""Determinant-like functionals built on permutation sums.

Everything is exact and stays in integers until one division at the end.
A matrix is scaled to integer rows over a common denominator L (the sums
are homogeneous of degree n in the entries, so the result is over L^n);
permutation sums accumulate plain integers grouped by cycle statistic; and
a value at a rational parameter is the integer coefficients evaluated by
``polynomials.eval_grid``, or summed at that parameter from the start,
either way one ``Fraction`` built from an integer numerator and
denominator.  Only the polynomial-valued results turn their
integer coefficients into Fractions.

Permutation sums of entry products are grouped by cycle type by two
kernels, and no permutation is enumerated; naive enumeration lives only in
the tests, as their oracle.  ``class_sums`` takes any integer matrix: a DP
over letter sets that splits off the cycle through the least letter, with
single-cycle sums from a Held-Karp table grown along nonzero entries only,
so zeros prune it.  ``_typed_class_sums`` takes the row-permuted block-ones
matrix P(g) 1_mu as the mu-profile of g, ``perms.profile_cells``, whose
nonzero cells are letter types whose letters are interchangeable: the same
split, over the counts of the letters of each type left, so the walk no
longer grows with the orderings inside a block.  It serves every structured
value, one- and two-parameter, the subgroup-averaged character, through
``translate_class_sums``, and the block profiles of the inflation;
``class_sums`` serves the dense values, and is the typed kernel's oracle.
Every two-parameter sum reads the cycle-class tables of S_n by class sums,
and one builder, ``_cut_and_join``, makes them all at once by Jucys-Murphy
cut-and-join, without enumerating S_n: the coefficients of the homogeneous
central product prod_m (x + q J_m)(y + s J_m), one per cycle type, with the
types coded as class-sum keys.  One memoized reader,
``_tables(n, alpha, beta)``, runs it with each parameter either substituted
or kept free as a packed power of two: ``adet2_poly`` reads the full
(n+1) x (n+1) grids, the wreath average rows in alpha at beta = -1/k, and
the structured value and Stanley's sum one integer per type at their point,
with no grid built.  One weigher, ``_weigh``, sums them by class sums.  By
sum_ij (sum_rho w_rho K_rho[i][j]) alpha^i beta^j
= sum_rho w_rho (sum_ij K_rho[i][j] alpha^i beta^j) these are the same
sums, regrouped.  The walks and the tables of this module are bounded by
``ADET_CAP``.  Two sums have their own bounds: ``det_power_coeff`` has no
size cap at k <= 2, and at k >= 3 ``EXHAUSTIVE_CAP`` bounds n and
``DET_POWER_TERM_CAP`` its residual tests; ``subgroup_avg_adet`` is bounded
by ``EXHAUSTIVE_CAP``, besides its walks.  The wreath average is the
two-parameter determinant of the inflation at beta = -1/k.  The wreath
determinant is the alpha-determinant of the same inflation at -1/k, so
both sides of the main identity are read from the inflation's class sums,
each by one integer helper: ``_wreath_average_counts`` weighs the table
rows at beta = -1/k, and ``_wrdet_numerator`` signs and scales each class
sum.  ``wreath_average_poly`` and ``wrdet`` wrap them, and the theorem
suite reads both from one sum per trial and compares integers; the sum
itself is not memoized.  The inflation is unchanged by the column
permutations inside S_k^n, so that sum regroups by block profile, the
n x n count of the rows of each row block that pick each column block: a
weight read from the matrix times the class sums of any 0/1 selection of
that profile.  Those class sums are one per orbit of profiles under
relabeling the blocks and transposing, so the weights are added up per
orbit first, and each orbit's total weighs its class sums once.  They are
the class sums of P(g) 1_(k^n) too, for every g of a profile in the orbit,
so one memo of (k, n), ``_orbit_slots``, keeps them for both readers, the
inflation's sum and ``translate_class_sums`` at a rectangular mu, in one
slot per orbit, keyed by the profile's flat cells: each orbit is walked by
letter type once per process.  The same memo lists the profiles for the
inflation's sum, grouped by orbit, once per (k, n).  ``class_sums`` walks
the inflation only at k = 1, where it is the matrix itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import compress
from math import factorial, isqrt
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import IdentityViolation, SizeCapExceeded
from .matrices import PermutedBlockOnes, RatMatrix, require_inflatable, scaled_int_rows
from .partitions import _partitions
from .perms import (
    EXHAUSTIVE_CAP,
    Perm,
    _embed,
    _rows_within,
    _trans_len,
    block_profiles,
    perm_tuples,
    profile_cells,
)
from .polynomials import QPoly, QPoly2, eval_grid

ADET_CAP = 9
DET_POWER_TERM_CAP = 10**7


def class_sums(rows: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """Integer sums of the products prod_j rows[p(j)][j] over the
    permutations p of each cycle type, keeping only nonzero totals.

    A permutation of a letter set S splits into the cycle through min S and
    a permutation of the rest, so with cycle[T] the summed weight of the
    single cycles on T,
        sums[S] = sum over T with min S in T, T within S, of cycle[T] * sums[S - T],
    where the cycle's length shifts the key.  sums is filled top-down from
    the full set, so only the sets that nonzero cycles leave over are
    visited.  The cycles rooted at r come from a Held-Karp table over
    (path letters, last letter) that grows paths from r through larger
    letters along nonzero entries only, built the first time a set with
    least letter r is visited.  A zero entry thus prunes every cycle through
    it: past reading the entries, a permutation matrix costs O(n) steps and
    a dense one about 2^n n^2 for the tables and 4^n / 12 subset tests for
    the split, not n!.  Letters are bits; a key adds (n+1)^(L-1) per cycle
    of length L, so its base-(n+1) digits are the multiplicities of the
    lengths.
    """
    columns = list(zip(*rows))
    nonzero = [sum(1 << r for r, v in enumerate(col) if v) for col in columns]
    n = len(columns)
    units = _key_units(n)
    rooted: dict[int, list[tuple[int, int, int]]] = {}

    def cycles_at(root: int) -> list[tuple[int, int, int]]:
        # (letter set, summed weight, key unit) of every letter set whose
        # single cycles rooted at root weigh a nonzero total
        found = []
        low = 1 << root
        above = ~(2 * low - 1)
        layer = {low: {root: 1}}  # letter set -> last letter -> summed path weight
        while layer:
            grown_layer: dict[int, dict[int, int]] = {}
            for mask, ends in layer.items():
                fresh = above & ~mask
                total = 0
                for last, weight in ends.items():
                    column = columns[last]
                    if nonzero[last] & low:
                        total += weight * column[root]
                    rest = nonzero[last] & fresh
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        r = bit.bit_length() - 1
                        grown = grown_layer.get(mask | bit)
                        if grown is None:
                            grown = grown_layer[mask | bit] = {}
                        grown[r] = grown.get(r, 0) + weight * column[r]
                if total:
                    found.append((mask, total, units[mask.bit_count()]))
            layer = grown_layer
        return found

    sums: dict[int, dict[int, int]] = {0: {0: 1}}

    def sums_of(s: int) -> dict[int, int]:
        acc = sums.get(s)
        if acc is None:
            acc = sums[s] = {}
            root = (s & -s).bit_length() - 1
            found = rooted.get(root)
            if found is None:
                found = rooted[root] = cycles_at(root)
            for t, weight, unit in found:
                if t & ~s:
                    continue
                for key, v in sums_of(s ^ t).items():
                    acc[key + unit] = acc.get(key + unit, 0) + weight * v
        return acc

    top = sums_of((1 << n) - 1)
    del sums_of  # it refers to itself: free the memo now, not at a collection
    return {_cycle_type(key, n): total for key, total in top.items() if total}


@cache
def _key_units(n: int) -> tuple[int, ...]:
    """units[L] = (n+1)^(L-1), what a cycle of length L adds to a class-sum key."""
    return (0,) + tuple((n + 1) ** k for k in range(n))


@cache
def _cycle_type(key: int, n: int) -> tuple[int, ...]:
    """The cycle type whose base-(n+1) key digit L-1 counts its L-cycles."""
    base = n + 1
    return tuple(ln for ln in range(n, 0, -1) for _ in range(key // base ** (ln - 1) % base))


def _cut_and_join(n: int, x: int, q: int, y: int, s: int) -> dict[tuple[int, ...], int]:
    """For each cycle type rho of S_n, the coefficient of any g of type rho
    in the homogeneous central product P_n = prod_{m=1..n} (x + q J_m)(y + s J_m)
    of the Jucys-Murphy elements J_m = sum_{i<m} (i m), for integers x, q, y, s.

    With c = n - len the number of cycles, prod_m (x + q J_m) is
    sum_sigma x^c(sigma) q^len(sigma) sigma, so the coefficient of g is
    sum over tau sigma = g of x^c(tau) q^len(tau) y^c(sigma) s^len(sigma).
    P_t is central in S_t, a function of cycle type.  Multiplying it by
    (y + s J_{t+1}), then by (x + q J_{t+1}), gives values W, then V, on
    marked types (rest, L), where L is the length of the cycle through the
    letter t+1:
        W(rest, 1) = y P_t(rest),  W(rest, L) = s P_t(rest with L - 1) for L >= 2,
        V(rest, L) = x W(rest, L) + q (the W of each cut of the marked cycle
                     into a cycle of c and a marked one of L - c letters,
                     c < L, and of each join of one of the rest's m-cycles
                     to it, in m ways).
    P_{t+1}(type) is V at any marking of the type, and all markings must
    agree.  No permutation is enumerated and no character is used.

    Cycle types are keys as in ``class_sums``: an L-cycle adds
    ``_key_units(n)[L]``, so adding or dropping a part is adding or
    subtracting its unit.
    """
    units = _key_units(n)
    xy, qs, xs_qy = x * y, q * s, x * s + q * y
    prev = {0: 1}
    for t in range(1, n + 1):
        current = {}
        for rho in _partitions(t):
            parts: dict[int, int] = {}  # part -> multiplicity
            key = 0
            for part in rho:
                parts[part] = parts.get(part, 0) + 1
                key += units[part]
            first = None
            for length in parts:
                rest = key - units[length]
                # the s-weighed terms: cuts leaving a marked cycle of 2 or more
                # letters, and joins
                moved = 0
                for cut in range(1, length - 1):
                    moved += prev[rest + units[cut] + units[length - 1 - cut]]
                for m, mult in parts.items():
                    mult -= m == length  # the multiplicity of m in rest
                    if mult:
                        moved += mult * m * prev[rest - units[m] + units[length + m - 1]]
                if length == 1:
                    v = xy * prev[rest] + qs * moved
                else:  # x W plus the cut that leaves the marked letter fixed
                    v = xs_qy * prev[rest + units[length - 1]] + qs * moved
                if first is None:
                    first = v
                elif v != first:
                    raise IdentityViolation(
                        f"the markings of cycle type {rho} in S_{t} disagree",
                        witness={"type": rho},
                    )
            current[key] = first
        prev = current
    return {_cycle_type(key, n): v for key, v in prev.items()}


@lru_cache(maxsize=1)
def _tables(
    n: int, alpha: Fraction | None, beta: Fraction | None
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
    """(grids, denom): for each cycle type rho of S_n, the class table
    K_rho[i][j] = #{sigma in S_n : len(g sigma) = i, len(sigma) = j}, for any
    g of type rho, with every parameter given as a Fraction substituted and
    every parameter given as None kept free.  grids[rho] lists the integer
    coefficients of the free monomials alpha^i beta^j, i, j = 0..n, in
    row-major (i, j) order over the common denominator denom: (n+1)^2 of
    them with both free, n + 1 with one, one at a point.

    prod_m (a2 + a1 J_m) = a2^n sum_sigma alpha^len(sigma) sigma for
    alpha = a1/a2, so a given alpha is x = a2, q = a1 of ``_cut_and_join``,
    a given beta = b1/b2 is y = b2, s = b1, and denom = (a2 b2)^n.  A free
    parameter is packed into one integer with q or s = 1: beta as y = 2^w
    and alpha as x = 2^(w nj), nj the number of beta's digits, so the
    coefficient of alpha^i beta^j is the base-2^w digit (n-i) nj + (n-j).
    Each coefficient is at most n! max(|a1|, a2)^n max(|b1|, b2)^n in
    absolute value, so w is one bit longer than that bound, and the digits
    are read signed, from the low end, as a negative beta makes them
    negative.  The cap refuses n first, and the memo keeps the last
    reading: a suite reads one.
    """
    _check_adet_cap(n)
    a1, a2 = (1, 1) if alpha is None else (alpha.numerator, alpha.denominator)
    b1, b2 = (1, 1) if beta is None else (beta.numerator, beta.denominator)
    w = (factorial(n) * max(abs(a1), a2) ** n * max(abs(b1), b2) ** n).bit_length() + 1
    ni, nj = (n + 1 if p is None else 1 for p in (alpha, beta))
    x, q = (1 << w * nj, 1) if alpha is None else (a2, a1)
    y, s = (1 << w, 1) if beta is None else (b2, b1)
    half, mask = 1 << w - 1, (1 << w) - 1
    grids = {}
    for rho, v in _cut_and_join(n, x, q, y, s).items():
        digits = []
        for _ in range(ni * nj):
            d = ((v + half) & mask) - half
            digits.append(d)
            v = (v - d) >> w
        grids[rho] = tuple(reversed(digits))
    return grids, (a2 * b2) ** n


def translate_class_sums(g: Perm, mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(rho, #{h in S_mu : g h has cycle type rho}) pairs: the class sums of
    P(g) 1_mu, whose nonzero entry products are exactly the translates g h.

    They are walked by letter type from the mu-profile of g,
    ``profile_cells(g, mu)``, which depends on g only through its double
    coset S_mu g S_mu; no n x n rows are built.  At a rectangular
    mu = (k^n) with k >= 2 the walk is kept in the slot that
    ``_orbit_slots(k, n)`` keys by that same profile, so each orbit of
    profiles is walked once however many g meet it, and a theorem run of
    the same (k, n) shares the walks.  At k = 1 the orbits are the
    conjugacy classes of S_n and every g is its own walk, so mu = 1^n, like
    any mu that is not rectangular, walks directly.  An ``omega`` case
    reads the sums once and weighs them twice.
    """
    return _cells_class_sums(profile_cells(g, mu), mu)


def _cells_class_sums(
    cells: tuple[int, ...], mu: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``translate_class_sums`` of any g whose mu-profile is cells, for a
    caller that holds the cells already: the orbit's slot at a rectangular
    mu with k >= 2, and a direct walk otherwise.  Not memoized itself."""
    k = mu[0] if mu else 1
    if k == 1 or any(part != k for part in mu):
        return tuple(_typed_class_sums(cells).items())
    slot = _orbit_slots(k, len(mu))[cells]
    if slot[0] is None:
        slot[0] = tuple(_typed_class_sums(cells).items())
    return slot[0]


class _OrbitSlots(dict):
    """The block profiles of one (k, n), as ``profile_cells`` gives them,
    each mapped to a one-item slot that holds its class sums once walked and
    None before; see ``_orbit_slots``.  A profile read for the first time is
    grouped with its whole orbit under one new slot, except the memo's first
    profile, which is grouped only when a second one is read: a run that
    reads one profile of (k, n), as ``omega`` does at each weight, groups
    nothing.  ``listing`` groups every orbit, the first time the inflation's
    sum reads it."""

    def __init__(self, k: int, n: int):
        super().__init__()
        self.k, self.n = k, n
        self.alone: tuple[int, ...] | None = None  # the first profile, not yet grouped

    @cached_property
    def moves(self) -> tuple[itemgetter, ...]:
        """Index maps of the generators: the transposition, and the swaps of
        blocks i and i + 1 in the rows and the columns together."""
        n = self.n
        cells = range(n * n)
        moves = []
        if n > 1:
            moves.append(itemgetter(*(c % n * n + c // n for c in cells)))
        for i in range(n - 1):
            swap = list(range(n))
            swap[i], swap[i + 1] = i + 1, i
            moves.append(itemgetter(*(swap[c // n] * n + swap[c % n] for c in cells)))
        return tuple(moves)

    @cached_property
    def listing(self) -> tuple[tuple[list, tuple[int, ...], list[tuple[int, ...]]], ...]:
        """(slot, cells, packed) for each orbit, in the order of its first
        profile in ``block_profiles(k, n)``: its slot, that profile's cells,
        and every member's rows, each sliced from its cells and packed as a
        block monomial, the row's entries as base-(k + 1) digits, lowest
        block first, which is how ``_inflation_class_sums`` keys the
        coefficients that weigh a matrix; each distinct row is packed once."""
        k, n = self.k, self.n
        packed = {
            row: sum(v * (k + 1) ** b for b, v in enumerate(row))
            for row in _rows_within(k, (k,) * n)
        }
        starts = [i * n for i in range(n)]  # no rows, and no step, at n = 0
        orbits: dict[int, tuple] = {}  # id of a slot -> its orbit's entry
        for cells in block_profiles(k, n):
            slot = self[cells]
            orbit = orbits.get(id(slot))
            if orbit is None:
                orbit = orbits[id(slot)] = (slot, cells, [])
            orbit[2].append(tuple([packed[cells[i : i + n]] for i in starts]))
        return tuple(orbits.values())

    def __missing__(self, cells: tuple[int, ...]) -> list:
        if not self:
            self.alone = cells
            slot = self[cells] = [None]
            return slot
        if self.alone is not None:
            first, self.alone = self.alone, None
            self._group(first, self[first])
            if cells in self:
                return self[cells]
        slot = [None]
        self._group(cells, slot)
        return slot

    def _group(self, cells: tuple[int, ...], slot: list) -> None:
        self[cells] = slot
        orbit = [cells]
        while orbit:
            m = orbit.pop()
            for move in self.moves:
                h = move(m)
                if h not in self:
                    self[h] = slot
                    orbit.append(h)


@lru_cache(maxsize=1)
def _orbit_slots(k: int, n: int) -> _OrbitSlots:
    """The one memo of the block profiles of (k, n): the class sums of each
    orbit of profiles, shared by ``translate_class_sums`` at mu = (k^n) and
    the inflation's sum by profile, and the listing that the sum reads.
    Relabeling the blocks conjugates the permutations of a profile by a
    permutation that keeps S_k^n, permuting the rows and columns of the
    profile together, and inverting them transposes it; neither changes a
    cycle type, so the class sums are constant on the orbit that the swaps
    of adjacent blocks and the transposition generate, and its profiles
    share one slot.  Orbits are grouped as their profiles are read (see
    ``_OrbitSlots``), so a run groups only the orbits that it meets.  The
    memo keeps the last (k, n), as ``_tables`` keeps a suite's reading.
    """
    return _OrbitSlots(k, n)


@cache
def _falling(n: int) -> tuple[tuple[int, ...], ...]:
    """ff[m][j] = m (m - 1) ... (m - j + 1), the ordered picks of j of m
    letters, for 0 <= j <= m <= n."""
    return tuple(
        tuple(factorial(m) // factorial(m - j) for j in range(m + 1)) for m in range(n + 1)
    )


def _guard(fields: int, width: int) -> int:
    """The top bit of each of the given number of bit fields of the given
    width: a repunit in base 2^width, shifted up."""
    return ((1 << width * fields) - 1) // ((1 << width) - 1) << width - 1


def _type_cycles(
    counts: Sequence[tuple[tuple[int, int], int]],
    follow: dict[int, list[tuple[int, int, int]]],
    full: int,
    width: int,
    root: int,
) -> list[tuple[int, int, int]]:
    """(c, ways, length) for each count vector c of the single cycles of
    P(g) 1_mu through one letter of type root that use no type below it;
    ways is the number of type sequences the cycle's other letters can
    follow.  c and the type counts full are packed into fields of the given
    width whose top bit is a guard, and follow[b] lists (t, a, unit) for the
    types t = (a, b), from the top type down.

    After a letter of type (a, b) a cycle goes on to a letter of a type
    (a', b') with b' = a, so the walk is layered by length and keyed by the
    count vector and a, the block that the next type must have as b.  It
    grows only within the type counts and closes when a is the root's b.
    """
    guard = _guard(len(counts), width)
    bound = full | guard
    (head, close), _ = counts[root]
    found = []
    layer = {1 << width * root: {head: 1}}  # count vector -> next block -> ways
    length = 1
    while layer:
        grown_layer: dict[int, dict[int, int]] = {}
        for c, ends in layer.items():
            total = 0
            for x, ways in ends.items():
                if x == close:
                    total += ways
                for t, a, unit in follow.get(x, ()):
                    if t < root:
                        break
                    grown = c + unit
                    if (bound - grown) & guard != guard:
                        continue  # more letters of type t than there are
                    grown_ends = grown_layer.get(grown)
                    if grown_ends is None:
                        grown_layer[grown] = {a: ways}
                    else:
                        grown_ends[a] = grown_ends.get(a, 0) + ways
            if total:
                found.append((c, total, length))
        layer = grown_layer
        length += 1
    return found


def _typed_class_sums(cells: Sequence[int]) -> dict[tuple[int, ...], int]:
    """``class_sums`` of P(g) 1_mu, walked by letter type from the
    mu-profile of g, ``profile_cells(g, mu)``.

    The nonzero cells (a, b) of the profile are the letter types, with
    counts M_ab; they are the types of P(g^-1) 1_mu, whose letter of type
    (a, b) lies in column block a and marks row block b.  Its class sums
    count the g^-1 h, h in S_mu, by cycle type, and those of P(g) 1_mu count
    the g h: these agree, since g^-1 h is the inverse of h^-1 g, which is
    conjugate to g h^-1, and h^-1 runs over S_mu too.

    A permutation has product 1 exactly when it sends each letter of a type
    (a, b) to a letter of a type (a', b') with b' = a, so the sums over the
    letters left depend only on how many of each type are left.  That
    residual count vector s is the state, packed into fields with a guard
    bit each, G, so that c <= s fieldwise is ((s | G) - c) & G == G and s - c
    is the residual.  As in ``class_sums``, s splits off the cycle through
    one letter of its least remaining type r.  A cycle of count vector c from
    ``_type_cycles`` picks its other letters in order, in
    prod_t ff(s_t - [t = r], c_t - [t = r]) ways, where ff is the falling
    factorial: the root's own letter is taken out of its count first.  Keys
    and their decoding are those of ``class_sums``.
    """
    ell = isqrt(len(cells))
    counts = [(divmod(c, ell), cells[c]) for c in compress(range(len(cells)), cells)]
    n = sum(cells)
    width = n.bit_length() + 1
    guard = _guard(len(counts), width)
    field = (1 << width - 1) - 1
    ff = _falling(n)
    units = _key_units(n)
    follow: dict[int, list[tuple[int, int, int]]] = {}  # grouped by block b
    full = 0
    for t in range(len(counts) - 1, -1, -1):
        (a, b), m = counts[t]
        full = full << width | m
        follow.setdefault(b, []).append((t, a, 1 << width * t))
    rooted: dict[int, list[tuple[int, int, int, list[tuple[int, int, int]]]]] = {}

    def cycles_at(root: int) -> list[tuple[int, int, int, list[tuple[int, int, int]]]]:
        # (c, ways, key unit, picks): picks holds (shift, c_t - [t = r], [t = r])
        # for each type whose falling factorial can exceed 1, ff(m, j) > 1
        # needing m >= 2
        weighed = 0
        for t in range(root, len(counts)):
            if counts[t][1] - (t == root) >= 2:
                weighed |= field << width * t
        found = []
        for c, ways, length in _type_cycles(counts, follow, full, width, root):
            picks = []
            rest = (c - (1 << width * root)) & weighed
            while rest:
                shift = (rest & -rest).bit_length() - 1
                shift -= shift % width
                need = rest >> shift & field
                rest -= need << shift
                picks.append((shift, need, int(shift == width * root)))
            found.append((c, ways, units[length], picks))
        return found

    sums: dict[int, dict[int, int]] = {0: {0: 1}}

    def sums_of(s: int) -> dict[int, int]:
        acc = sums.get(s)
        if acc is None:
            acc = sums[s] = {}
            root = ((s & -s).bit_length() - 1) // width
            found = rooted.get(root)
            if found is None:
                found = rooted[root] = cycles_at(root)
            top = s | guard
            for c, ways, unit, picks in found:
                if (top - c) & guard != guard:
                    continue
                for shift, need, taken in picks:
                    ways *= ff[(s >> shift & field) - taken][need]
                for key, v in sums_of(s - c).items():
                    acc[key + unit] = acc.get(key + unit, 0) + ways * v
        return acc

    top = sums_of(full)
    del sums_of  # as in class_sums
    return {_cycle_type(key, n): total for key, total in top.items()}


def _inflation_class_sums(
    a: RatMatrix, k: int
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """(pairs, denom): the class sums of inflate(a, k) scaled to integer rows
    over the common denominator denom.  k < 1 and a shape that is not kn x n
    are refused first, as ``inflate`` refuses them, and then the cap on kn,
    before any work.

    Row i of the inflation repeats row i of a, so a permutation's entry
    product picks, in each row i, an entry a_ib of the column block b that
    row i's column lies in, each block picked k times.  Grouped by the block
    profile M, M_rb the rows of row block r that pick b, that is
        class_sums(inflate(a, k)) = sum_M weight(M) w(M),
        weight(M) = prod_r [x^(M_r)] prod_(i in block r) sum_b a_ib x_b,
    with w(M) the class sums of any 0/1 selection of profile M.  w(M) is the
    same w_o for every M of one orbit o of ``_orbit_slots(k, n)``, so the
    sum is taken orbit first, sum_o W_o w_o with W_o = sum_(M in o) weight(M):
    the memo's listing gives each orbit's slot, one member's cells and every
    member's packed rows, the member weights are added up into W_o, and
    each orbit with W_o != 0 is weighed once, its w_o walked by letter type
    from those cells the first time the live memo meets it.  A block
    monomial is packed as in the listing, so extending it by x_b is one add
    of (k + 1)^b.  At k = 1 the inflation is a itself, which ``class_sums``
    walks directly.
    """
    require_inflatable(a, k)
    _check_adet_cap(a.rows)
    rows, scale = scaled_int_rows(a)
    denom = scale ** len(rows)
    if k == 1:
        return tuple(class_sums(rows).items()), denom
    n = a.cols
    units = [(k + 1) ** b for b in range(n)]
    # coefficients[r][v] = [x^v] prod_(i in block r) sum_b rows[i][b] x_b
    coefficients = []
    for r in range(n):
        poly = {0: 1}
        for row in rows[r * k : r * k + k]:
            grown: dict[int, int] = {}
            for v, c in poly.items():
                for unit, e in zip(units, row):
                    if e:
                        grown[v + unit] = grown.get(v + unit, 0) + c * e
            poly = grown
        coefficients.append(poly)
    total: dict[tuple[int, ...], int] = {}
    for slot, cells, members in _orbit_slots(k, n).listing:
        weight = 0  # W_o
        for packed in members:
            term = 1
            for poly, v in zip(coefficients, packed):
                term *= poly.get(v, 0)
            weight += term
        if not weight:
            continue  # the orbit's weights cancel
        w = slot[0]
        if w is None:
            w = slot[0] = tuple(_typed_class_sums(cells).items())
        for rho, v in w:
            total[rho] = total.get(rho, 0) + weight * v
    return tuple((rho, v) for rho, v in total.items() if v), denom


def _weigh(
    grids: dict[tuple[int, ...], tuple[int, ...]],
    sums: Iterable[tuple[tuple[int, ...], int]],
) -> list[int]:
    """The integer sum over (rho, w) in sums of w grids[rho], entrywise."""
    # every grid of one reading has the same length
    joint = [0] * len(next(iter(grids.values())))
    for rho, w in sums:
        for i, c in enumerate(grids[rho]):
            joint[i] += w * c
    return joint


def _check_adet_cap(n: int) -> None:
    if n > ADET_CAP:
        raise SizeCapExceeded(f"n={n} exceeds alpha-determinant cap {ADET_CAP}")


def _length_counts(sums: Iterable[tuple[tuple[int, ...], int]], n: int) -> list[int]:
    """Class sums of S_n folded by transposition length: entry d collects
    the cycle types rho with n - len(rho) = d."""
    counts = [0] * (n + 1)
    for rho, total in sums:
        counts[n - len(rho)] += total
    return counts


def _adet_counts(a: RatMatrix) -> tuple[list[int], int]:
    """(counts, denom) with the alpha-determinant sum_d counts[d] alpha^d / denom:
    counts[d] collects the integer-scaled permutation products at
    transposition length d."""
    n = a.require_square()
    _check_adet_cap(n)
    rows, scale = scaled_int_rows(a)
    return _length_counts(class_sums(rows).items(), n), scale**n


def adet_poly(a: RatMatrix) -> QPoly:
    """The alpha-determinant as an exact polynomial: coefficient d collects
    the permutations at transposition length d."""
    counts, denom = _adet_counts(a)
    return QPoly(Fraction(v, denom) for v in counts)


def adet_at(a: RatMatrix, x: Fraction) -> Fraction:
    """The alpha-determinant evaluated at a rational parameter value."""
    counts, denom = _adet_counts(a)
    return eval_grid([counts], denom, 0, x)  # one row: a polynomial in the second variable


def adet2_poly(a: RatMatrix) -> QPoly2:
    """Two-parameter deformation: double sum over permutation pairs with
    entry products prod_i a[tau(i), sigma(i)], exponents (len tau, len sigma).

    With pi = tau sigma^-1 the entry product is prod_j a[pi(j), j], so the
    double sum is the sum over pi of that product times the class table of
    pi's cycle type.
    """
    n = a.require_square()
    grids, _ = _tables(n, None, None)  # its cap refuses n before the walk
    rows, scale = scaled_int_rows(a)
    denom = scale**n
    joint = [Fraction(v, denom) for v in _weigh(grids, class_sums(rows).items())]
    return QPoly2([joint[i : i + n + 1] for i in range(0, len(joint), n + 1)])


def adet2_structured(s: PermutedBlockOnes, x: Fraction, y: Fraction) -> Fraction:
    """Two-parameter value on a row-permuted block-ones matrix.

    The entry product of a pair (tau, sigma) is 1 exactly when
    tau sigma^-1 = g h with h in S_mu, and 0 otherwise, so this is
    ``adet2_poly`` of P(g) 1_mu: the class tables of the translates g h.
    Only the point (x, y) is asked for, so each table is read as its one
    memoized value at (x, y), and the values are weighted by the class sums
    of the translates over one common denominator.
    """
    # its cap refuses a huge g before its mu-profile
    values, denom = _tables(s.g.n, Fraction(x), Fraction(y))
    (total,) = _weigh(values, translate_class_sums(s.g, tuple(s.mu)))
    return Fraction(total, denom)


def adet_structured(s: PermutedBlockOnes, x: Fraction) -> Fraction:
    """The alpha-determinant of a row-permuted block-ones matrix at x: the
    translates g h, h in S_mu, weighted by x^len(g h).  At mu = (k^n) and
    x = -1/k this is the k-wreath determinant of P(g) R for the column
    replicator R, since inflate(P(g) R, k) = P(g) 1_(k^n)."""
    n = s.g.n
    _check_adet_cap(n)
    counts = _length_counts(translate_class_sums(s.g, tuple(s.mu)), n)
    return eval_grid([counts], 1, 0, x)  # one row: a polynomial in the second variable


def _wreath_average_counts(
    sums: Iterable[tuple[tuple[int, ...], int]], k: int, size: int
) -> tuple[list[int], int]:
    """(counts, row_denom): the class sums of a size x size matrix weighing
    the memoized table rows in alpha at beta = -1/k, so that counts[i] over
    row_denom, and over the sums' own denominator, is the coefficient of
    alpha^i in its two-parameter determinant at beta = -1/k; counts has
    size + 1 entries."""
    rows, row_denom = _tables(size, None, Fraction(-1, k))
    return _weigh(rows, sums), row_denom


def _wrdet_numerator(sums: Iterable[tuple[tuple[int, ...], int]], k: int, size: int) -> int:
    """k^size times the alpha-determinant at -1/k of a size x size matrix
    with the given class sums, over the sums' own denominator: a type rho
    has transposition length size - len(rho), so it adds
    w_rho (-1)^(size - len(rho)) k^len(rho)."""
    return sum((-w if (size - len(rho)) % 2 else w) * k ** len(rho) for rho, w in sums)


def wrdet(a: RatMatrix, k: int) -> Fraction:
    """k-wreath determinant of a kn x n matrix: the alpha-determinant of
    the k-fold column inflation, evaluated at -1/k, read by
    ``_wrdet_numerator`` from the inflation's class sums by block profile."""
    sums, denom = _inflation_class_sums(a, k)
    return Fraction(_wrdet_numerator(sums, k, a.rows), denom * k**a.rows)


def wreath_average_poly(a: RatMatrix, k: int) -> QPoly:
    """Signed average over all column permutations of the inflated matrix:
    sum over sigma in S_kn of (-1/k)^len(sigma) * adet_poly(inflate(a) P(sigma)).

    That is the two-parameter determinant of the inflation at beta = -1/k:
    the pair (tau, sigma) contributes alpha^len(tau) (-1/k)^len(sigma) times
    the entry product of tau on the column-permuted inflation.  The class
    sums of the inflation, summed by block profile, weigh the memoized table
    rows at beta in ``_wreath_average_counts``, whose entry i is the
    coefficient of alpha^i over one integer denominator.
    """
    sums, denom = _inflation_class_sums(a, k)
    counts, row_denom = _wreath_average_counts(sums, k, a.rows)
    denom *= row_denom
    return QPoly(Fraction(v, denom) for v in counts)


def subgroup_avg_adet(a: RatMatrix, k: int) -> QPoly:
    """Sum of adet_poly over the column permutations by S_k embedded in S_n
    fixing the letters k+1..n."""
    n = a.require_square()
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if n > EXHAUSTIVE_CAP:
        raise SizeCapExceeded(f"n={n} exceeds subgroup-average cap {EXHAUSTIVE_CAP}")
    total = QPoly.zero()
    for s in perm_tuples(k):
        sigma = Perm(_embed(s, n))
        total = total + adet_poly(a.permute_columns(sigma))
    return total


@cache
def _signed_cells(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation p of S_n as its flat row-major cells i n + p(i) - 1,
    with its sign."""
    return tuple(
        (tuple(i * n + j - 1 for i, j in enumerate(p)), -1 if _trans_len(p) % 2 else 1)
        for p in perm_tuples(n)
    )


def _det_square_coeff(rest: Sequence[int], n: int) -> int:
    """Coefficient of prod x_ij^r_ij in det(X)^2, for flat row-major cells
    r whose rows and columns all sum to 2, without listing S_n.

    Such a grid is a 2-regular bipartite multigraph between rows and
    columns, so it splits into c components: d doubled cells, and even
    cycles through L >= 2 rows.  A pair (sigma, tau) with
    P_sigma + P_tau = r takes both of a doubled cell and either matching of
    a cycle, so there are 2^(c - d) ordered pairs; sigma^-1 tau has one
    cycle per component, so each has sign(sigma) sign(tau) = (-1)^(n - c).
    The components are counted by a union-find over the columns, which
    each row with two cells of 1 joins.
    """
    root = list(range(n))
    joins = doubled = 0
    for i in range(n):
        row = rest[i * n : i * n + n]
        if 2 in row:
            doubled += 1
            continue
        a = row.index(1)
        b = row.index(1, a + 1)
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a != b:
            root[a] = b
            joins += 1
    # c = n - joins components, c - d of them cycles
    pairs = 1 << (n - joins - doubled)
    return -pairs if joins % 2 else pairs


def det_power_coeff(cells: Sequence[int], k: int) -> int:
    """Coefficient of the monomial prod x_ij^m_ij in the k-th power of the
    determinant of an n x n matrix of indeterminates, by expanding over
    k-tuples of permutations with sign products.  The exponents m_ij come as
    the flat row-major cells of a block profile, ``perms.profile_cells``;
    cells that are not a square grid of non-negative integers, or whose rows
    and columns do not all sum to k >= 1, raise ValueError before any work.

    At k = 1 the cells are the matrix of one permutation, and its sign is
    the coefficient.  Past that, the expansion is layered by the residual
    profile, m less the matrices of the permutations placed so far, flat
    like the cells: a layer maps each residual to the signed count of the
    placed prefixes that leave it, so prefixes that leave the same residual
    are expanded once.  Each of the first k - 2 factors is a permutation
    whose cells are all positive in the residual.  After them every
    residual has row and column sums 2, and ``_det_square_coeff`` reads the
    signed count of the pairs that close the tuple off its cycles; at
    k = 2 no layer runs and no permutation is enumerated.

    So k <= 2 has no size cap.  At k >= 3 the layers scan all of S_n:
    n > ``EXHAUSTIVE_CAP`` raises SizeCapExceeded before S_n is listed, and
    ``DET_POWER_TERM_CAP`` bounds the (residual, permutation) pairs that the
    layers test.  A residual is a regular bipartite multigraph, so by Hall's
    theorem it has a perfect matching and no layer is empty: (k - 2) n! are
    counted up front, and n! for each further residual as its layer is
    reached.  A count over the cap raises SizeCapExceeded before that layer
    runs, so k - 2 > cap / n! is refused at once, and the refusal is the
    same as counting the layers' tests exactly.
    """
    n = isqrt(len(cells))
    if n * n != len(cells):
        raise ValueError(f"{len(cells)} cells are not an n x n profile")
    if min(cells, default=0) < 0:
        raise ValueError("profile cells must be non-negative")
    if k < 1 or any(sum(cells[i * n : i * n + n]) != k or sum(cells[i::n]) != k for i in range(n)):
        raise ValueError(f"k={k} must be positive and equal every row and column sum")
    rest = tuple(cells)
    if k == 1:
        closing = [rest.index(1, i * n, i * n + n) - i * n + 1 for i in range(n)]
        return -1 if _trans_len(closing) % 2 else 1
    if k == 2:
        return _det_square_coeff(rest, n)
    if n > EXHAUSTIVE_CAP:
        raise SizeCapExceeded(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    # each layer tests its residuals against all n! permutations and has one
    # at least (a regular residual has a perfect matching): count those first
    nperms = factorial(n)
    tests = (k - 2) * nperms
    layer = {rest: 1}  # residual -> signed count
    for _ in range(k - 2):
        tests += (len(layer) - 1) * nperms
        if tests > DET_POWER_TERM_CAP:
            raise SizeCapExceeded(f"k={k}, n={n} needs over {DET_POWER_TERM_CAP} residual tests")
        grown: dict[tuple[int, ...], int] = {}
        for rest, ways in layer.items():
            for cells, sign in _signed_cells(n):
                for c in cells:
                    if not rest[c]:
                        break
                else:
                    left = list(rest)
                    for c in cells:
                        left[c] -= 1
                    key = tuple(left)
                    grown[key] = grown.get(key, 0) + sign * ways
        layer = grown
    return sum(ways * _det_square_coeff(rest, n) for rest, ways in layer.items())
