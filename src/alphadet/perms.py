"""Permutations of {1..n}: cycle statistics, enumeration, Young-subgroup
blocks and orders, the Jucys-Murphy group-algebra product, block profiles
and their listing, and double-coset indices.  A block profile has one form,
the flat row-major tuple of ``profile_cells``, which every reader takes as
it is.

One-line notation is 1-based everywhere, matching the serialized form
"2,1,3".  Everything is exhaustive by design, except the double-coset
index, which has a closed form in the block profile, and the block
profiles, which are listed from the row and column sums, not from S_kn;
size caps raise SizeCapExceeded instead of degrading.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial, isqrt, prod
from typing import Iterable, Iterator, Sequence

from .errors import SizeCapExceeded
from .polynomials import QPoly

EXHAUSTIVE_CAP = 7  # every listing of all of S_m: enumerate_perms, _column_average_sums, det_power_coeff, the suites
FOURIER_JM_CAP = 6  # the group-algebra product has n! support


def _trans_len(images: Sequence[int]) -> int:
    """n minus the number of disjoint cycles of a raw 1-based image tuple."""
    n = len(images)
    seen = bytearray(n)
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = images[j] - 1
    return n - cycles


def _cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    n = len(images)
    seen = bytearray(n)
    lengths = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = images[j] - 1
                length += 1
            lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a o b)(i) = a(b(i)) on raw 1-based image tuples."""
    return tuple(a[v - 1] for v in b)


class Perm:
    """A permutation of {1..n} in one-line notation (1-based images)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build from disjoint cycles, e.g. from_cycles(4, [(1, 2)])."""
        imgs = list(range(1, n + 1))
        for cyc in cycles:
            for i, v in enumerate(cyc):
                imgs[v - 1] = cyc[(i + 1) % len(cyc)]
        return cls(imgs)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Perm":
        return cls.from_cycles(n, [(i, j)])

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Perm(_compose(self.images, other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Perm(inv)

    @property
    def cycle_count(self) -> int:
        """Number of disjoint cycles, fixed points included."""
        return self.n - _trans_len(self.images)

    @property
    def transposition_length(self) -> int:
        """Minimal number of transpositions multiplying to this permutation.

        Equals n minus the number of disjoint cycles; 0 for the identity.
        """
        return _trans_len(self.images)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, weakly decreasing."""
        return _cycle_type(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


def format_perm(p: Perm) -> str:
    """Serialize as a comma-separated 1-based image list, e.g. "2,1,3"."""
    return ",".join(str(v) for v in p.images)


def parse_perm(text: str) -> Perm:
    return Perm(int(t) for t in text.split(","))


def perm_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All n! image tuples in lexicographic order (raw, for hot loops)."""
    return itertools.permutations(range(1, n + 1))


def enumerate_perms(n: int) -> Iterator[Perm]:
    """All n! permutations in lexicographic one-line order, identity first."""
    if n > EXHAUSTIVE_CAP:
        raise SizeCapExceeded(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    for t in perm_tuples(n):
        p = Perm.__new__(Perm)
        p.images = t
        yield p


def young_blocks(mu: Sequence[int]) -> list[range]:
    """Consecutive letter blocks of sizes mu_1, mu_2, ... (1-based values)."""
    blocks = []
    offset = 0
    for part in mu:
        blocks.append(range(offset + 1, offset + part + 1))
        offset += part
    return blocks


def young_subgroup_order(mu: Sequence[int]) -> int:
    out = 1
    for part in mu:
        out *= factorial(part)
    return out


def jucys_murphy_product(n: int) -> dict[Perm, QPoly]:
    """Expand prod_{k=1..n} (1 + a*X_k) in the group algebra of S_n,
    where X_k is the sum of the transpositions (i k), i < k (X_1 = 0).

    Coefficients are univariate polynomials in a.
    """
    if n > FOURIER_JM_CAP:
        raise SizeCapExceeded(f"n={n} exceeds Jucys-Murphy cap {FOURIER_JM_CAP}")
    alpha = QPoly((0, 1))
    state: dict[tuple[int, ...], QPoly] = {tuple(range(1, n + 1)): QPoly.one()}
    for k in range(2, n + 1):
        nxt = dict(state)
        for sigma, coeff in state.items():
            bumped = coeff * alpha
            for i in range(1, k):
                # right-multiply by (i k): swap the images at positions i, k
                lst = list(sigma)
                lst[i - 1], lst[k - 1] = lst[k - 1], lst[i - 1]
                key = tuple(lst)
                prev = nxt.get(key)
                nxt[key] = bumped if prev is None else prev + bumped
        state = nxt
    return {Perm(t): c for t, c in state.items()}


def profile_cells(g: Perm, mu: Sequence[int]) -> tuple[int, ...]:
    """The mu-profile of g, flat in row-major order: for l = len(mu), cell
    i l + j counts the letters of block i that g sends into block j, the
    blocks being the consecutive runs of sizes mu_1, mu_2, ...  It depends
    on g only through the double coset S_mu g S_mu."""
    ell = len(mu)
    labels = [b for b, part in enumerate(mu) for _ in range(part)]
    if len(labels) != g.n:
        raise ValueError(f"permutation size {g.n} != {len(labels)} letters of the blocks {mu}")
    cells = [0] * (ell * ell)
    for b, image in zip(labels, g.images):
        cells[b * ell + labels[image - 1]] += 1
    return tuple(cells)


def block_profile(sigma: Perm, n: int, k: int) -> tuple[int, ...]:
    """The block profile of sigma: ``profile_cells(sigma, (k,) * n)``, whose
    cell i n + j counts the letters s in block i with sigma(s) in block j,
    the blocks being the consecutive runs of k letters."""
    if sigma.n != n * k:
        raise ValueError(f"permutation size {sigma.n} != k*n = {n * k}")
    return profile_cells(sigma, (k,) * n)


@cache
def _rows_within(k: int, residual: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every row of non-negative integers summing to k that fits under the
    residual column sums, in lexicographic order."""
    if not residual:
        return ((),) if k == 0 else ()
    return tuple(
        (v, *rest)
        for v in range(min(k, residual[0]) + 1)
        for rest in _rows_within(k - v, residual[1:])
    )


def block_profiles(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every n x n grid of non-negative integers whose rows and columns all
    sum to k, as flat row-major cells in lexicographic order: the block
    profiles of S_kn, one per double coset of S_k^n, without enumerating
    S_kn.  The last row is what the others leave of each column; the count
    of the profiles is the length of the listing."""
    if k < 0 or n < 0:
        raise ValueError(f"k={k} and n={n} must be non-negative")
    last = n * n - n

    def grow(cells: tuple[int, ...], residual: tuple[int, ...]):
        if len(cells) == last:
            yield cells + residual
            return
        for row in _rows_within(k, residual):
            yield from grow(cells + row, tuple(r - v for r, v in zip(residual, row)))

    return tuple(grow((), (k,) * n)) if n else ((),)


def profile_coset_index(cells: Sequence[int], k: int) -> int:
    """Index of the conjugation-stable part, |H| / |H intersect s^-1 H s|
    for H = S_k^n and any s whose block profile is cells, by Mackey's
    formula.

    An h in H lies in s^-1 H s exactly when it also keeps each set
    s^-1(block j), that is when it permutes each set (block i) intersect
    s^-1(block j) of size m_ij.  So |H intersect s^-1 H s| = prod m_ij!,
    and the index is (k!)^n / prod m_ij!, the product over the blocks i of
    the multinomials k! / prod_j m_ij!; H is not enumerated.
    """
    return factorial(k) ** isqrt(len(cells)) // prod(map(factorial, cells))


def double_coset_index(sigma: Perm, n: int, k: int) -> int:
    """Index of the conjugation-stable part: |H| / |H intersect s^-1 H s|
    for H = S_k^n, by Mackey's formula on the block profile of s; see
    ``profile_coset_index``.  ``block_profile`` refuses a size other than kn."""
    return profile_coset_index(block_profile(sigma, n, k), k)
