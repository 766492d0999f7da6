import functools
import gc
import itertools
import operator
from fractions import Fraction as F
from functools import cache
from math import comb, factorial, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

import alphadet.adet as adet_module
import alphadet.matrices as matrices_module
import alphadet.perms as perms_module
from alphadet.adet import (
    ADET_CAP,
    adet2_poly,
    adet2_structured,
    adet_at,
    adet_poly,
    adet_structured,
    class_sums,
    det_power_coeff,
    subgroup_avg_adet,
    translate_class_sums,
    wrdet,
    wreath_average_poly,
)
from alphadet.errors import DimensionMismatch, NotSquare, SizeCapExceeded
from alphadet.matrices import (
    PermutedBlockOnes,
    RatMatrix,
    block_ones,
    column_replicator,
    inflate,
    scaled_int_rows,
)
from alphadet.characters import character
from alphadet.partitions import content_poly, num_standard_tableaux, partitions_of
from alphadet.perms import (
    Perm,
    _cycle_type,
    _trans_len,
    block_profile,
    enumerate_perms,
    perm_tuples,
    profile_cells,
    young_blocks,
    young_subgroup_order,
)
from alphadet.polynomials import QPoly, QPoly2, eval_grid
from alphadet.randmat import SplitMix64, random_matrix, random_perm
from alphadet.verify import verify_theorem, verify_zsf

from test_perms import _perm_of_cycle_type, _young_subgroup


def _class_sums_naive(rows) -> dict:
    """Oracle: the full S_n scan, each nonzero product prod_j rows[p(j)][j]
    added under the cycle type of p; types whose products cancel to 0 are
    dropped.  The raw listing has no size cap, so the scan reaches S_8."""
    n = len(rows)
    sums: dict = {}
    for p in perm_tuples(n):
        prod = 1
        for j in range(n):
            prod *= rows[p[j] - 1][j]
        if prod:
            ct = _cycle_type(p)
            sums[ct] = sums.get(ct, 0) + prod
    return {ct: total for ct, total in sums.items() if total}


def _translate_cycle_types(g: Perm, mu) -> dict:
    """Oracle: the cycle types of the translates g h, h in the Young
    subgroup of mu, with the number of h giving each type."""
    by_type: dict = {}
    for h in _young_subgroup(mu):
        ct = (g * h).cycle_type()
        by_type[ct] = by_type.get(ct, 0) + 1
    return by_type


def _random_subgroup_element(mu, rng) -> Perm:
    """A seeded element of the Young subgroup of mu: a random permutation
    of each block."""
    images = []
    for block in young_blocks(mu):
        images += [block[v - 1] for v in random_perm(len(block), rng).images]
    return Perm(images)


def _adet_poly_naive(a: RatMatrix) -> QPoly:
    """Oracle: sum over S_n of prod_j a[p(j), j] * alpha^len(p)."""
    n = a.require_square()
    coeffs = [F(0)] * (n + 1)
    for p in enumerate_perms(n):
        prod = F(1)
        for j in range(n):
            prod *= a[p(j + 1) - 1, j]
        coeffs[p.transposition_length] += prod
    return QPoly(coeffs)


@cache
def _trans_lens(n: int) -> bytes:
    """Transposition lengths of perm_tuples(n), in enumeration order."""
    return bytes(_trans_len(p) for p in perm_tuples(n))


def _class_table_naive(rho: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Oracle: one pass over S_n for the type rho of g, counting
    K[i][j] = #{sigma : len(g sigma) = i, len(sigma) = j}, i, j = 0..n."""
    n = sum(rho)
    # g0[v] = g(v) - 1: walks the cycles of g sigma from 1-based images of sigma
    g0 = (0,) + tuple(v - 1 for v in _perm_of_cycle_type(rho, n).images)
    table = [[0] * (n + 1) for _ in range(n + 1)]
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
        table[n - cycles][len_sigma] += 1
    return tuple(tuple(row) for row in table)


def _class_tables(n: int) -> dict:
    """The grids of the one table reader, adet._tables with both
    parameters free, as (n+1) x (n+1) tuples of rows."""
    grids, denom = adet_module._tables(n, None, None)
    assert denom == 1
    return {
        rho: tuple(flat[i : i + n + 1] for i in range(0, len(flat), n + 1))
        for rho, flat in grids.items()
    }


def _class_tables_by_characters(n: int) -> dict:
    """Oracle: prod_m (1 + alpha J_m) = sum_sigma alpha^len(sigma) sigma acts
    on the irreducible module of lambda as the content polynomial
    P_lambda(alpha), so the product of two such sums, whose coefficient at g
    is the table of g's type at (alpha, beta), is the sum over lambda of
    P_lambda(alpha) P_lambda(beta) times the central idempotent
    (f_lambda / n!) sum_g chi_lambda(g) g."""
    shapes = [
        (lam, num_standard_tableaux(lam), [int(content_poly(lam).coefficient(i)) for i in range(n + 1)])
        for lam in partitions_of(n)
    ]
    tables = {}
    for rho in partitions_of(n):
        weighed = [(f * character(lam, rho), p) for lam, f, p in shapes]
        tables[rho] = tuple(
            tuple(F(sum(w * p[i] * p[j] for w, p in weighed), factorial(n)) for j in range(n + 1))
            for i in range(n + 1)
        )
    return tables


@cache
def _oracle_tables(n: int) -> dict:
    """The class tables of S_n by the S_n pass for 1 <= n <= 8, and by the
    character oracle at n = 0 and at the cap, 9, where a pass over S_9 per
    cycle type takes about a minute."""
    if 1 <= n <= 8:
        return {rho: _class_table_naive(rho) for rho in partitions_of(n)}
    return _class_tables_by_characters(n)


def test_class_tables_match_per_type_scan():
    for n in range(ADET_CAP + 1):
        assert _class_tables(n) == _oracle_tables(n), n


def test_class_tables_cap_and_empty_size(monkeypatch):
    def no_work(*args):
        raise AssertionError("the cap must be checked before any work")

    monkeypatch.setattr(adet_module, "_partitions", no_work)
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        adet_module._tables(ADET_CAP + 1, None, None)
    assert adet_module._tables(0, None, None) == ({(): (1,)}, 1)
    assert adet2_poly(RatMatrix(())) == QPoly2([[1]])


def test_class_tables_enumerate_no_permutations(monkeypatch):
    def no_enumeration(n):
        raise AssertionError("the table builder must not enumerate S_n")

    monkeypatch.setattr(perms_module, "perm_tuples", no_enumeration)
    monkeypatch.setattr(adet_module, "perm_tuples", no_enumeration)
    adet_module._tables.cache_clear()
    assert len(_class_tables(ADET_CAP)) == len(partitions_of(ADET_CAP))


def test_tables_at_rows_are_the_tables_at_beta():
    # oracle gate: row i of rho, over the common denominator, is row i of
    # the table of rho evaluated at beta, and column j, for alpha given and
    # beta free, is column j at alpha.  Negative numerators give negative
    # digits, which only a signed decode reads, and beta = -1/9 at n = 9
    # packs the widest digits.  Every table is symmetric, K[i][j] = K[j][i]
    # by sigma -> (g sigma)^-1, so only the columns tell the x shift of the
    # packing from the y shift
    params = [F(-1, k) for k in range(1, 10)] + [F(1, 9), F(0), F(1), F(-3, 2)]
    for n in range(ADET_CAP + 1):
        tables = _oracle_tables(n)
        for p in sorted(set(params) | {F(1, max(n, 1))}):
            rows, denom = adet_module._tables(n, None, p)
            assert sorted(rows) == sorted(tables), (n, p)
            assert denom == p.denominator**n
            for rho, table in tables.items():
                got = [F(v, denom) for v in rows[rho]]
                assert got == [eval_grid([row], 1, 0, p) for row in table], (rho, p)
            columns, denom = adet_module._tables(n, p, None)
            assert denom == p.denominator**n
            for rho, table in tables.items():
                got = [F(v, denom) for v in columns[rho]]
                assert got == [eval_grid([[c] for c in col], 1, p, 0) for col in zip(*table)], (rho, p)


def test_tables_at_cap_comes_first(monkeypatch):
    def no_work(*args):
        raise AssertionError("the cap must be checked before any work")

    monkeypatch.setattr(adet_module, "_cut_and_join", no_work)
    monkeypatch.setattr(adet_module, "_partitions", no_work)
    adet_module._tables.cache_clear()
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        adet_module._tables(ADET_CAP + 1, None, F(1, 2))
    assert adet_module._tables.cache_info().maxsize == 1


def test_tables_at_point_are_the_tables_at_the_point():
    # oracle gate: at a point the builder compares the markings of a type as
    # integers, which is weaker than comparing polynomials, so every value is
    # checked against the oracle's grid.  alpha = 0 and beta = 0 make a
    # multiplier of the product vanish, negative numerators make the values
    # negative, and at (1, 1) and (-1, -1) a value is +-n!, the bound that
    # sets the packing width
    points = [(F(-1, k), F(1, m)) for k in (1, 2, 3, 4, 9) for m in (1, 4)]
    points += [(F(3, 5), F(-7, 2)), (F(0), F(1, 3)), (F(2), F(0)), (F(-1, 2), F(-1, 2))]
    points += [(F(-3, 2), F(-1, 9)), (F(-1, 9), F(-1, 2)), (F(1), F(1)), (F(-1), F(-1))]
    for n in range(ADET_CAP + 1):
        tables = _oracle_tables(n)
        for alpha, beta in points + [(F(-1, 2), F(1, max(n, 1)))]:
            values, denom = adet_module._tables(n, alpha, beta)
            assert sorted(values) == sorted(tables), (n, alpha, beta)
            assert denom == (alpha.denominator * beta.denominator) ** n
            for rho, table in tables.items():
                (v,) = values[rho]
                assert F(v, denom) == eval_grid(table, 1, alpha, beta), (rho, alpha, beta)


def test_tables_at_point_cap_comes_first(monkeypatch):
    def no_work(*args):
        raise AssertionError("the cap must be checked before any work")

    monkeypatch.setattr(adet_module, "_cut_and_join", no_work)
    monkeypatch.setattr(adet_module, "_partitions", no_work)
    adet_module._tables.cache_clear()
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        adet_module._tables(ADET_CAP + 1, F(-1, 2), F(1, 5))
    assert adet_module._tables.cache_info().maxsize == 1


def test_class_sums_matches_full_scan():
    rng = SplitMix64(4040)
    for n in range(9):
        dense = [[rng.randint(1, 9) * (-1) ** rng.below(2) for _ in range(n)] for _ in range(n)]
        sparse = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        cases = [dense, sparse]
        if n:
            zero_entry = [list(row) for row in dense]
            zero_entry[0][rng.below(n)] = 0
            zero_column = [[0 if j == n - 1 else v for j, v in enumerate(r)] for r in zero_entry]
            cases += [zero_entry, zero_column]
        for rows in cases:
            assert class_sums(rows) == _class_sums_naive(rows), (n, rows)
        if n:
            assert class_sums(zero_column) == {}  # the zero column kills every product
    # (1 2 3) weighs +1 and (1 3 2) weighs -1, so type (3,) is not a key;
    # only (2 3), of type (2, 1), survives
    cancelling = [[2, 1, 1], [1, 0, 1], [-1, 1, 0]]
    assert _class_sums_naive(cancelling) == {(2, 1): 2}
    assert class_sums(cancelling) == {(2, 1): 2}
    assert class_sums([]) == {(): 1}


def _class_sums_walk(rows) -> dict:
    """Oracle: each permutation with a nonzero product, built cycle by cycle
    along nonzero entries from the smallest letter not yet placed."""
    n = len(rows)
    sums: dict = {}

    def open_cycle(free: frozenset, lengths: tuple, weight: int) -> None:
        if not free:
            ct = tuple(sorted(lengths, reverse=True))
            sums[ct] = sums.get(ct, 0) + weight
            return
        start = min(free)
        extend(free - {start}, start, start, 1, lengths, weight)

    def extend(free, start, col, length, lengths, weight) -> None:
        if rows[start][col]:
            open_cycle(free, lengths + (length,), weight * rows[start][col])
        for r in free:
            if rows[r][col]:
                extend(free - {r}, start, r, length + 1, lengths, weight * rows[r][col])

    open_cycle(frozenset(range(n)), (), 1)
    return {ct: total for ct, total in sums.items() if total}


def test_class_sums_matches_walk_at_nine():
    rng = SplitMix64(9090)
    for signed in (False, True):
        rows = [
            [rng.randint(1, 9) * (-1) ** (signed * rng.below(2)) for _ in range(9)]
            for _ in range(9)
        ]
        assert class_sums(rows) == _class_sums_walk(rows), rows
    sparse = [[rng.randint(-1, 1) * rng.below(2) for _ in range(9)] for _ in range(9)]
    assert class_sums(sparse) == _class_sums_walk(sparse), sparse


def test_class_sums_of_permuted_block_ones_counts_translates():
    # the nonzero products of P(g) 1_mu are exactly the translates g h, h in S_mu
    rng, coset_rng = SplitMix64(5050), SplitMix64(5151)
    for n in range(1, 9):
        cycle = Perm.from_cycles(n, [tuple(range(1, n + 1))])
        for mu in partitions_of(n):
            for g in (cycle, random_perm(n, rng)):
                expected = _translate_cycle_types(g, mu)
                rows = _block_ones_rows(g, mu)
                assert class_sums(rows) == expected, (g, mu)
                assert dict(translate_class_sums(g, mu)) == expected, (g, mu)
                # the walk by letter type reads the mu-profile alone, which
                # is the same on the double coset S_mu g S_mu
                h1 = _random_subgroup_element(mu, coset_rng)
                h2 = _random_subgroup_element(mu, coset_rng)
                assert profile_cells(h1 * g * h2, mu) == profile_cells(g, mu), (g, mu)
                assert translate_class_sums(h1 * g * h2, mu) == translate_class_sums(g, mu), (g, mu)
    # g and h g, h in S_mu, lie in one double coset S_mu g S_mu but in two
    # left cosets g S_mu, so their matrices differ and their class sums agree
    g = Perm.from_cycles(4, [(2, 3)])
    hg = Perm.from_cycles(4, [(1, 2)]) * g
    assert _block_ones_rows(g, (2, 2)) != _block_ones_rows(hg, (2, 2))
    assert translate_class_sums(g, (2, 2)) == translate_class_sums(hg, (2, 2))


def test_class_sums_matches_walk_on_block_ones_above_nine():
    # the averaged character admits these sizes for any mu, so the DP is
    # checked against the walk at n = 10 and 12; the totals count S_mu
    rng = SplitMix64(1012)
    for mu in [(8, 2), (7, 3), (6, 4, 2)]:
        n = sum(mu)
        for _ in range(2):
            rows = _block_ones_rows(random_perm(n, rng), mu)
            sums = class_sums(rows)
            assert sums == _class_sums_walk(rows), mu
            assert sum(sums.values()) == young_subgroup_order(mu), mu


def _dense(s: PermutedBlockOnes) -> RatMatrix:
    """Oracle: P(g) 1_mu as a dense matrix."""
    return block_ones(s.mu).permute_rows(s.g)


def _block_ones_rows(g: Perm, mu) -> list[tuple[int, ...]]:
    """The 0/1 integer rows of P(g) 1_mu, built densely."""
    return scaled_int_rows(_dense(PermutedBlockOnes(g, mu)))[0]


def _typed_and_row_walks(g: Perm, mu) -> tuple[dict, dict]:
    """The class sums of P(g) 1_mu by letter type, and by the letter walk
    of its 0/1 rows."""
    typed = adet_module._typed_class_sums(profile_cells(g, mu))
    return typed, class_sums(_block_ones_rows(g, mu))


def _compositions(n: int):
    """Every composition of n: tuples of positive parts summing to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def test_typed_class_sums_match_the_letter_walk():
    # the walk of g's own mu-profile, against the dense walk of
    # block_ones(mu).permute_rows(g): every g at every composition mu up to
    # n = 5 and every partition mu of 6
    cases = [mu for n in range(6) for mu in _compositions(n)] + partitions_of(6)
    assert len(cases) == 32 + 11
    for mu in cases:
        n = sum(mu)
        for g in enumerate_perms(n):
            typed, rows = _typed_and_row_walks(g, mu)
            assert typed == rows, (g, mu)
    # seeded g at every mu of n = 7..9
    rng = SplitMix64(1616)
    for n in range(7, 10):
        for mu in partitions_of(n):
            for _ in range(2):
                g = random_perm(n, rng)
                typed, rows = _typed_and_row_walks(g, mu)
                assert typed == rows, (g, mu)
    # the long blocks at n = 9: one block, and every split into two
    cycle = Perm.from_cycles(9, [tuple(range(1, 10))])
    for mu in [(9,), (8, 1), (7, 2), (6, 3), (5, 4)]:
        for g in (Perm.identity(9), cycle, random_perm(9, rng), random_perm(9, rng)):
            typed, rows = _typed_and_row_walks(g, mu)
            assert typed == rows, (g, mu)
            assert sum(typed.values()) == young_subgroup_order(mu), (g, mu)


def test_type_walks_use_no_type_below_their_root(monkeypatch):
    # the cycles split off at a least remaining type r never hold a type
    # below r, and each has as many letters as its length, the root's among them
    seen = []
    real = adet_module._type_cycles

    def spy(counts, follow, full, width, root):
        found = real(counts, follow, full, width, root)
        seen.append((width, root, found))
        return found

    monkeypatch.setattr(adet_module, "_type_cycles", spy)
    rng = SplitMix64(1818)
    for mu in [(3, 3, 2), (2, 2, 2, 2), (4, 2, 1, 1), (1,) * 8]:
        for _ in range(4):
            g = random_perm(8, rng)
            assert adet_module._typed_class_sums(profile_cells(g, mu)) == (
                _translate_cycle_types(g, mu)
            )
    assert any(root > 0 and found for _, root, found in seen)
    for width, root, found in seen:
        field = (1 << width - 1) - 1
        for c, ways, length in found:
            assert ways > 0
            assert c & ((1 << width * root) - 1) == 0, (root, c)
            assert c >> width * root & field >= 1, (root, c)
            letters = sum(c >> width * t & field for t in range(c.bit_length() // width + 1))
            assert letters == length, (c, length)


def test_walks_leave_no_cycle_for_the_collector():
    # each walk's memo is freed when the walk returns, not at the next
    # collection: with the collector off, nothing unreachable is left
    g = random_perm(8, SplitMix64(3))
    cells = profile_cells(g, (2, 2, 2, 2))
    rows = [[1, 2, 0], [3, 1, 1], [0, 2, 5]]
    gc.collect()
    gc.disable()
    try:
        assert adet_module._typed_class_sums(cells)
        assert class_sums(rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_adet_poly_matches_naive_sum():
    for n in range(1, 8):
        a = random_matrix(n, n, 700 + n)
        assert adet_poly(a) == _adet_poly_naive(a), n
        sparse = a.with_column(n - 1, [v if i % 2 else 0 for i, v in enumerate(a.column(0))])
        assert adet_poly(sparse) == _adet_poly_naive(sparse), n
    assert adet_poly(RatMatrix(())) == _adet_poly_naive(RatMatrix(()))
    rational = RatMatrix(
        [[F((i + 2 * j) % 7 - 3, 1 + (i * j) % 5) for j in range(5)] for i in range(5)]
    )
    assert adet_poly(rational) == _adet_poly_naive(rational)


def test_adet_poly_known_values():
    assert adet_poly(RatMatrix.ones(3, 3)) == QPoly([1, 3, 2])
    a, b, c, d = 2, 3, 5, 7
    assert adet_poly(RatMatrix([[a, b], [c, d]])) == QPoly([a * d, b * c])
    for n in range(1, 6):
        assert adet_poly(RatMatrix.identity(n)) == QPoly.one()


def test_adet_poly_of_all_ones_is_content_poly():
    for n in range(1, 7):
        assert adet_poly(RatMatrix.ones(n, n)) == content_poly((n,))


def test_adet_degree_bound():
    for seed in range(3):
        m = random_matrix(5, 5, seed)
        assert adet_poly(m).degree <= 4


def test_adet_empty_matrix_convention():
    assert adet_poly(RatMatrix(())) == QPoly.one()
    assert adet_at(RatMatrix(()), F(5)) == 1


def test_adet_requires_square():
    with pytest.raises(NotSquare):
        adet_poly(RatMatrix([[1, 2]]))


def test_adet_cap():
    with pytest.raises(SizeCapExceeded):
        adet_at(RatMatrix.identity(10), F(1))


def _det_cofactor(m: RatMatrix) -> F:
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = F(0)
    for j in range(n):
        minor = RatMatrix([[m[i, c] for c in range(n) if c != j] for i in range(1, n)])
        term = m[0, j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_adet_at_special_points():
    for seed in (4, 5):
        m = random_matrix(4, 4, seed)
        assert adet_at(m, F(-1)) == _det_cofactor(m)
        diag = F(1)
        for i in range(4):
            diag *= m[i, i]
        assert adet_at(m, F(0)) == diag
        assert adet_at(m, F(2, 3)) == adet_poly(m).eval(F(2, 3))
    assert adet_at(RatMatrix.ones(5, 5), F(1)) == factorial(5)


def test_adet_with_rational_entries():
    m = RatMatrix([[F(1, 2), F(-2, 3)], [F(3, 5), F(7)]])
    assert adet_poly(m) == QPoly([F(7, 2), F(-2, 5)])


def test_scaled_int_rows_matches_fraction_scaling():
    # the integer rows are numerator * (L / denominator), never a Fraction product
    cases = [
        RatMatrix(()),
        RatMatrix([[0, 0], [0, 0]]),
        RatMatrix([[F(-3, 4), F(5, 6), 0], [F(7), F(-1, 9), F(2, 3)], [0, F(-11, 12), F(1, 4)]]),
        RatMatrix([[F(-1, 2), F(1, 3)], [F(5, 8), F(-7)], [0, F(9, 10)]]),
        _rational_matrix(6, 3),
        random_matrix(4, 4, 9),
    ]
    for a in cases:
        rows, scale = scaled_int_rows(a)
        assert scale == lcm(1, *(e.denominator for row in a.entries for e in row))
        assert rows == [tuple(int(e * scale) for e in row) for row in a.entries]
        assert all(type(v) is int for row in rows for v in row)
    assert scaled_int_rows(RatMatrix(())) == ([], 1)


_RATIONAL_POINTS = (F(0), F(1), F(-1), F(-1, 2), F(3, 7), F(-5, 2))


def test_adet_at_matches_oracle_at_rational_points():
    # adet_at evaluates the integer counts, never a Fraction polynomial:
    # gated against the S_n sum up to n = 7, and against adet_poly at n = 8
    for n in range(9):
        if n == 0:
            matrices = [RatMatrix(())]
        else:
            matrices = [random_matrix(n, n, 70 + n), _rational_matrix(n, 80 + n)]
        for a in matrices:
            poly = _adet_poly_naive(a) if n <= 7 else adet_poly(a)
            for x in _RATIONAL_POINTS:
                assert adet_at(a, x) == poly.eval(x), (n, x)


def test_adet_column_multilinearity():
    rng = SplitMix64(2)
    a = random_matrix(4, 4, 100)
    b = random_matrix(4, 4, 101)
    for j in range(4):
        mixed = a.with_column(j, [x + y for x, y in zip(a.column(j), b.column(j))])
        only_b = a.with_column(j, b.column(j))
        assert adet_poly(mixed) == adet_poly(a) + adet_poly(only_b)
        scaled = a.with_column(j, [3 * x for x in a.column(j)])
        assert adet_poly(scaled) == 3 * adet_poly(a)


def test_adet_commutes_with_permutation_side():
    a = random_matrix(4, 4, 55)
    for g in enumerate_perms(4):
        assert adet_poly(a.permute_rows(g)) == adet_poly(a.permute_columns(g))


def _adet2_naive(a: RatMatrix) -> QPoly2:
    """Oracle: the (n!)^2 double sum over permutation pairs (tau, sigma) of
    prod_i a[tau(i), sigma(i)], at exponents (len tau, len sigma)."""
    n = a.require_square()
    if n == 0:
        return QPoly2([[1]])
    rows, scale = scaled_int_rows(a)
    tagged = [(p.images, p.transposition_length) for p in enumerate_perms(n)]
    acc = [[0] * n for _ in range(n)]
    for tau, dt in tagged:
        tau_rows = [rows[v - 1] for v in tau]
        row_acc = acc[dt]
        for sigma, ds in tagged:
            prod = 1
            for i in range(n):
                prod *= tau_rows[i][sigma[i] - 1]
                if not prod:
                    break
            if prod:
                row_acc[ds] += prod
    denom = scale**n
    return QPoly2([[F(v, denom) for v in row] for row in acc])


def test_adet2_poly_matches_naive_double_sum():
    for n in range(1, 6):
        for seed in (n, 10 + n):
            a = random_matrix(n, n, 300 + seed)
            assert adet2_poly(a) == _adet2_naive(a), (n, seed)
    sparse = RatMatrix([[F(1, 2), 0, 1], [0, F(-2, 3), 0], [3, 0, 0]])
    assert adet2_poly(sparse) == _adet2_naive(sparse)
    assert adet2_poly(RatMatrix(())) == _adet2_naive(RatMatrix(()))


def test_adet2_known_values():
    assert adet2_poly(RatMatrix.identity(2)) == QPoly2([[1], [0, 1]])
    for n in (2, 3, 4):
        f = content_poly((n,))
        assert adet2_poly(RatMatrix.ones(n, n)) == QPoly2.outer(f, f)


def test_adet2_symmetric_in_both_parameters():
    for seed in (6, 7):
        p = adet2_poly(random_matrix(4, 4, seed))
        assert p.is_symmetric()


def test_adet2_matches_single_parameter_expansion():
    # second parameter marginalizes to a weighted sum of column-permuted adets
    a = random_matrix(4, 4, 17)
    expected = QPoly2.zero()
    for sigma in enumerate_perms(4):
        one_sided = adet_poly(a.permute_columns(sigma))
        expected = expected + QPoly2.outer(
            one_sided, QPoly.monomial(sigma.transposition_length)
        )
    assert adet2_poly(a) == expected


def test_adet2_cap(monkeypatch):
    # one cap bounds the walk and the tables: n = 10 is refused before either
    def no_work(*args):
        raise AssertionError("the cap must be checked before any n x n work")

    monkeypatch.setattr(adet_module, "scaled_int_rows", no_work)
    monkeypatch.setattr(adet_module, "class_sums", no_work)
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        adet2_poly(RatMatrix.identity(10))


def _det(a: RatMatrix) -> F:
    """Oracle: the determinant by exact Gaussian elimination."""
    n = a.require_square()
    m = [[a[i, j] for j in range(n)] for i in range(n)]
    det = F(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n):
                m[r][j] -= f * m[c][j]
    return det


def _per(a: RatMatrix) -> F:
    """Oracle: the permanent by Ryser's inclusion-exclusion formula."""
    n = a.require_square()
    total = F(0)
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        prod = F(1)
        for i in range(n):
            prod *= sum(a[i, j] for j in cols)
        total += (-1) ** len(cols) * prod
    return (-1) ** n * total


def _rational_matrix(n: int, seed: int) -> RatMatrix:
    a = random_matrix(n, n, seed)
    return RatMatrix([[a[i, j] / (1 + (i + 2 * j) % 5) for j in range(n)] for i in range(n)])


def test_adet2_poly_at_beta_plus_minus_one():
    # gate above _adet2_naive's (n!)^2 reach: at fixed pi = tau sigma^-1 the
    # sum over sigma of beta^len(sigma) alpha^len(pi sigma) is
    # sgn(pi) content_poly(1^n) at beta = -1 and content_poly((n,)) at
    # beta = 1, so the determinant and the permanent factor out
    for n in (1, 2, 3, 5, 7, 8):
        a = random_matrix(n, n, 700 + n)
        p = adet2_poly(a)
        at_minus, at_plus = (QPoly(QPoly(row).eval(b) for row in p.grid) for b in (F(-1), F(1)))
        assert at_minus == _det(a) * content_poly((1,) * n), n
        assert at_plus == _per(a) * content_poly((n,)), n


def test_adet2_poly_at_the_cap():
    # at n = 9 the sigma = id slice is the alpha-determinant, and at
    # (-1, -1) every pair (tau, sigma) with tau sigma^-1 = pi weighs sgn(pi),
    # so the value is 9! det(a)
    rng = SplitMix64(909)
    a = RatMatrix(
        [[rng.randint(1, 9) * (-1) ** rng.below(2) for _ in range(ADET_CAP)]
         for _ in range(ADET_CAP)]
    )
    p = adet2_poly(a)
    assert QPoly(p.coefficient(i, 0) for i in range(ADET_CAP + 1)) == adet_poly(a)
    assert p.eval(F(-1), F(-1)) == factorial(ADET_CAP) * _det(a)


def test_adet2_poly_edges_are_adet_poly():
    # tau = id (row 0 of the grid) and sigma = id (column 0) each leave the
    # one-parameter sum
    for n in (1, 4, 7, 8):
        for a in (random_matrix(n, n, 800 + n), _rational_matrix(n, 900 + n)):
            p = adet2_poly(a)
            expected = adet_poly(a)
            assert QPoly(p.coefficient(0, j) for j in range(n)) == expected, n
            assert QPoly(p.coefficient(i, 0) for i in range(n)) == expected, n


def test_structured_identity_diagonal_collapse():
    # P(identity) with singleton blocks leaves only tau = sigma,
    # so the value is the all-ones content polynomial in x*y
    for n in (2, 3, 4, 5):
        s = PermutedBlockOnes(Perm.identity(n), (1,) * n)
        for x, y in [(F(1, 2), F(1, 3)), (F(-2), F(5, 7))]:
            assert adet2_structured(s, x, y) == content_poly((n,)).eval(x * y)


def test_structured_worked_value():
    s = PermutedBlockOnes(Perm.identity(4), (2, 2))
    assert adet2_structured(s, F(-1, 2), F(1, 2)) == F(3, 16)


def test_structured_equals_naive_on_random_instances():
    # oracle-equivalence gate for the class-table fast path
    rng = SplitMix64(99)
    points = [(F(-1, 2), F(1, 2)), (F(2, 3), F(-3, 5)), (F(1), F(1))]
    checked = 0
    for n in (3, 4, 5):
        weights = partitions_of(n)
        for _ in range(7):
            g = random_perm(n, rng)
            mu = weights[rng.below(len(weights))]
            s = PermutedBlockOnes(g, mu)
            oracle = _adet2_naive(_dense(s))
            x, y = points[rng.below(len(points))]
            assert adet2_structured(s, x, y) == oracle.eval(x, y)
            checked += 1
    assert checked >= 20


def test_structured_equals_two_parameter_poly_at_the_point():
    # the row route against the full grid of adet2_poly, at the suites'
    # points (-1/k, 1/n) and at two others; every class table is symmetric
    # (sigma -> g sigma), so no value tells alpha and beta apart
    rng = SplitMix64(1717)
    for n in range(1, 8):
        weights = partitions_of(n)
        for _ in range(4):
            g = random_perm(n, rng)
            mu = weights[rng.below(len(weights))]
            s = PermutedBlockOnes(g, mu)
            grid = adet2_poly(_dense(s))
            points = [(F(-1, k), F(1, m)) for k in (1, 2, 3) for m in (2, n + 1)]
            points += [(F(2, 3), F(-3, 5)), (F(-5, 2), F(1, 7))]
            for x, y in points:
                assert adet2_structured(s, x, y) == grid.eval(x, y), (g, mu, x, y)


def test_structured_equals_naive_for_every_weight():
    rng = SplitMix64(606)
    points = [(F(-1, 2), F(1, 3)), (F(2, 3), F(-3, 5)), (F(1), F(1))]
    for n in range(1, 7):
        for mu in partitions_of(n):
            s = PermutedBlockOnes(random_perm(n, rng), mu)
            oracle = _adet2_naive(_dense(s))
            for x, y in points:
                assert adet2_structured(s, x, y) == oracle.eval(x, y), (s, x, y)


def test_wrdet_size_one_is_determinant():
    for seed in (1, 2):
        m = random_matrix(3, 3, seed)
        assert wrdet(m, 1) == _det_cofactor(m)


def test_wrdet_of_column_replicator():
    for k, n in [(1, 3), (2, 2), (3, 2), (2, 3), (2, 4)]:
        assert wrdet(column_replicator(n, k), k) == F(
            factorial(k), k**k
        ) ** n


def test_structured_adet_is_wrdet_of_the_permuted_replicator():
    # inflate(P(g) R, k) = P(g) 1_(k^n) for the column replicator R
    def check(g, n, k):
        lhs = adet_structured(PermutedBlockOnes(g, (k,) * n), F(-1, k))
        assert lhs == wrdet(column_replicator(n, k).permute_rows(g), k), (g, n, k)

    for n, k in [(2, 2), (3, 2), (2, 3), (1, 6), (6, 1)]:
        for g in enumerate_perms(n * k):
            check(g, n, k)
    rng = SplitMix64(31)
    for _ in range(20):
        check(random_perm(8, rng), 4, 2)


def test_structured_adet_matches_adet_at_and_its_cap():
    rng = SplitMix64(32)
    for n in range(1, 7):
        for mu in partitions_of(n):
            s = PermutedBlockOnes(random_perm(n, rng), mu)
            for x in (F(-1, 2), F(3, 5), F(1)):
                assert adet_structured(s, x) == adet_at(_dense(s), x), (s, x)
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        adet_structured(PermutedBlockOnes(Perm.identity(10), (10,)), F(1))


def test_wrdet_worked_example_against_minor_sum():
    a = RatMatrix([[1, 0], [0, 1], [1, 1], [1, 2]])
    assert wrdet(a, 2) == F(-3, 8)
    # independent route: 1/8 (|rows 1,3| * |rows 2,4| + |rows 1,4| * |rows 2,3|)
    def minor(r1, r2):
        return a[r1, 0] * a[r2, 1] - a[r1, 1] * a[r2, 0]

    assert wrdet(a, 2) == F(1, 8) * (minor(0, 2) * minor(1, 3) + minor(0, 3) * minor(1, 2))


def test_wrdet_relative_invariance():
    rng = SplitMix64(12)
    for seed in (3, 4):
        a = random_matrix(4, 2, seed)
        q = random_matrix(2, 2, seed + 50)
        assert wrdet(a @ q, 2) == wrdet(a, 2) * _det_cofactor(q) ** 2


def _wreath_average_naive(a: RatMatrix, k: int) -> QPoly:
    b = inflate(a, k)
    total = QPoly.zero()
    for sigma in enumerate_perms(b.rows):
        weight = F(-1, k) ** sigma.transposition_length
        total = total + weight * adet_poly(b.permute_columns(sigma))
    return total


def test_wreath_average_matches_naive_double_sum():
    for k, n, seed in [(1, 2, 1), (2, 1, 2), (1, 3, 3), (2, 2, 4), (1, 5, 5), (5, 1, 6)]:
        a = random_matrix(k * n, n, seed)
        assert wreath_average_poly(a, k) == _wreath_average_naive(a, k)
    # non-integer entries exercise the common-denominator scaling
    a = RatMatrix([[F(1, 2), F(-2, 3)], [F(3), F(5, 4)], [F(-1, 6), F(0)], [F(7, 5), F(1, 3)]])
    assert wreath_average_poly(a, 2) == _wreath_average_naive(a, 2)


def _wreath_average_by_rows(a: RatMatrix, k: int) -> QPoly:
    """Oracle: each row of the Fraction grid of adet2_poly(inflate(a, k))
    evaluated at beta = -1/k by QPoly's Horner."""
    return QPoly(QPoly(row).eval(F(-1, k)) for row in adet2_poly(inflate(a, k)).grid)


def test_wreath_average_matches_row_by_row_route():
    for k in range(1, ADET_CAP + 1):
        for n in range(1, ADET_CAP // k + 1):
            a = random_matrix(k * n, n, 100 * k + n)
            assert wreath_average_poly(a, k) == _wreath_average_by_rows(a, k), (k, n)
            rational = RatMatrix(
                [[e / (1 + (i + 2 * j) % 4) for j, e in enumerate(row)]
                 for i, row in enumerate(a.entries)]
            )
            assert wreath_average_poly(rational, k) == _wreath_average_by_rows(rational, k), (k, n)


def _wreath_average_by_grid(a: RatMatrix, k: int) -> QPoly:
    """Oracle: the full integer grid of the inflation's class sums weighed
    by ``_weigh``, each row evaluated at beta = -1/k."""
    sums, denom = adet_module._inflation_class_sums(a, k)
    grids, _ = adet_module._tables(a.rows, None, None)
    joint, m = adet_module._weigh(grids, sums), a.rows + 1
    return QPoly(eval_grid([joint[i : i + m]], denom, 0, F(-1, k)) for i in range(0, len(joint), m))


def test_wreath_average_matches_the_grid_route():
    rng = SplitMix64(4242)
    for k in range(1, 8):
        for n in range(1, 7 // k + 1):
            for _ in range(2):
                a = random_matrix(k * n, n, rng.next_u64())
                assert wreath_average_poly(a, k) == _wreath_average_by_grid(a, k), (k, n)


def test_wreath_average_empty_and_bad_k():
    assert wreath_average_poly(RatMatrix(()), 2) == QPoly.one()
    with pytest.raises(ValueError):
        wreath_average_poly(random_matrix(2, 2, 7), 0)


def test_wreath_average_on_replicator():
    # (k!/k^k)^n times the rectangle content polynomial
    for k, n in [(2, 2), (3, 2), (2, 3)]:
        lhs = wreath_average_poly(column_replicator(n, k), k)
        assert lhs == F(factorial(k), k**k) ** n * content_poly((k,) * n)


def test_wreath_average_k1_reduces_to_signed_average():
    for n, seed in [(2, 9), (3, 10)]:
        a = random_matrix(n, n, seed)
        assert wreath_average_poly(a, 1) == content_poly((1,) * n) * _det_cofactor(a)


def test_main_identity_random_matrices():
    rng = SplitMix64(2024)
    for k, n in [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)]:
        for _ in range(2):
            a = random_matrix(k * n, n, rng.next_u64())
            assert wreath_average_poly(a, k) == content_poly((k,) * n) * wrdet(a, k)


def test_both_sides_match_the_dense_oracle_in_either_order(monkeypatch):
    # two matrices one entry apart, read alternately by both sides of the
    # identity in both orders, each side summing the inflation itself: every
    # value matches the one taken from empty orbit memos and the dense oracle
    k, n = 2, 3
    a = random_matrix(k * n, n, 57)
    b = a.with_column(0, [a[0, 0] + F(1, 2), *a.column(0)[1:]])
    beta = F(-1, k)
    oracle = {}
    for m in (a, b):
        sums = _class_sums_naive(inflate(m, k).entries)
        oracle[m, wrdet] = sum(total * beta ** (k * n - len(ct)) for ct, total in sums.items())
        oracle[m, wreath_average_poly] = QPoly(
            sum(
                total * sum(c * beta**j for j, c in enumerate(_class_tables(k * n)[ct][i]))
                for ct, total in sums.items()
            )
            for i in range(k * n + 1)
        )
    cold = {}
    for key in oracle:
        _clear_profile_memos()
        m, fn = key
        cold[key] = fn(m, k)
    calls = []
    real = adet_module._inflation_class_sums
    monkeypatch.setattr(
        adet_module, "_inflation_class_sums", lambda m, k: calls.append(m) or real(m, k)
    )
    for order in ((wrdet, wreath_average_poly), (wreath_average_poly, wrdet)):
        for m in (a, b, a, b):
            for fn in order:
                assert fn(m, k) == cold[m, fn] == oracle[m, fn], (m, fn)
    assert calls == [a, a, b, b] * 4
    _clear_profile_memos()


# every (k, n) with k >= 2 and kn <= 8, and the cap's (3, 3) and (9, 1)
PROFILE_SIZES = [(k, n) for k in range(2, 9) for n in range(1, 8 // k + 1)] + [(3, 3), (9, 1)]


def _inflation_oracle(a: RatMatrix, k: int):
    """Oracle: the dense walk of the integer-scaled inflation."""
    rows, scale = scaled_int_rows(inflate(a, k))
    return class_sums(rows), scale ** len(rows)


@pytest.fixture
def profile_route():
    """_inflation_class_sums, which sums by block profile at every k >= 2,
    with empty orbit memos before and after."""
    _clear_profile_memos()
    yield adet_module._inflation_class_sums
    _clear_profile_memos()


def _clear_profile_memos():
    adet_module._orbit_slots.cache_clear()


def test_profile_sum_matches_the_dense_walk(profile_route):
    # the matrices of one (k, n) share the profile memo, which each one
    # fills further
    rng = SplitMix64(2201)
    for k, n in PROFILE_SIZES:
        a = random_matrix(k * n, n, rng.next_u64())
        rational = RatMatrix(
            [[e / (1 + (i + 2 * j) % 5) for j, e in enumerate(row)]
             for i, row in enumerate(a.entries)]
        )
        zero_row = RatMatrix([[0] * n, *a.entries[1:]])
        replicator = column_replicator(n, k)
        permuted = replicator.permute_rows(random_perm(k * n, rng))
        for m in (a, rational, zero_row, replicator, permuted):
            pairs, denom = profile_route(m, k)
            assert all(total for _, total in pairs)
            assert (dict(pairs), denom) == _inflation_oracle(m, k), (k, n, m)
    for k in (2, 3):
        assert profile_route(RatMatrix(()), k) == ((((), 1),), 1)
    # the profile terms of the type (2, 1, 1) cancel here, and the sum
    # drops it, as class_sums does
    cancelling = RatMatrix([[2, 2], [-1, 2], [1, 1], [-1, -1]])
    pairs, _ = profile_route(cancelling, 2)
    assert len(pairs) == 4 and dict(pairs) == _inflation_oracle(cancelling, 2)[0]


def _no_dense_walk(rows):
    raise AssertionError("the inflation was walked densely")


def test_profile_sum_walks_only_profiles_of_nonzero_weight(profile_route, monkeypatch):
    # a column replicator weighs only the profile k I, rows permuted by g
    # only the profile of g^-1, so each walks the cells of one profile of
    # that orbit, the orbit's first in the listing, and no dense matrix
    walked = []
    real = adet_module._typed_class_sums
    monkeypatch.setattr(adet_module, "class_sums", _no_dense_walk)
    monkeypatch.setattr(adet_module, "_typed_class_sums", lambda c: walked.append(c) or real(c))
    rng = SplitMix64(2202)
    for k, n in [(2, 3), (3, 3), (2, 4)]:
        g = random_perm(k * n, rng)
        profile_route(column_replicator(n, k).permute_rows(g), k)
        slots = adet_module._orbit_slots(k, n)
        ((slot, cells, _),) = [o for o in slots.listing if o[0] is slots[walked[0]]]
        assert walked == [cells], (k, n)
        assert slots[profile_cells(g.inverse(), (k,) * n)] is slot, (k, n)
        walked.clear()


def _profile_orbits(profiles, n: int) -> list[list]:
    """Oracle: the profiles, flat n x n cells, grouped by their orbits under
    relabeling the blocks and transposing, found by applying every
    relabeling."""
    orbits: dict = {}
    for m in profiles:
        images = {
            tuple(c[p[i] * n + p[j]] for i in range(n) for j in range(n))
            for p in itertools.permutations(range(n))
            for c in (m, tuple(m[j * n + i] for i in range(n) for j in range(n)))
        }
        orbits.setdefault(min(images), []).append(m)
    return list(orbits.values())


def _unpack_cells(packed, k: int, n: int) -> tuple[int, ...]:
    """The flat cells of the profile whose rows are packed as base-(k + 1)
    digits, lowest block first."""
    cells = []
    for v in packed:
        for _ in range(n):
            v, d = divmod(v, k + 1)
            cells.append(d)
        assert v == 0
    return tuple(cells)


def test_profiles_of_one_orbit_share_their_class_sums(profile_route):
    # relabeling the blocks (rows and columns permuted together) and
    # transposing keep w(M); the memo's listing holds each profile in one
    # orbit entry, its entries are exactly those orbits, and its slots are
    # the memo's
    for k, n in [(2, 2), (2, 3), (3, 3), (2, 4), (4, 2), (3, 2), (6, 1)]:
        memo = adet_module._orbit_slots(k, n)
        profiles = list(perms_module.block_profiles(k, n))
        listed = [
            [_unpack_cells(packed, k, n) for packed in members] for _, _, members in memo.listing
        ]
        assert sorted(m for members in listed for m in members) == profiles, (k, n)
        orbits = _profile_orbits(profiles, n)
        assert sorted(map(sorted, listed)) == sorted(map(sorted, orbits)), (k, n)
        assert len(memo) == len(profiles), (k, n)
        assert len({id(slot) for slot, _, _ in memo.listing}) == len(orbits), (k, n)
        for (slot, cells, _), members in zip(memo.listing, listed):
            assert cells == members[0]
            assert all(memo[m] is slot for m in members)
            sums = [adet_module._typed_class_sums(m) for m in members]
            assert all(w == sums[0] for w in sums), (k, n, members)


def _check_memo_against_the_walk():
    """The memoized translate_class_sums against the typed walk of each g's
    own mu-profile: every g at the small rectangles, seeded g at kn = 8, 9."""
    rng = SplitMix64(2301)
    cases = [((k,) * n, list(enumerate_perms(k * n))) for k, n in [(2, 2), (2, 3), (3, 2), (6, 1)]]
    cases += [
        ((k,) * n, [random_perm(k * n, rng) for _ in range(200)]) for k, n in [(2, 4), (3, 3), (4, 2)]
    ]
    for mu, perms in cases:
        _clear_profile_memos()
        for g in perms:
            walked = adet_module._typed_class_sums(profile_cells(g, mu))
            assert dict(translate_class_sums(g, mu)) == walked, (g, mu)


def test_memoized_translates_match_the_walk():
    _check_memo_against_the_walk()
    _clear_profile_memos()


def test_memo_grouping_by_row_swaps_alone_fails_the_oracle(monkeypatch):
    # a mutant memo whose orbits are generated by swapping adjacent rows of
    # the profile, without its columns, shares slots between profiles of
    # different class sums, and the oracle check catches it
    real = adet_module._orbit_slots

    @functools.lru_cache(maxsize=1)
    def rows_only(k, n):
        slots = real.__wrapped__(k, n)
        moves = []
        for i in range(n - 1):
            swap = list(range(n))
            swap[i], swap[i + 1] = i + 1, i
            moves.append(operator.itemgetter(*(swap[c // n] * n + c % n for c in range(n * n))))
        slots.moves = tuple(moves)
        return slots

    monkeypatch.setattr(adet_module, "_orbit_slots", rows_only)
    with pytest.raises(AssertionError):
        _check_memo_against_the_walk()
    _clear_profile_memos()


def test_theorem_and_zsf_runs_share_the_orbit_memo(profile_route, monkeypatch):
    # interleaved inflation sums and translates of one (k, n), and the
    # theorem and zsf suites on top of them, read one memo: each against
    # its dense oracle, and no orbit is walked twice
    walked = []
    real = adet_module._typed_class_sums
    monkeypatch.setattr(adet_module, "_typed_class_sums", lambda c: walked.append(c) or real(c))
    rng = SplitMix64(2302)
    for k, n in [(2, 3), (2, 4)]:
        mu = (k,) * n
        walked.clear()
        for _ in range(4):
            a = random_matrix(k * n, n, rng.next_u64())
            pairs, denom = profile_route(a, k)
            assert (dict(pairs), denom) == _inflation_oracle(a, k), (k, n)
            for _ in range(3):
                g = random_perm(k * n, rng)
                rows = _block_ones_rows(g, mu)
                assert dict(translate_class_sums(g, mu)) == class_sums(rows), (k, n, g)
            assert verify_theorem(k, n, 1, rng.next_u64()).passed
            assert verify_zsf(k, n, samples=4, seed=rng.next_u64()).passed
        slots = adet_module._orbit_slots(k, n)
        assert len(walked) == len({id(slot) for slot in slots.values() if slot[0] is not None})
        assert len(walked) == len({id(slots[cells]) for cells in walked})


def test_only_rectangles_with_k_at_least_two_use_the_orbit_memo():
    # at k = 1 the orbits are the conjugacy classes of S_n and every g is
    # its own walk, and a mu that is not rectangular has no block profile
    # of (k, n): neither reads the memo, which stays empty
    rng = SplitMix64(2303)
    _clear_profile_memos()
    for mu in [(1,) * 8, (3, 3, 2), (4, 2, 1, 1), (2, 2, 2, 1, 1), (5, 4), (1,), ()]:
        for _ in range(3):
            g = random_perm(sum(mu), rng)
            assert dict(translate_class_sums(g, mu)) == _translate_cycle_types(g, mu), mu
    assert adet_module._orbit_slots.cache_info().currsize == 0
    translate_class_sums(random_perm(8, rng), (2, 2, 2, 2))
    assert adet_module._orbit_slots.cache_info().currsize == 1
    _clear_profile_memos()


def test_first_profile_is_grouped_when_a_second_is_read(monkeypatch):
    # one read of a (k, n) groups no orbit; the next read groups the first
    # profile's orbit before its own, so g^-1, whose profile is the
    # transpose of g's, finds g's slot and walks nothing
    walked = []
    real = adet_module._typed_class_sums
    monkeypatch.setattr(adet_module, "_typed_class_sums", lambda c: walked.append(c) or real(c))
    rng = SplitMix64(2304)
    for k, n in [(2, 4), (3, 3), (2, 3)]:
        mu = (k,) * n
        _clear_profile_memos()
        walked.clear()
        g = random_perm(k * n, rng)
        first = translate_class_sums(g, mu)
        slots = adet_module._orbit_slots(k, n)
        assert len(slots) == 1 and "moves" not in vars(slots)
        assert translate_class_sums(g.inverse(), mu) == first
        assert len(walked) == 1
        assert slots[profile_cells(g, mu)] is slots[profile_cells(g.inverse(), mu)]
        orbit = {id(slot) for slot in slots.values()}
        assert len(orbit) == 1 and len(slots) > 1
    _clear_profile_memos()


def test_class_sums_walks_the_inflation_only_at_k1(monkeypatch):
    # at k = 1 the inflation is the matrix itself, walked as it is; every
    # k >= 2 sums by block profile and walks no dense matrix
    walked = []
    real = adet_module.class_sums
    monkeypatch.setattr(adet_module, "class_sums", lambda rows: walked.append(rows) or real(rows))
    rng = SplitMix64(2203)
    for size in range(1, ADET_CAP + 1):
        for k in range(1, size + 1):
            if size % k:
                continue
            n = size // k
            a = random_matrix(size, n, rng.next_u64())
            pairs, _ = adet_module._inflation_class_sums(a, k)
            if k == 1:
                (rows,) = walked
                assert rows == scaled_int_rows(a)[0]
            else:
                assert walked == [], (k, n)
            assert dict(pairs) == _inflation_oracle(a, k)[0], (k, n)
            walked.clear()
    _clear_profile_memos()


# every (k, n) with k >= 2 and kn <= 9; k = 1 walks the matrix itself
SUMMED_SIZES = [(k, n) for k in range(2, ADET_CAP + 1) for n in range(1, ADET_CAP // k + 1)]


def test_packed_listing_rows_decode_to_their_profile_rows(profile_route):
    # every profile is listed once, its rows packed as base-(k + 1) digits,
    # and each orbit entry's cells are its first member's
    for k, n in SUMMED_SIZES:
        listing = adet_module._orbit_slots(k, n).listing
        decoded = []
        for _, cells, members in listing:
            assert all(len(packed) == n for packed in members)
            profiles = [_unpack_cells(packed, k, n) for packed in members]
            assert cells == profiles[0], (k, n)
            decoded += profiles
        assert sorted(decoded) == list(perms_module.block_profiles(k, n)), (k, n)


def _profile_weights(a: RatMatrix, k: int) -> dict:
    """Oracle: weight(M) for every block profile M, each row block's
    coefficient found by trying every choice of a column block per row."""
    n = a.cols
    by_block = []
    for r in range(n):
        coefficient: dict = {}
        for picks in itertools.product(range(n), repeat=k):
            term = F(1)
            for i, b in enumerate(picks):
                term *= a[r * k + i, b]
            row = tuple(picks.count(b) for b in range(n))
            coefficient[row] = coefficient.get(row, 0) + term
        by_block.append(coefficient)
    return {
        m: functools.reduce(
            operator.mul, (c[m[r * n : r * n + n]] for r, c in enumerate(by_block)), F(1)
        )
        for m in perms_module.block_profiles(k, n)
    }


def _with_corner(a: RatMatrix, t) -> RatMatrix:
    return a.with_column(0, [t, *a.column(0)[1:]])


def _root_in_the_corner(a: RatMatrix, value) -> F | None:
    """The t at which value(a with a[0, 0] = t), linear in t, vanishes, or
    None when it does not depend on t."""
    v0, v1 = value(_with_corner(a, 0)), value(_with_corner(a, 1))
    return None if v0 == v1 else v0 / (v0 - v1)


def _inflation_value(a: RatMatrix, k: int, rho) -> F:
    """Oracle: the class sum of type rho of inflate(a, k), unscaled."""
    sums, denom = _inflation_oracle(a, k)
    return F(sums.get(rho, 0), denom)


def test_cancelling_orbit_weights_drop_what_the_dense_walk_drops(profile_route, monkeypatch):
    # every weight is linear in the entry a[0, 0], so the weights of one
    # orbit can be made to cancel, W_o = 0, by solving for it; past n = 2
    # the orbit has two or more profiles of nonzero weight, and up to n = 2
    # every orbit is one profile, so W_o is that profile's weight.  The
    # orbit is never walked, and the sum matches the dense walk.  Solving
    # for one type's total instead makes the dense walk drop that type, and
    # the sum drops it too
    walked = []
    real = adet_module._typed_class_sums
    monkeypatch.setattr(adet_module, "_typed_class_sums", lambda c: walked.append(c) or real(c))
    rng = SplitMix64(2601)
    for k, n in SUMMED_SIZES:
        # no zero entry, so that no weight of an orbit that picks a[0, 0]
        # is cut off from it
        drawn = random_matrix(k * n, n, rng.next_u64())
        a = RatMatrix([[e or 1 for e in row] for row in drawn.entries])
        orbits = sorted(_profile_orbits(perms_module.block_profiles(k, n), n), key=len)
        assert (len(orbits[-1]) > 1) == (n > 2), (k, n)
        for members in reversed(orbits):
            t = _root_in_the_corner(a, lambda m: sum(_profile_weights(m, k)[p] for p in members))
            if t is not None:
                break
        cancelled = _with_corner(a, t)
        weights = _profile_weights(cancelled, k)
        assert sum(weights[p] for p in members) == 0
        if len(members) > 1:
            assert sum(1 for p in members if weights[p]) >= 2, (k, n)
        _clear_profile_memos()
        walked.clear()
        pairs, _ = profile_route(cancelled, k)
        assert all(total for _, total in pairs)
        assert dict(pairs) == _inflation_oracle(cancelled, k)[0], (k, n)
        orbit = set(members)
        assert not orbit & set(walked), (k, n)
        # one type's total made to vanish
        totals = _inflation_oracle(a, k)[0]
        for rho in sorted(totals):
            t = _root_in_the_corner(a, lambda m: _inflation_value(m, k, rho))
            if t is not None:
                break
        dropped = _with_corner(a, t)
        oracle = _inflation_oracle(dropped, k)[0]
        assert rho not in oracle
        pairs, _ = profile_route(dropped, k)
        assert all(total for _, total in pairs)
        assert dict(pairs) == oracle, (k, n)


def test_wreath_average_left_invariance():
    a = random_matrix(4, 2, 33)
    for g in _young_subgroup((2, 2)):
        assert wreath_average_poly(a.permute_rows(g), 2) == wreath_average_poly(a, 2)


def test_wreath_average_column_scaling():
    a = random_matrix(4, 2, 44)
    scaled = a.with_column(1, [5 * v for v in a.column(1)])
    assert wreath_average_poly(scaled, 2) == 25 * wreath_average_poly(a, 2)


def test_subgroup_avg_trivial_and_full():
    a = random_matrix(4, 4, 21)
    assert subgroup_avg_adet(a, 1) == adet_poly(a)
    ones = RatMatrix.ones(4, 4)
    # full-group average of the all-ones matrix: 4! copies of its adet
    assert subgroup_avg_adet(ones, 4) == factorial(4) * content_poly((4,))


def test_subgroup_avg_divisibility():
    for seed in (1, 2, 3):
        a = random_matrix(5, 5, seed)
        total = subgroup_avg_adet(a, 3)
        total.exact_div(content_poly((3,)))


def test_subgroup_avg_rejects_bad_k():
    with pytest.raises(ValueError):
        subgroup_avg_adet(RatMatrix.identity(3), 4)


def test_weak_alternating_vanishing():
    rng = SplitMix64(500)
    for n, k in [(5, 1), (5, 2), (6, 2), (6, 3)]:
        for _ in range(3):
            a = random_matrix(n, n, rng.next_u64())
            col = a.column(0)
            for j in range(1, k + 1):
                a = a.with_column(j, col)
            assert adet_at(a, F(-1, k)) == 0


def test_adet2_immanant_decomposition():
    from alphadet.characters import immanant
    from alphadet.partitions import num_standard_tableaux

    for n, seed in [(3, 61), (4, 62), (5, 63)]:
        a = random_matrix(n, n, seed)
        expected = QPoly2.zero()
        for shape in partitions_of(n):
            fp = content_poly(shape)
            weight = F(num_standard_tableaux(shape), factorial(n)) * immanant(shape, a)
            expected = expected + weight * QPoly2.outer(fp, fp)
        assert adet2_poly(a) == expected


def test_adet2_of_block_ones_expansion():
    # expansion over shapes weighted by tableau counts and Kostka numbers
    from alphadet.partitions import kostka_ssyt, num_standard_tableaux

    for k, n in [(2, 2), (1, 3), (3, 1)]:
        size = k * n
        expected = QPoly2.zero()
        for shape in partitions_of(size):
            count = kostka_ssyt(shape, (k,) * n)
            if count:
                fp = content_poly(shape)
                weight = F(factorial(k) ** n, factorial(size)) * num_standard_tableaux(
                    shape
                ) * count
                expected = expected + weight * QPoly2.outer(fp, fp)
        assert adet2_poly(block_ones((k,) * n)) == expected


def test_structured_cap(monkeypatch):
    # the cap comes first, so a huge g is refused without its n x n matrix
    # or its mu-profile
    def no_matrix(*args):
        raise AssertionError("the cap must be checked before materializing")

    monkeypatch.setattr(matrices_module, "block_ones", no_matrix)
    monkeypatch.setattr(RatMatrix, "permute_rows", no_matrix)
    monkeypatch.setattr(adet_module, "profile_cells", no_matrix)
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        adet2_structured(PermutedBlockOnes(Perm.identity(10), (1,) * 10), F(1), F(1))
    with pytest.raises(SizeCapExceeded):
        adet2_structured(PermutedBlockOnes(Perm.identity(10), (10,)), F(1), F(1))


def test_wreath_average_cap():
    # kn = 9 is the cap of both sides of the main identity
    a = random_matrix(9, 3, 1)
    assert wreath_average_poly(a, 3) == content_poly((3, 3, 3)) * wrdet(a, 3)
    with pytest.raises(SizeCapExceeded):
        wreath_average_poly(random_matrix(10, 5, 1), 2)


def test_inflation_caps_come_before_inflate(monkeypatch):
    # kn is checked against the cap first, so an oversized kn x kn inflation
    # is refused without being built
    def no_inflation(a, k):
        raise AssertionError("the cap must be checked before inflating")

    with monkeypatch.context() as m:
        # and wherever the package holds a reference to it
        for module in (matrices_module, adet_module):
            if hasattr(module, "inflate"):
                m.setattr(module, "inflate", no_inflation)
        with pytest.raises(SizeCapExceeded, match=r"^n=3000 exceeds alpha-determinant cap 9$"):
            wrdet(RatMatrix.ones(3000, 1), 3000)
        with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
            wreath_average_poly(random_matrix(10, 5, 1), 2)
    # a bad shape or k is still inflate's to refuse, whatever its size
    for fn in (wrdet, wreath_average_poly):
        with pytest.raises(DimensionMismatch):
            fn(RatMatrix.ones(20, 3), 5)
        with pytest.raises(ValueError):
            fn(RatMatrix.ones(20, 4), 0)


def test_det_power_coeff_known_values():
    identity_profile = block_profile(Perm.identity(4), 2, 2)
    assert det_power_coeff(identity_profile, 2) == 1
    crossing = block_profile(Perm.from_cycles(4, [(2, 3)]), 2, 2)
    assert crossing == (1, 1, 1, 1)
    assert det_power_coeff(crossing, 2) == -2
    swap = block_profile(Perm.from_cycles(4, [(1, 3), (2, 4)]), 2, 2)
    assert swap == (0, 2, 2, 0)
    assert det_power_coeff(swap, 2) == 1


def _det_power_coeff_naive(profile, k: int) -> int:
    """Oracle: the sign products of every k-tuple of permutations of S_n
    whose permutation matrices sum to the profile, flat row-major cells,
    with no pruning."""
    n = isqrt(len(profile))
    perms = list(perm_tuples(n))
    total = 0
    for tup in itertools.product(perms, repeat=k):
        cells = [0] * (n * n)
        sign = 1
        for p in tup:
            sign *= -1 if _trans_len(p) % 2 else 1
            for i in range(n):
                cells[i * n + p[i] - 1] += 1
        if tuple(cells) == profile:
            total += sign
    return total


def test_det_power_coeff_matches_unpruned_expansion():
    rng = SplitMix64(44)
    # k >= 3 has layers where residuals of different prefixes merge
    cases = [(n, 1) for n in range(1, 6)] + [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (3, 4)]
    for n, k in cases:
        for _ in range(6):
            profile = block_profile(random_perm(n * k, rng), n, k)
            assert det_power_coeff(profile, k) == _det_power_coeff_naive(profile, k), (
                profile,
                k,
            )
    mismatched = block_profile(Perm.identity(4), 2, 2)
    for profile, k in [(mismatched, 1), (mismatched, 3), ((0,), 0)]:
        with pytest.raises(ValueError):
            det_power_coeff(profile, k)


def test_det_power_coeff_refuses_negative_cells():
    # det(X)^k has no monomial with a negative exponent, so a grid with a
    # negative cell is refused even when its rows and columns sum to k; the
    # expansion once returned -1 for this one
    with pytest.raises(ValueError, match=r"^profile cells must be non-negative$"):
        det_power_coeff((2, 1, -1, 0, 1, 1, 0, 0, 2), 2)
    # every 3 x 3 grid with entries in -1..3 and all sums 2: the profiles
    # are read, and each grid with a negative cell is refused
    read = 0
    for top in itertools.product(range(-1, 4), repeat=6):
        cells = top + tuple(2 - top[j] - top[3 + j] for j in range(3))
        if sum(top[:3]) != 2 or sum(top[3:]) != 2 or not -1 <= min(cells) <= max(cells) <= 3:
            continue
        if min(cells) < 0:
            with pytest.raises(ValueError, match=r"^profile cells must be non-negative$"):
                det_power_coeff(cells, 2)
        else:
            assert det_power_coeff(cells, 2) == _det_power_coeff_naive(cells, 2), cells
            read += 1
    assert read == len(perms_module.block_profiles(2, 3)) == 21


def test_det_power_coeff_closed_form_at_n2():
    # det(X)^k = (x11 x22 - x12 x21)^k, so the profile ((a, k - a), (k - a, a))
    # has coefficient (-1)^(k - a) C(k, a); past k = 24, a few a per k keep
    # the test short
    for k in [*range(1, 25), 100, 300]:
        for a in range(k + 1) if k <= 24 else (0, 1, k // 3, k // 2, k - 1, k):
            profile = (a, k - a, k - a, a)
            assert det_power_coeff(profile, k) == (-1) ** (k - a) * comb(k, a), (k, a)


def test_det_power_coeff_of_the_empty_and_the_1x1_grid():
    # det of the 0 x 0 matrix is 1, and det(x)^k = x^k, so both
    # coefficients are 1 for every k
    for k in range(1, 5):
        assert det_power_coeff((), k) == 1, k
    for k in range(1, 24):
        assert det_power_coeff((k,), k) == 1, k


@cache
def _det_power_buckets(k: int, n: int) -> dict:
    """Oracle: every k-tuple of S_n bucketed once by the flat cells of the
    sum of its permutation matrices, with the sign products added up."""
    signed = []
    for p in perm_tuples(n):
        cells = [0] * (n * n)
        for i in range(n):
            cells[i * n + p[i] - 1] = 1
        signed.append((cells, -1 if _trans_len(p) % 2 else 1))
    buckets: dict = {}
    for tup in itertools.product(signed, repeat=k):
        key = tuple(map(sum, zip(*(cells for cells, _ in tup))))
        buckets[key] = buckets.get(key, 0) + functools.reduce(operator.mul, (s for _, s in tup))
    return buckets


@pytest.mark.parametrize(
    "k, n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
)
def test_det_power_coeff_matches_the_exhaustive_tuple_buckets(k, n):
    # the sums of k permutation matrices are exactly the block profiles
    # (Birkhoff), and each profile's coefficient is its bucket, zeros kept
    buckets = _det_power_buckets(k, n)
    profiles = perms_module.block_profiles(k, n)
    assert len(profiles) == len(set(profiles)) == len(buckets)
    assert set(profiles) == set(buckets)
    for profile in profiles:
        assert det_power_coeff(profile, k) == buckets[profile], profile


def test_det_power_coeff_at_k2_lists_no_permutation(monkeypatch):
    # k = 2 reads its pairs off the residual's cycles, so neither the
    # coefficient nor a k = 2 zsf run builds the signed cells of S_n
    expected = _det_power_buckets(2, 4)

    def no_signed_cells(n):
        raise AssertionError("k = 2 must not build _signed_cells")

    monkeypatch.setattr(adet_module, "_signed_cells", no_signed_cells)
    for profile in perms_module.block_profiles(2, 4):
        assert det_power_coeff(profile, 2) == expected[profile], profile
    report = verify_zsf(2, 4, samples=64, seed=1)
    assert report.passed and len(report.cases) == 64
    # k = 3 still runs one layer over the signed cells, so the patch is live
    with pytest.raises(AssertionError, match="must not build _signed_cells"):
        det_power_coeff(block_profile(Perm.identity(6), 2, 3), 3)


@st.composite
def _small_profiles(draw):
    """A block profile of a random permutation of S_kn with kn <= 9, and a
    relabeling of its n blocks."""
    k, n = draw(st.sampled_from([(k, n) for k in range(1, 10) for n in range(1, 10) if k * n <= 9]))
    sigma = Perm(draw(st.permutations(range(1, k * n + 1))))
    relabel = draw(st.permutations(range(n)))
    return block_profile(sigma, n, k), k, n, relabel


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(drawn=_small_profiles())
def test_det_power_coeff_is_invariant_under_transpose_and_relabeling(drawn):
    # det(X^T) = det(P X P^T) = det(X), so the coefficient of a profile is
    # that of its transpose and of any relabeling of rows and columns alike
    cells, k, n, relabel = drawn
    coeff = det_power_coeff(cells, k)
    transposed = tuple(cells[j * n + i] for i in range(n) for j in range(n))
    assert det_power_coeff(transposed, k) == coeff
    relabeled = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            relabeled[relabel[i] * n + relabel[j]] = cells[i * n + j]
    assert det_power_coeff(tuple(relabeled), k) == coeff


def test_det_power_coeff_checks_k_before_the_power():
    # the cells are checked first, in this order: a square length, no
    # negative cell, a positive k, and every row and column summing to k;
    # then the count of the layers' residual tests, whose lower bound
    # (k - 2) n! refuses a huge k before any layer runs
    negative = r"^profile cells must be non-negative$"
    sums = r"^k=10000000 must be positive and equal every row and column sum$"
    for cells, k, message in [
        ((2, 0), 2, r"^2 cells are not an n x n profile$"),
        ((2, 0, 0, 1, 1), 2, r"^5 cells are not an n x n profile$"),
        ((2, -1, 0), 0, r"^3 cells are not an n x n profile$"),
        ((-1, 3, 3, -1), 0, negative),
        ((-1, 3, 3, -1), 10**7, negative),
        ((1, 2, 0, 0), 0, r"^k=0 must be positive"),
        ((0, 0, 0, 0), 0, r"^k=0 must be positive"),
        ((2, 1, 0, 1), 2, r"^k=2 must be positive and equal"),  # rows sum to 3 and 1
        ((2, 0, 2, 0), 2, r"^k=2 must be positive and equal"),  # columns sum to 4 and 0
        ((2, 0, 0, 2), 3, r"^k=3 must be positive and equal"),
        ((1, 0, 0, 1), 10**7, sums),
        ((10**7, 0, 0, 0, 10**7, 0, 0, 0, 1), 10**7, sums),
    ]:
        with pytest.raises(ValueError, match=message):
            det_power_coeff(cells, k)
    assert det_power_coeff((), 1) == 1  # the empty determinant
    k1_profile = block_profile(Perm.identity(3), 3, 1)
    with pytest.raises(ValueError, match=sums):
        det_power_coeff(k1_profile, 10**7)
    # one residual per layer of n! = 6 or 2 tests puts these far under the
    # cap, however large (n!)^k is
    for k, n in [(6000, 3), (23, 2), (24, 2)]:
        diagonal = tuple(k if i % (n + 1) == 0 else 0 for i in range(n * n))
        assert det_power_coeff(diagonal, k) == 1, (k, n)
    # the 7 x 7 all-ones grid at k = 7 leaves 5040 residuals after its first
    # layer, so the second would make 5040 * 5040 tests; n = 1 refuses
    # 10^9 - 2 layers of one test each before the first
    with pytest.raises(SizeCapExceeded, match=r"^k=7, n=7 needs over 10000000 residual tests$"):
        det_power_coeff((1,) * 49, 7)
    with pytest.raises(SizeCapExceeded, match=r"^k=1000000000, n=1 needs over 10000000 residual"):
        det_power_coeff((10**9,), 10**9)
    assert det_power_coeff((30,), 30) == 1


def test_det_power_coeff_is_not_bounded_by_the_recursion_limit():
    # at n = 1 each of the k - 2 layers tests one residual against the one
    # permutation, so k = 2000 is far under the cap; the layers are run by a
    # loop, without recursing once per factor
    assert det_power_coeff((2000,), 2000) == 1


def test_det_power_coeff_at_k1_enumerates_no_permutation(monkeypatch):
    # a profile of row and column sums 1 is a permutation matrix: the
    # coefficient is its sign, read without listing S_n
    def no_enumeration(n):
        raise AssertionError("k = 1 must not enumerate S_n")

    monkeypatch.setattr(adet_module, "perm_tuples", no_enumeration)
    rng = SplitMix64(45)
    for _ in range(5):
        sigma = random_perm(9, rng)
        expected = -1 if sigma.transposition_length % 2 else 1
        assert det_power_coeff(block_profile(sigma, 9, 1), 1) == expected


def _det_square_naive(cells, n: int) -> int:
    """Oracle at k = 2: every sigma of S_n whose cells fit in the profile,
    signed by sign(sigma) sign(tau) for the permutation tau left over."""
    total = 0
    for p in perm_tuples(n):
        left = list(cells)
        for i in range(n):
            left[i * n + p[i] - 1] -= 1
        if min(left) >= 0:
            tau = [left.index(1, i * n, i * n + n) - i * n + 1 for i in range(n)]
            total += (-1) ** (_trans_len(p) + _trans_len(tau))
    return total


def test_det_power_coeff_caps_no_k_up_to_2():
    # k <= 2 lists no permutation, so no size bounds it: a permutation
    # profile of size 12 is read by its sign, and (2,7) and (2,12) are read
    # off the residual's cycles
    rng = SplitMix64(46)
    for _ in range(5):
        sigma = random_perm(12, rng)
        expected = -1 if sigma.transposition_length % 2 else 1
        assert det_power_coeff(block_profile(sigma, 12, 1), 1) == expected
        cells = block_profile(random_perm(14, rng), 7, 2)
        assert det_power_coeff(cells, 2) == _det_square_naive(cells, 7), cells
    assert det_power_coeff(block_profile(Perm.identity(14), 7, 2), 2) == 1
    # the identity plus one 12-cycle is a single cycle through all rows: the
    # pairs (id, c) and (c, id), each of sign (-1)^11
    cycle = tuple(int(j in (i, (i + 1) % 12)) for i in range(12) for j in range(12))
    assert det_power_coeff(cycle, 2) == -2
    assert det_power_coeff(block_profile(Perm.identity(24), 12, 2), 2) == 1


def test_det_power_coeff_refuses_n_past_the_exhaustive_cap_before_listing(monkeypatch):
    # at k >= 3 the layers scan S_n, so n = 8 is refused before S_n is
    # listed, while k = 2 at n = 8 lists nothing and is admitted
    def no_enumeration(n):
        raise AssertionError("S_n must not be listed")

    monkeypatch.setattr(adet_module, "perm_tuples", no_enumeration)
    for k in (3, 4, 10**9):
        with pytest.raises(SizeCapExceeded, match=r"^n=8 exceeds exhaustive cap 7$"):
            det_power_coeff(tuple(k if i % 9 == 0 else 0 for i in range(64)), k)
    with pytest.raises(SizeCapExceeded, match=r"^n=8 exceeds exhaustive cap 7$"):
        det_power_coeff(block_profile(random_perm(24, SplitMix64(47)), 8, 3), 3)
    assert det_power_coeff(block_profile(Perm.identity(16), 8, 2), 2) == 1


def test_det_power_coeff_counts_each_residual_test_against_the_cap(monkeypatch):
    # the layers read the signed cells of S_n once per residual, and test
    # that residual against all n! of them: a profile is admitted with the
    # cap at exactly its count of tests and refused one below it
    read = []
    signed = adet_module._signed_cells
    monkeypatch.setattr(adet_module, "_signed_cells", lambda n: read.append(n) or signed(n))
    cases = []
    for k, n in [(3, 3), (5, 3), (12, 3), (4, 4), (3, 7), (4, 7)]:
        q, r = divmod(k, n)
        cells = tuple(q + ((j - i) % n < r) for i in range(n) for j in range(n))
        read.clear()
        coeff = det_power_coeff(cells, k)
        cases.append((cells, k, coeff, len(read) * factorial(n)))
    assert [tests for *_, tests in cases] == [6, 126, 5838, 600, 5040, 730800]
    for cells, k, coeff, tests in cases:
        monkeypatch.setattr(adet_module, "DET_POWER_TERM_CAP", tests)
        assert det_power_coeff(cells, k) == coeff
        monkeypatch.setattr(adet_module, "DET_POWER_TERM_CAP", tests - 1)
        with pytest.raises(SizeCapExceeded, match=f" needs over {tests - 1} residual tests$"):
            det_power_coeff(cells, k)
