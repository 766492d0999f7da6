from fractions import Fraction as F

import pytest

from alphadet.errors import DimensionMismatch, SizeCapExceeded
from alphadet.matrices import (
    PermutedBlockOnes,
    RatMatrix,
    block_ones,
    column_replicator,
    inflate,
    perm_matrix,
)
from alphadet.partitions import partitions_of
from alphadet.perms import Perm
from alphadet.randmat import SplitMix64, random_matrix, random_perm

from test_perms import _young_subgroup


def test_json_round_trip():
    m = RatMatrix([[F(1, 2), -3], [0, F(7, 5)]])
    data = m.to_json_dict()
    assert data == {"rows": 2, "cols": 2, "entries": [["1/2", "-3"], ["0", "7/5"]]}
    assert RatMatrix.from_json(m.to_json()) == m


def test_json_dimension_check():
    with pytest.raises(DimensionMismatch):
        RatMatrix.from_json('{"rows": 2, "cols": 2, "entries": [["1", "2"]]}')
    with pytest.raises(DimensionMismatch, match="nested too deeply"):
        RatMatrix.from_json("[" * 10**5 + "]" * 10**5)


class _Tagged(F):
    """A Fraction subclass, which an entry must not stay."""


def test_entries_are_plain_fractions():
    # entries are tested by type, not isinstance: ints and Fraction
    # subclasses alike are made plain Fractions, and a Fraction is kept
    half = F(1, 2)
    m = RatMatrix([[1, half], [_Tagged(3, 4), True]])
    assert m.entries == ((F(1), F(1, 2)), (F(3, 4), F(1)))
    assert {type(e) for row in m.entries for e in row} == {F}
    assert m[0, 1] is half


def test_inflate_examples():
    col = RatMatrix([[3], [5]])
    assert inflate(col, 2) == RatMatrix([[3, 3], [5, 5]])
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        assert inflate(column_replicator(n, k), k) == block_ones((k,) * n)
    with pytest.raises(DimensionMismatch):
        inflate(RatMatrix([[1, 2], [3, 4]]), 2)


def test_inflate_right_invariance():
    a = random_matrix(4, 2, 10)
    b = inflate(a, 2)
    for g in _young_subgroup((2, 2)):
        assert b.permute_columns(g) == b


def test_inflate_commutes_with_left_multiplication():
    a = random_matrix(4, 2, 11)
    p = random_matrix(4, 4, 12)
    assert inflate(p @ a, 2) == p @ inflate(a, 2)


def test_block_ones():
    assert block_ones((3,)) == RatMatrix.ones(3, 3)
    assert block_ones((1, 1, 1)) == RatMatrix.identity(3)
    expected = RatMatrix(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    )
    assert block_ones((2, 2)) == expected


def test_row_column_permutation_agree_with_matrix_product():
    a = random_matrix(4, 4, 13)
    for g in [Perm.from_cycles(4, [(1, 2, 3)]), Perm.from_cycles(4, [(2, 4)])]:
        assert a.permute_columns(g) == a @ perm_matrix(g)
        assert a.permute_rows(g) == perm_matrix(g) @ a


def test_permuted_block_ones_materialization():
    # P(g) 1_mu is block_ones(mu).permute_rows(g): entry (r, c) is 1 iff
    # g^-1(r) and c share a mu-block, and P(g) times block_ones(mu) is the oracle
    g = Perm.from_cycles(4, [(2, 3)])
    m = block_ones((2, 2)).permute_rows(g)
    for r in range(4):
        for c in range(4):
            same_block = (g.inverse()(r + 1) - 1) // 2 == c // 2
            assert m[r, c] == (1 if same_block else 0)
    rng = SplitMix64(77)
    for n in range(1, 7):
        for mu in partitions_of(n):
            g = random_perm(n, rng)
            assert block_ones(mu).permute_rows(g) == perm_matrix(g) @ block_ones(mu)


def test_permuted_block_ones_checks_size_and_is_a_value():
    g = Perm.from_cycles(4, [(2, 3)])
    with pytest.raises(DimensionMismatch, match=r"^permutation size != sum\(mu\)$"):
        PermutedBlockOnes(g, (2, 1))
    with pytest.raises(DimensionMismatch):
        PermutedBlockOnes(g=g, mu=(3, 2))
    s = PermutedBlockOnes(g=g, mu=(2, 2))
    assert (s.g, s.mu) == (g, (2, 2))
    same = PermutedBlockOnes(Perm([1, 3, 2, 4]), (2, 2))
    assert s == same and hash(s) == hash(same)
    assert len({s, same}) == 1
    assert s != PermutedBlockOnes(g, (3, 1))
    assert s != PermutedBlockOnes(Perm.identity(4), (2, 2))
    assert s != (g, (2, 2))


def test_permuted_block_ones_refuses_a_part_below_one():
    # a negative part let (3, -1, 2) pass the size check, and a zero part
    # is no block either: both are refused, as check_partition refuses them
    g = Perm([2, 1, 4, 3])
    with pytest.raises(ValueError, match=r"^parts must be positive: \(3, -1, 2\)$"):
        PermutedBlockOnes(g, (3, -1, 2))
    with pytest.raises(ValueError, match=r"^parts must be positive: \(2, 0, 2\)$"):
        PermutedBlockOnes(g, (2, 0, 2))
    with pytest.raises(ValueError):
        PermutedBlockOnes(g, (0, 4))
    # compositions that are not partitions stay admitted
    assert PermutedBlockOnes(g, (1, 3)).mu == (1, 3)


def test_random_matrix_deterministic():
    a = random_matrix(3, 2, 42)
    b = random_matrix(3, 2, 42)
    assert a == b


def test_random_matrix_seed_sensitivity():
    for seed in range(10):
        assert random_matrix(3, 2, seed) != random_matrix(3, 2, seed + 1)


def test_random_matrix_entry_range():
    m = random_matrix(20, 20, 7)
    values = {e for row in m.entries for e in row}
    assert all(-9 <= v <= 9 for v in values)
    assert all(v.denominator == 1 for v in values)


def test_random_matrix_cap():
    with pytest.raises(SizeCapExceeded):
        random_matrix(101, 101, 0)


def test_splitmix_reference_values():
    # first outputs for seed 0 of the standard SplitMix64 stream
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
