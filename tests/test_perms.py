import itertools
from functools import cache
from math import factorial

import pytest

import alphadet.perms as perms_module
import alphadet.verify as verify_module

from alphadet.errors import SizeCapExceeded
from alphadet.matrices import perm_matrix
from alphadet.partitions import content_poly, partitions_of
from alphadet.perms import (
    EXHAUSTIVE_CAP,
    FOURIER_JM_CAP,
    Perm,
    _compose,
    _trans_len,
    block_profile,
    block_profiles,
    double_coset_index,
    enumerate_perms,
    format_perm,
    jucys_murphy_product,
    parse_perm,
    perm_tuples,
    profile_cells,
    profile_coset_index,
    young_blocks,
    young_subgroup_order,
)
from alphadet.polynomials import QPoly
from alphadet.randmat import SplitMix64, random_perm


def _young_subgroup(mu):
    """Oracle: every element of the Young subgroup of mu, the blockwise
    permutations of S_n, n = sum(mu)."""
    per_block = [itertools.permutations(b) for b in young_blocks(mu)]
    for choice in itertools.product(*per_block):
        yield Perm(v for part in choice for v in part)


def _perm_of_cycle_type(rho, n):
    """Oracle: a permutation of cycle type rho, its cycles laid out on
    consecutive letters."""
    assert sum(rho) == n
    cycles = []
    start = 1
    for length in rho:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return Perm.from_cycles(n, cycles)


def _coset_factor(tau: Perm, k: int) -> Perm:
    """Oracle: the unique c in S_k (fixing k+1..n) with
    transposition_length(tau * s) = transposition_length(tau * c^-1)
    + transposition_length(c * s) for every s in S_k.

    Found by exhaustive search over all k! candidates, each checked against
    all k! right factors; existence and uniqueness are part of the claim, so
    zero or several survivors fail the test.
    """
    n = tau.n
    t = tau.images
    subgroup = [_embed(s, n) for s in perm_tuples(k)]
    found = []
    for cand in subgroup:
        base = _trans_len(_compose(t, Perm(cand).inverse().images))
        if all(
            _trans_len(_compose(t, s)) == base + _trans_len(_compose(cand, s))
            for s in subgroup
        ):
            found.append(cand)
    assert len(found) == 1, f"{len(found)} coset factors for {tau!r} with k={k}"
    return Perm(found[0])


def _embed(images, n: int) -> tuple[int, ...]:
    """The images of S_k in S_n fixing the letters k+1..n."""
    return tuple(images) + tuple(range(len(images) + 1, n + 1))


def _check_weak_alternating(tau: Perm, k: int) -> None:
    """Check the lemma the coset factor c of tau serves: sum over s in S_k
    of a^len(tau s) = a^len(tau c^-1) * content_poly((k,))."""
    c = _coset_factor(tau, k)
    n = tau.n
    coeffs = [0] * n
    for s in perm_tuples(k):
        coeffs[_trans_len(_compose(tau.images, _embed(s, n)))] += 1
    base = (tau * c.inverse()).transposition_length
    assert QPoly(coeffs) == QPoly.monomial(base) * content_poly((k,)), (tau, k)


def test_enumerate_small():
    assert list(enumerate_perms(1)) == [Perm.identity(1)]
    perms3 = list(enumerate_perms(3))
    assert len(perms3) == 6
    assert perms3[0].images == (1, 2, 3)
    assert perms3[-1].images == (3, 2, 1)
    assert len(list(enumerate_perms(4))) == 24


def test_enumerate_cap():
    # one exhaustive cap bounds every listing of S_m, this one included
    assert EXHAUSTIVE_CAP == 7 and not hasattr(perms_module, "ENUM_CAP")
    assert sum(1 for _ in enumerate_perms(7)) == 5040
    for n in (8, 11):
        with pytest.raises(SizeCapExceeded, match=rf"^n={n} exceeds exhaustive cap 7$"):
            list(enumerate_perms(n))


def test_transposition_length_examples():
    assert Perm.identity(4).transposition_length == 0
    assert Perm.from_cycles(4, [(1, 2)]).transposition_length == 1
    assert Perm.from_cycles(4, [(1, 2, 3, 4)]).transposition_length == 3


def test_length_plus_cycles_is_size():
    for n in range(1, 7):
        for p in enumerate_perms(n):
            assert p.transposition_length + p.cycle_count == n


def test_cycle_type_examples():
    assert Perm.identity(3).cycle_type() == (1, 1, 1)
    assert Perm.from_cycles(4, [(1, 2), (3, 4)]).cycle_type() == (2, 2)
    assert Perm.from_cycles(4, [(1, 2, 3)]).cycle_type() == (3, 1)


def test_perm_matrix_homomorphism():
    assert perm_matrix(Perm.identity(3)).entries == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    rng = SplitMix64(5)
    for _ in range(10):
        s, t = random_perm(4, rng), random_perm(4, rng)
        assert perm_matrix(s) @ perm_matrix(t) == perm_matrix(s * t)


def test_perm_matrix_doubly_stochastic():
    for p in enumerate_perms(4):
        m = perm_matrix(p)
        for i in range(4):
            assert sum(m.entries[i]) == 1
            assert sum(row[i] for row in m.entries) == 1


def test_inverse_and_composition():
    p = Perm([3, 1, 4, 2])
    assert (p * p.inverse()).is_identity()
    q = Perm([2, 1, 3, 4])
    assert (p * q).images == tuple(p(q(i)) for i in range(1, 5))


def test_serialization():
    assert format_perm(Perm([2, 1, 3])) == "2,1,3"
    assert parse_perm("2,1,3") == Perm([2, 1, 3])
    with pytest.raises(ValueError):
        Perm([1, 1, 2])


def test_young_subgroup_small():
    assert list(_young_subgroup((1, 1, 1, 1))) == [Perm.identity(4)]
    members = set(_young_subgroup((2, 2)))
    assert members == {
        Perm.identity(4),
        Perm.from_cycles(4, [(1, 2)]),
        Perm.from_cycles(4, [(3, 4)]),
        Perm.from_cycles(4, [(1, 2), (3, 4)]),
    }
    assert set(_young_subgroup((4,))) == set(enumerate_perms(4))
    assert young_subgroup_order((3, 2, 1)) == 12


def test_coset_factor_examples():
    assert _coset_factor(Perm.identity(4), 2) == Perm.identity(4)
    assert _coset_factor(Perm.from_cycles(4, [(1, 2)]), 2) == Perm.from_cycles(4, [(1, 2)])
    assert _coset_factor(Perm.from_cycles(4, [(1, 3)]), 2) == Perm.identity(4)


def test_coset_factor_exists_uniquely_exhaustive():
    # existence and uniqueness are verified inside _coset_factor itself
    for n in range(1, 6):
        for tau in enumerate_perms(n):
            for k in range(1, n + 1):
                _check_weak_alternating(tau, k)


def test_coset_factor_at_six():
    for tau in enumerate_perms(6):
        _check_weak_alternating(tau, 2)
    rng = SplitMix64(77)
    for _ in range(40):
        tau = random_perm(6, rng)
        for k in (3, 4, 5, 6):
            _check_weak_alternating(tau, k)


def test_jucys_murphy_small():
    assert jucys_murphy_product(1) == {Perm.identity(1): QPoly.one()}
    expected2 = {
        Perm.identity(2): QPoly.one(),
        Perm([2, 1]): QPoly([0, 1]),
    }
    assert jucys_murphy_product(2) == expected2


def test_jucys_murphy_matches_length_weight():
    for n in range(1, 6):
        product = jucys_murphy_product(n)
        assert len(product) == factorial(n)
        for p, coeff in product.items():
            assert coeff == QPoly.monomial(p.transposition_length)


def test_jucys_murphy_cap():
    # one cap bounds the product and fourier's JM case, which runs up to it
    assert len(jucys_murphy_product(FOURIER_JM_CAP)) == factorial(FOURIER_JM_CAP)
    for n in (7, 8):
        with pytest.raises(SizeCapExceeded, match=rf"^n={n} exceeds Jucys-Murphy cap 6$"):
            jucys_murphy_product(n)
    assert verify_module.FOURIER_JM_CAP is FOURIER_JM_CAP
    assert not hasattr(perms_module, "JM_CAP")


def test_block_profile_examples():
    assert block_profile(Perm.identity(4), 2, 2) == (2, 0, 0, 2)
    assert block_profile(Perm.from_cycles(4, [(2, 3)]), 2, 2) == (1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^permutation size 5 != k\*n = 4$"):
        block_profile(Perm.identity(5), 2, 2)


def test_block_profile_row_column_sums():
    def check(cells, n, k):
        assert len(cells) == n * n
        for i in range(n):
            assert sum(cells[i * n : i * n + n]) == k
            assert sum(cells[i::n]) == k

    # exhaustive below size 8
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for sigma in enumerate_perms(n * k):
            check(block_profile(sigma, n, k), n, k)
    # sampled at size 8
    rng = SplitMix64(3)
    for n, k in [(4, 2), (2, 4)]:
        for _ in range(50):
            check(block_profile(random_perm(n * k, rng), n, k), n, k)


def test_block_profile_double_coset_invariance():
    n = k = 2
    rng = SplitMix64(9)
    subgroup = list(_young_subgroup((k,) * n))
    for _ in range(15):
        sigma = random_perm(n * k, rng)
        base = block_profile(sigma, n, k)
        g = subgroup[rng.below(len(subgroup))]
        h = subgroup[rng.below(len(subgroup))]
        assert block_profile(g * sigma * h, n, k) == base


@cache
def _rectangle_subgroup(n: int, k: int) -> frozenset:
    return frozenset(h.images for h in _young_subgroup((k,) * n))


def _double_coset_index_naive(sigma: Perm, n: int, k: int) -> int:
    """Oracle: |H| / #{h in H : s h s^-1 in H} for H = S_k^n, by
    enumerating H and membership-testing each conjugate."""
    subgroup = _rectangle_subgroup(n, k)
    s = sigma.images
    s_inv = sigma.inverse().images
    stable = sum(1 for h in subgroup if _compose(_compose(s, h), s_inv) in subgroup)
    return len(subgroup) // stable


def test_double_coset_index_matches_subgroup_enumeration():
    for n, k in [(2, 2), (3, 2), (2, 3), (1, 6), (6, 1)]:
        for sigma in enumerate_perms(n * k):
            assert double_coset_index(sigma, n, k) == _double_coset_index_naive(sigma, n, k)
    rng = SplitMix64(77)
    for n, k in [(4, 2), (3, 3), (2, 4)]:
        for _ in range(50):
            sigma = random_perm(n * k, rng)
            assert double_coset_index(sigma, n, k) == _double_coset_index_naive(sigma, n, k)


def test_double_coset_index_enumerates_no_subgroup(monkeypatch):
    def no_enumeration(n):
        raise AssertionError("double_coset_index must not enumerate permutations")

    monkeypatch.setattr(perms_module, "perm_tuples", no_enumeration)
    rng = SplitMix64(5)
    # |S_4^3| = 24^3 and |S_12| = 12! were past the old enumeration cap
    for n, k in [(2, 2), (3, 4), (1, 12), (12, 1)]:
        index = double_coset_index(random_perm(n * k, rng), n, k)
        assert factorial(k) ** n % index == 0
    with pytest.raises(ValueError):
        double_coset_index(Perm.identity(5), 2, 2)


def test_double_coset_index_examples():
    assert double_coset_index(Perm.identity(4), 2, 2) == 1
    assert double_coset_index(Perm.from_cycles(4, [(2, 3)]), 2, 2) == 4
    # the product reads the profile's cells, so a caller holding them builds
    # no other
    assert profile_coset_index(block_profile(Perm.from_cycles(4, [(2, 3)]), 2, 2), 2) == 4
    assert profile_coset_index((1, 2, 0, 2, 0, 1, 0, 1, 2), 3) == 27
    assert profile_coset_index((), 5) == 1


def test_double_coset_index_divides_group_order():
    rng = SplitMix64(21)
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        order = factorial(k) ** n
        for _ in range(10):
            idx = double_coset_index(random_perm(n * k, rng), n, k)
            assert order % idx == 0


def test_block_profile_counts_known_values():
    # the number of n x n non-negative integer grids with every row and
    # column sum k: 2 x 2 grids are (a, k - a; k - a, a), and k = 1 gives S_n
    assert [len(block_profiles(2, n)) for n in range(1, 6)] == [1, 3, 21, 282, 6210]
    assert [len(block_profiles(k, n)) for k, n in [(3, 3), (3, 4), (4, 3)]] == [55, 2008, 120]
    assert [len(block_profiles(k, 2)) for k in range(6)] == [k + 1 for k in range(6)]
    assert [len(block_profiles(1, n)) for n in range(8)] == [factorial(n) for n in range(8)]
    assert block_profiles(5, 0) == ((),)
    assert block_profiles(0, 5) == ((0,) * 25,)
    assert block_profiles(0, 0) == ((),)
    # k = -1 once listed the grid (-1), and n = -1 recursed without end
    for k, n in [(-1, 1), (-1, 0), (0, -1), (2, -3)]:
        with pytest.raises(ValueError, match=rf"^k={k} and n={n} must be non-negative$"):
            block_profiles(k, n)


def test_block_profiles_match_the_profiles_of_s_kn():
    # every grid is a profile, once each, and every profile of S_kn is listed
    for size in range(1, 7):
        for k in range(1, size + 1):
            if size % k:
                continue
            n = size // k
            listed = list(block_profiles(k, n))
            assert len(set(listed)) == len(listed) and listed == sorted(listed)
            seen = {block_profile(g, n, k) for g in enumerate_perms(size)}
            assert set(listed) == seen, (k, n)


def test_block_profiles_list_no_permutation(monkeypatch):
    # the profiles come from the grid alone, not from S_kn
    def no_perms(n):
        raise AssertionError("S_kn was listed")

    monkeypatch.setattr(perms_module, "perm_tuples", no_perms)
    monkeypatch.setattr(perms_module, "enumerate_perms", no_perms)
    assert len(block_profiles(2, 5)) == 6210


def _profile_cells_naive(g: Perm, mu) -> tuple[int, ...]:
    """Oracle: cell i l + j counts the letters s of block i with g(s) in
    block j, each found by searching the blocks."""
    blocks = young_blocks(mu)
    ell = len(mu)
    return tuple(
        sum(1 for s in blocks[i] if g(s) in blocks[j]) for i in range(ell) for j in range(ell)
    )


def test_profile_cells_count_the_letters_between_blocks():
    # every g at every mu up to size 6; block_profile is the same cells at
    # mu = (k^n), and the profile of g^-1 is the transpose of g's
    for size in range(7):
        for mu in partitions_of(size):
            ell = len(mu)
            for g in enumerate_perms(size):
                cells = profile_cells(g, mu)
                assert cells == _profile_cells_naive(g, mu), (g, mu)
                inverse = profile_cells(g.inverse(), mu)
                assert inverse == tuple(cells[j * ell + i] for i in range(ell) for j in range(ell))
        for k in range(1, size + 1):
            if size % k:
                continue
            n = size // k
            for g in enumerate_perms(size):
                assert block_profile(g, n, k) == profile_cells(g, (k,) * n), (g, k)
    assert profile_cells(Perm.from_cycles(5, [(1, 3, 5)]), (2, 1, 2)) == (1, 1, 0, 0, 0, 1, 1, 0, 1)
    assert profile_cells(Perm.identity(0), ()) == ()
    # the cells need the blocks to hold exactly the letters of g
    with pytest.raises(ValueError, match=r"^permutation size 4 != 5 letters of the blocks"):
        profile_cells(Perm.identity(4), (3, 2))
    with pytest.raises(ValueError):
        profile_cells(Perm([2, 1, 4, 3]), (3, -1, 2))


@pytest.mark.parametrize("a, b", [(2, 3), (3, 2), (1, 4)])
def test_perm_product_refuses_a_size_mismatch(a, b):
    with pytest.raises(ValueError, match="^size mismatch$"):
        Perm.identity(a) * Perm.identity(b)
