import itertools
from fractions import Fraction as F
from functools import cache
from math import factorial

import pytest

import alphadet.adet as adet_module
import alphadet.characters as characters_module
import alphadet.perms as perms_module
from alphadet.adet import adet_at, adet_poly
from alphadet.characters import (
    alpha_power_expansion,
    character,
    immanant,
    subgroup_averaged_character,
)
from alphadet.errors import ShapeWeightMismatch, SizeCapExceeded
from alphadet.matrices import RatMatrix, block_ones
from alphadet.partitions import (
    _partitions,
    content_poly,
    kostka_ssyt,
    num_standard_tableaux,
    partitions_of,
)
from alphadet.perms import (
    Perm,
    _compose,
    _cycle_type,
    _trans_len,
    enumerate_perms,
    perm_tuples,
    young_subgroup_order,
)
from alphadet.polynomials import QPoly
from alphadet.randmat import SplitMix64, random_matrix, random_perm

from test_perms import _perm_of_cycle_type, _young_subgroup


def _class_size(rho) -> int:
    """Oracle: n! over the centralizer order, the product over cycle
    lengths l of l^mult * mult!."""
    centralizer = 1
    for length in set(rho):
        mult = rho.count(length)
        centralizer *= length**mult * factorial(mult)
    return factorial(sum(rho)) // centralizer


def _convolve_characters(shape, rho) -> dict:
    """Oracle: the convolution of two irreducible characters, per conjugacy
    class c: sum over sigma in S_n of chi_shape(x sigma) * chi_rho(sigma^-1)
    for the x of cycle type c."""
    n = sum(shape)
    out = {}
    for cls in partitions_of(n):
        x = _perm_of_cycle_type(cls, n).images
        # sigma^-1 has the same cycle type as sigma
        out[cls] = sum(
            character(shape, _cycle_type(_compose(x, sigma))) * character(rho, _cycle_type(sigma))
            for sigma in perm_tuples(n)
        )
    return out


@cache
def _mn_tuple(shape, rho) -> int:
    """Oracle: the Murnaghan-Nakayama recursion on beta numbers held as a
    tuple, one shape rebuilt and sorted per border strip."""
    if not rho:
        return 1
    strip, rest = rho[0], rho[1:]
    length = len(shape)
    betas = tuple(shape[i] + (length - 1 - i) for i in range(length))
    total = 0
    for i, b in enumerate(betas):
        nb = b - strip
        if nb < 0 or nb in betas:
            continue
        height = sum(1 for other in betas if nb < other < b)
        moved = sorted((nb if j == i else v for j, v in enumerate(betas)), reverse=True)
        sub = tuple(v - (length - 1 - j) for j, v in enumerate(moved) if v - (length - 1 - j) > 0)
        term = _mn_tuple(sub, rest)
        total += -term if height % 2 else term
    return total


def test_bitmask_recursion_matches_the_tuple_oracle():
    # every (shape, class) with 1 <= |shape| <= 10
    pairs = [(lam, rho) for n in range(1, 11) for lam in _partitions(n) for rho in _partitions(n)]
    assert len(pairs) == 3582
    for lam, rho in pairs:
        assert character(lam, rho) == _mn_tuple(lam, rho), (lam, rho)
    # every class of two rectangles of 20 cells, past the cap of character
    for shape in [(4,) * 5, (5,) * 4]:
        for rho in _partitions(20):
            assert characters_module._mn(shape, rho) == _mn_tuple(shape, rho), (shape, rho)


def test_second_orthogonality():
    # sum over shapes of chi(rho) chi(sigma) is the centralizer order of rho
    # when rho = sigma and 0 otherwise
    for n in range(1, 9):
        shapes = partitions_of(n)
        for rho in shapes:
            centralizer = factorial(n) // _class_size(rho)
            for sigma in shapes:
                total = sum(character(lam, rho) * character(lam, sigma) for lam in shapes)
                assert total == (centralizer if rho == sigma else 0), (rho, sigma)


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert character((n,), rho) == 1
            assert character((1,) * n, rho) == (-1) ** (n - len(rho))


def test_character_known_value():
    assert character((2, 2), (2, 2)) == 2


def test_character_is_dimension_at_identity():
    for n in range(1, 8):
        for shape in partitions_of(n):
            assert character(shape, (1,) * n) == num_standard_tableaux(shape)


def test_character_shape_mismatch():
    with pytest.raises(ShapeWeightMismatch):
        character((2, 2), (3,))


def test_first_orthogonality():
    for n in range(1, 6):
        shapes = partitions_of(n)
        for a in shapes:
            for b in shapes:
                total = sum(
                    _class_size(rho) * character(a, rho) * character(b, rho)
                    for rho in partitions_of(n)
                )
                assert total == (factorial(n) if a == b else 0)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(_class_size(rho) for rho in partitions_of(n)) == factorial(n)


def test_averaged_character_trivial_subgroup():
    g = Perm.from_cycles(4, [(1, 3, 2)])
    for shape in partitions_of(4):
        assert subgroup_averaged_character(shape, (1, 1, 1, 1), g) == character(
            shape, g.cycle_type()
        )


def test_averaged_character_at_identity_is_kostka():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for mu in partitions_of(n):
                avg = subgroup_averaged_character(shape, mu, Perm.identity(n))
                assert avg == kostka_ssyt(shape, mu)


def test_averaged_character_worked_value():
    g = Perm.from_cycles(4, [(2, 3)])
    assert subgroup_averaged_character((2, 2), (2, 2), g) == F(-1, 2)


def test_averaged_character_matches_translate_average():
    # oracle: (1/mu!) * sum over h in S_mu of chi(g h), one translate at a time
    rng = SplitMix64(16)
    for n in range(1, 6):
        for mu in partitions_of(n):
            g = random_perm(n, rng)
            for shape in partitions_of(n):
                total = sum(character(shape, (g * h).cycle_type()) for h in _young_subgroup(mu))
                expected = F(total, young_subgroup_order(mu))
                assert subgroup_averaged_character(shape, mu, g) == expected, (shape, mu, g)


def test_averaged_character_answers_any_mu_at_twelve_letters(monkeypatch):
    # S_mu is never enumerated, so mu! may be as large as 12!; only n is capped
    ident = Perm.identity(12)
    assert subgroup_averaged_character((12,), (12,), ident) == 1
    assert subgroup_averaged_character((6, 6), (12,), ident) == 0
    # at g = id the average is the Kostka number K(shape, (10, 2))
    dominating = {(12,), (11, 1), (10, 2)}
    for shape in partitions_of(12):
        expected = 1 if shape in dominating else 0
        assert subgroup_averaged_character(shape, (10, 2), ident) == expected, shape

    def no_walk(g, mu):
        raise AssertionError("n is checked before any walk")

    monkeypatch.setattr(characters_module, "translate_class_sums", no_walk)
    with pytest.raises(SizeCapExceeded):
        subgroup_averaged_character((13,), (1,) * 13, Perm.identity(13))
    with pytest.raises(SizeCapExceeded):
        subgroup_averaged_character((13,), (13,), Perm.identity(13))


def test_averaged_character_biinvariance():
    mu = (3, 2, 1)
    subgroup = list(_young_subgroup(mu))
    rng = SplitMix64(15)
    for _ in range(6):
        g = random_perm(6, rng)
        base = subgroup_averaged_character((3, 2, 1), mu, g)
        left = subgroup[rng.below(len(subgroup))]
        right = subgroup[rng.below(len(subgroup))]
        assert subgroup_averaged_character((3, 2, 1), mu, left * g * right) == base


def _det_cofactor(m: RatMatrix) -> F:
    n = m.rows
    if n == 0:
        return F(1)
    if n == 1:
        return m[0, 0]
    total = F(0)
    for j in range(n):
        minor = RatMatrix(
            [[m[i, c] for c in range(n) if c != j] for i in range(1, n)]
        )
        term = m[0, j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _per_enumeration(m: RatMatrix) -> F:
    n = m.rows
    total = F(0)
    for p in itertools.permutations(range(n)):
        prod = F(1)
        for i in range(n):
            prod *= m[p[i], i]
        total += prod
    return total


def test_immanant_sign_and_trivial_cases():
    for seed in (1, 2, 3):
        a = random_matrix(4, 4, seed)
        assert immanant((1, 1, 1, 1), a) == _det_cofactor(a)
        assert immanant((4,), a) == _per_enumeration(a)


def test_immanant_at_nine_and_its_cap(monkeypatch):
    # immanant runs the dense walk of adet_poly, so it shares ADET_CAP (9)
    a = random_matrix(9, 9, 41)
    assert immanant((1,) * 9, a) == adet_at(a, -1)
    assert immanant((9,), a) == adet_at(a, 1)

    def no_scaling(m):
        raise AssertionError("the cap must be checked before scaling")

    monkeypatch.setattr(characters_module, "scaled_int_rows", no_scaling)
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        immanant((10,), random_matrix(10, 10, 41))


def test_immanant_of_identity_is_tableau_count():
    for n in range(1, 6):
        for shape in partitions_of(n):
            assert immanant(shape, RatMatrix.identity(n)) == num_standard_tableaux(shape)
    assert immanant((), RatMatrix(())) == 1


def test_immanant_of_permuted_block_ones_is_scaled_average():
    for n, mu in [(4, (2, 2)), (4, (2, 1, 1)), (5, (3, 2))]:
        rng = SplitMix64(n)
        for _ in range(5):
            g = random_perm(n, rng)
            m = block_ones(mu).permute_rows(g)
            for shape in partitions_of(n):
                assert immanant(shape, m) == young_subgroup_order(
                    mu
                ) * subgroup_averaged_character(shape, mu, g)


def test_convolution_identities():
    conv = _convolve_characters((2, 1), (2, 1))
    f = num_standard_tableaux((2, 1))
    for rho, value in conv.items():
        assert value == F(factorial(3), f) * character((2, 1), rho)

    conv = _convolve_characters((3,), (1, 1, 1))
    assert all(v == 0 for v in conv.values())

    for n in (2, 3, 4):
        conv = _convolve_characters((n,), (n,))
        assert all(v == factorial(n) for v in conv.values())


def test_convolution_orthogonality_full():
    n = 4
    shapes = partitions_of(n)
    for a in shapes:
        for b in shapes:
            conv = _convolve_characters(a, b)
            for rho, value in conv.items():
                if a == b:
                    expected = F(factorial(n), num_standard_tableaux(a)) * character(a, rho)
                else:
                    expected = 0
                assert value == expected


def test_alpha_power_expansion_small_cases():
    table = alpha_power_expansion(2)
    assert table[(1, 1)] == QPoly.one()
    assert table[(2,)] == QPoly([0, 1])
    alpha_power_expansion(5)


def test_transposition_length_is_read_from_the_cycle_type():
    # the regrouping behind alpha_power_expansion: len p = n - (number of parts)
    for n in range(1, 9):
        for p in perm_tuples(n):
            assert _trans_len(p) == n - len(_cycle_type(p)), p


def test_alpha_power_expansion_enumerates_no_permutation(monkeypatch):
    def no_enumeration(n):
        raise AssertionError("the expansion is checked once per cycle type")

    for module in (perms_module, adet_module, characters_module):
        monkeypatch.setattr(module, "perm_tuples", no_enumeration, raising=False)
    for n in range(1, 13):
        table = alpha_power_expansion(n)
        assert table == {rho: QPoly.monomial(n - len(rho)) for rho in partitions_of(n)}
    with pytest.raises(SizeCapExceeded):
        alpha_power_expansion(13)


def test_character_weighted_average_has_no_extra_factor():
    # the correct constant is content_poly(shape); an extra tableau-count
    # factor would be off by exactly that factor whenever it exceeds 1
    n = 3
    a = random_matrix(n, n, 31)
    polys = {g: adet_poly(a.permute_columns(g)) for g in enumerate_perms(n)}
    for shape in partitions_of(n):
        lhs = QPoly.zero()
        for g, q in polys.items():
            lhs = lhs + character(shape, g.cycle_type()) * q
        rhs = immanant(shape, a) * content_poly(shape)
        assert lhs == rhs
        f = num_standard_tableaux(shape)
        if f > 1 and rhs:
            assert lhs != f * rhs


def test_character_weighted_average_all_shapes():
    for n in (3, 4):
        for seed in (5, 6):
            a = random_matrix(n, n, seed)
            polys = {g: adet_poly(a.permute_columns(g)) for g in enumerate_perms(n)}
            for shape in partitions_of(n):
                lhs = QPoly.zero()
                for g, q in polys.items():
                    lhs = lhs + character(shape, g.cycle_type()) * q
                assert lhs == immanant(shape, a) * content_poly(shape)


def test_perm_of_cycle_type():
    p = _perm_of_cycle_type((3, 2, 1), 6)
    assert p.cycle_type() == (3, 2, 1)
    assert _perm_of_cycle_type((1, 1), 2).is_identity()
