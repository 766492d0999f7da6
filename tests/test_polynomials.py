import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from alphadet.errors import DivisionByZeroPoly, NotDivisible
from alphadet.polynomials import QPoly, QPoly2
from alphadet.rationals import format_rational, parse_rational


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
polys_st = st.lists(fractions_st, min_size=0, max_size=7).map(QPoly)


def test_eval_known_values():
    p = QPoly([1, 3, 2])  # (1+a)(1+2a)
    assert p.eval(F(-1)) == 0
    assert p.eval(F(0)) == 1
    assert p.eval(F(1)) == 6  # 3!


def test_coefficients_are_plain_fractions():
    # as RatMatrix entries: a Fraction subclass is copied, a Fraction kept
    class Tagged(F):
        pass

    third = F(1, 3)
    p = QPoly([Tagged(1, 2), 2, third])
    assert p.coeffs == (F(1, 2), F(2), F(1, 3)) and p.coeffs[2] is third
    assert {type(c) for c in p.coeffs} == {F}
    assert {type(c) for row in QPoly2([[Tagged(1), 1]]).grid for c in row} == {F}


def test_canonical_form_strips_trailing_zeros():
    assert QPoly([1, 2, 0, 0]) == QPoly([1, 2])
    assert QPoly([0, 0]) == QPoly.zero()
    assert not QPoly.zero()
    assert QPoly.zero().degree == -1


def test_exact_div_known_values():
    assert QPoly([1, 3, 2]).exact_div(QPoly([1, 1])) == QPoly([1, 2])
    assert QPoly([1, 0, -1]).exact_div(QPoly([1, -1])) == QPoly([1, 1])


def test_exact_div_failures():
    with pytest.raises(NotDivisible):
        QPoly([1, 1]).exact_div(QPoly([1, 2]))
    with pytest.raises(DivisionByZeroPoly):
        QPoly([1, 1]).exact_div(QPoly.zero())


def test_zero_dividend():
    assert QPoly.zero().exact_div(QPoly([1, 2])) == QPoly.zero()


@settings(max_examples=100, deadline=None)
@given(p=polys_st, q=polys_st)
def test_exact_div_round_trip(p, q):
    if q:
        assert (p * q).exact_div(q) == p


@settings(max_examples=50, deadline=None)
@given(p=polys_st, q=polys_st, x=fractions_st)
def test_eval_is_multiplicative(p, q, x):
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_sum_is_order_independent():
    rng = random.Random(1234)
    values = [F(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(1000)]
    reference = sum(values, F(0))
    for _ in range(5):
        rng.shuffle(values)
        assert sum(values, F(0)) == reference


def test_serialization_round_trip():
    p = QPoly([F(1, 2), F(-3), F(0), F(7, 5)])
    assert p.to_strings() == ["1/2", "-3", "0", "7/5"]
    assert QPoly.from_strings(p.to_strings()) == p


def test_rational_strings():
    assert format_rational(F(-3, 8)) == "-3/8"
    assert format_rational(F(4)) == "4"
    assert parse_rational("-3/8") == F(-3, 8)
    assert parse_rational("7") == F(7)


def test_qpoly2_symmetry():
    assert QPoly2([[1], [0, 1]]).is_symmetric()  # 1 + a*b
    assert not QPoly2([[0], [1]]).is_symmetric()  # a alone
    assert QPoly2.zero().is_symmetric()


def test_qpoly2_canonical_and_eval():
    p = QPoly2([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    assert p == QPoly2([[1], [0, 2]])
    assert p.eval(F(3), F(1, 2)) == 1 + 2 * F(3) * F(1, 2)
    assert p.transpose() == QPoly2([[1, 0], [0, 2]])


@given(polys_st, polys_st, fractions_st, fractions_st)
def test_qpoly2_eval_over_common_denominator_matches_horner(p, q, x, y):
    # QPoly2.eval scales to one integer grid; QPoly.eval is Horner on Fractions
    grid = QPoly2.outer(p, q) + QPoly2.outer(q, p)
    assert grid.eval(x, y) == p.eval(x) * q.eval(y) + q.eval(x) * p.eval(y)


def test_qpoly2_outer_and_arithmetic():
    a = QPoly([1, 1])
    b = QPoly([1, -2])
    prod = QPoly2.outer(a, b)
    assert prod.coefficient(1, 1) == -2
    assert (prod + prod) == 2 * prod
    x, y = F(2, 3), F(-1, 7)
    assert prod.eval(x, y) == a.eval(x) * b.eval(y)
