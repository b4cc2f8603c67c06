"""Polynomial ring layer: exact arithmetic, parsing, tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.errors import BadParameterError, BasisMismatchError
from umbralcalc.poly import (
    ONE,
    X,
    ZERO,
    Polynomial,
    SequenceTable,
    coordinates_in_table,
    parse_polynomial,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)


def test_degree_sentinel_and_normalization():
    assert ZERO.degree == -1
    assert Polynomial([0, 0, 0]).degree == -1
    assert Polynomial([1, 2, 0]).degree == 1
    assert Polynomial([0, 0, Fraction(1, 2)]).degree == 2


def test_evaluate_horner():
    p = Polynomial([1, -3, 1])  # 1 - 3x + x^2
    assert p(2) == 1 - 6 + 4
    assert p(Fraction(1, 2)) == 1 - Fraction(3, 2) + Fraction(1, 4)


def test_derivative():
    p = Polynomial([5, 0, 3, 1])
    assert p.derivative() == Polynomial([0, 6, 3])


def test_compose():
    p = Polynomial([0, 0, 1])  # x^2
    q = Polynomial([1, 1])  # x + 1
    assert p.compose(q) == Polynomial([1, 2, 1])


@settings(max_examples=80, deadline=None)
@given(a=polys, b=polys, c=polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(a=polys, b=polys, v=rationals)
def test_evaluation_is_multiplicative(a, b, v):
    assert (a * b)(v) == a(v) * b(v)
    assert (a + b)(v) == a(v) + b(v)


def test_text_round_trip():
    p = Polynomial([Fraction(1, 2), -2, 0, 1])
    text = p.to_text()
    assert text == "1/2 + -2*x + 1*x^3"
    assert parse_polynomial(text) == p
    assert parse_polynomial("x^2 - 3*x") == Polynomial([0, -3, 1])
    assert parse_polynomial("-x") == Polynomial([0, -1])
    assert parse_polynomial("0") == ZERO


@pytest.mark.parametrize(
    "text", ["", " ", "x^^2", "2y", "x^10000", "x^" + "1" * 5000], ids=repr
)
def test_bad_polynomial_text_is_a_bad_parameter(text):
    # a five-digit exponent is refused before a dense list that long is built
    with pytest.raises(BadParameterError):
        parse_polynomial(text)


def test_json_round_trip():
    p = Polynomial([Fraction(1, 3), 0, -2])
    assert Polynomial(p.to_json_list()) == p


# integers, zeros (so zero interior coefficients), signed fractions, and
# numerators and denominators far past a machine word
json_coefficients = st.one_of(
    st.integers(-(10**30), 10**30).map(Fraction),
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@settings(max_examples=300)
@given(cs=st.lists(json_coefficients, max_size=8), other=polys)
def test_json_list_is_str_of_each_fraction(cs, other):
    p = Polynomial(cs)
    # products and scalings hold no Fractions until `coeffs` is read
    for q in (p, p * other, p.scale(Fraction(-7, 3)), p - other):
        assert q.to_json_list() == [str(c) for c in q.coeffs]
    assert Polynomial([Fraction(-3, 2), 0, 4, 0, Fraction(5, -7), -6]).to_json_list() == [
        "-3/2", "0", "4", "0", "-5/7", "-6"
    ]


def test_table_validation_and_round_trip():
    table = SequenceTable((ONE, X, X * X))
    assert table.bound == 2
    assert SequenceTable.from_json(table.to_json()).entries == table.entries
    with pytest.raises(BasisMismatchError):
        SequenceTable((ONE, ONE + X, ONE))  # entry 2 has degree 1


def test_coordinates_in_table():
    table = SequenceTable((ONE, X, Polynomial([0, -3, 1])))  # x^2 - 3x
    p = Polynomial([2, 1, 2])  # 2 + x + 2x^2
    coords = coordinates_in_table(table, p)
    rebuilt = Polynomial()
    for c, entry in zip(coords, table):
        rebuilt = rebuilt + entry.scale(c)
    assert rebuilt == p
