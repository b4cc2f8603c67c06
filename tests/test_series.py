"""Truncated power series on the integer polynomial kernel."""

from fractions import Fraction

import pytest

from umbralcalc.errors import NotDeltaError, NotInvertibleError
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.series import DeltaSeries

SEQ = AdmissibleSequence.classical(8)


def s(coeffs, order=8):
    return DeltaSeries.from_list(SEQ, coeffs, order)


def t_at(order):
    return s([0, 1], order)


def test_geometric_inverse():
    inv = s([1, -1], 6).multiplicative_inverse()
    assert inv.coeffs == (Fraction(1),) * 7  # 1/(1-t) = sum t^k


def test_compositional_inverse_frozen():
    # oracle: g with g + g^2 = t, solved order by order by hand
    g = s([0, 1, 1], 4).compositional_inverse()
    assert g.coeffs == (0, 1, -1, 2, -5)
    # and the defining property, checked independently via composition
    assert s([0, 1, 1], 4).compose(g) == t_at(4)


def test_compositional_inverse_two_sided():
    a = s([0, 1, Fraction(1, 2), Fraction(-1, 3), 0, 2])
    g = a.compositional_inverse()
    assert a.compose(g) == t_at(8)
    assert g.compose(a) == t_at(8)


def test_mul_inverse_round_trip():
    a = s([Fraction(2), 1, Fraction(1, 3), 0, -1], 7)
    assert a.multiply(a.multiplicative_inverse()) == s([1], 7)


def test_log_derivative_frozen():
    # s = 1/(1-t): (log s)' = s'/s = 1/(1-t), every coefficient 1
    geometric = s([1, -1]).multiplicative_inverse()
    log_prime = geometric.formal_derivative().multiply(s([1, -1]))
    assert log_prime.coeffs[:8] == (Fraction(1),) * 8


def test_delta_flags_and_guards():
    assert s([0, 1, 5]).is_delta
    assert not s([0, 0, 1]).is_delta
    assert s([2, 0]).is_invertible
    with pytest.raises(NotDeltaError):
        s([0, 0, 1]).compositional_inverse()
    with pytest.raises(NotInvertibleError):
        s([0, 1]).multiplicative_inverse()
    with pytest.raises(NotDeltaError):
        s([1, 1]).compose(s([1, 1]))
    with pytest.raises(NotDeltaError):
        s([1, 1]).shift_down()


def test_formal_derivative():
    assert s([3, 1, 4, 1]).formal_derivative().coeffs[:3] == (
        Fraction(1),
        Fraction(8),
        Fraction(3),
    )


def test_delta_series_algebra():
    a = s([0, 1, 1])
    b = a.compositional_inverse()
    composed = a.compose(b)
    assert composed.coeffs[:3] == (0, 1, 0)
    prod = s([1, 1]).multiply(s([1, -1]))
    assert prod.coeffs[:3] == (1, 0, -1)
