"""Integral operators and their pairing contracts."""

from fractions import Fraction
from unittest import mock

import pytest

from umbralcalc.errors import BadParameterError, DegreeOverflowError
from umbralcalc.integration import IntegralOperator, right_inverse_failures
from umbralcalc.operators import jackson_operator, psi_derivative
from umbralcalc.poly import Polynomial, X
from umbralcalc.psi import AdmissibleSequence

N = 10


def test_q_integral_example():
    op = IntegralOperator.q_integral(2, N)
    assert op.integrate(X) == Polynomial.monomial(2, Fraction(1, 3))
    # oracle: weight at degree 1 is 2_q = 3 for q = 2
    assert op.weights[1] == 3


def test_q_integral_guards():
    with pytest.raises(BadParameterError):
        IntegralOperator.q_integral(1, N)
    with pytest.raises(DegreeOverflowError):
        IntegralOperator.q_integral(2, 4).integrate(Polynomial.monomial(4))


def test_psi_integral_inverts_family_operator(families):
    for seq in families:
        op = IntegralOperator.psi_integral(seq, N)
        assert op.partner == psi_derivative(seq, N), seq.label
        assert next(right_inverse_failures(op), None) is None, seq.label


def test_q_integral_matches_family_integral():
    q = Fraction(1, 2)
    q_int = IntegralOperator.q_integral(q, N)
    seq = AdmissibleSequence.q_deformed(q, N)
    psi_int = IntegralOperator.psi_integral(seq, N)
    for j in range(N):
        xj = Polynomial.monomial(j)
        assert q_int.integrate(xj) == psi_int.integrate(xj)


def test_r_integral_pairing():
    coeffs = [Fraction(2), Fraction(-2)]  # shape 2 - 2t, zero at 1
    q = Fraction(1, 3)
    op = IntegralOperator.r_integral(coeffs, q, N)
    assert next(right_inverse_failures(op), None) is None


def test_right_inverse_witnesses_right_side_first():
    # a doubled integral fails every right-side degree, then every left-side
    # degree but 0, whose image vanishes on both sides
    op = IntegralOperator.q_integral(2, N)
    doubled = lambda self, p: self.shift.apply(p).scale(2)
    with mock.patch.object(IntegralOperator, "integrate", doubled):
        witnesses = list(right_inverse_failures(op))
    assert witnesses == [{"side": "right", "degree": j} for j in range(N)] + [
        {"side": "left", "degree": j} for j in range(1, N + 1)
    ]


def test_matrix_form_composes_to_identity_window():
    op = IntegralOperator.q_integral(2, N)
    d = jackson_operator(2, N)
    composed = d.compose(op.shift)
    from umbralcalc.operators import identity_operator

    assert composed.agreement_window(identity_operator(N)) >= N - 1
