"""Operator matrices: generators, duals, detection, expansion, indicator."""

from fractions import Fraction

import pytest

from umbralcalc.errors import (
    BadParameterError,
    BasisMismatchError,
    NotDegreeLoweringError,
    UndefinedIndexError,
)
from umbralcalc.operators import (
    OperatorMatrix,
    commutator,
    detect_psi_form,
    dilation,
    divided_difference,
    dual_operator,
    eigen_series,
    expand_in_dual_pair,
    forward_difference,
    from_action,
    generalized_shift,
    identity_operator,
    indicator,
    jackson_operator,
    multiplication_x,
    psi_derivative,
    realize_delta_series,
    xhat_psi,
)
from umbralcalc.poly import ONE, Polynomial, SequenceTable, X
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.series import DeltaSeries

N = 8
CLASSICAL = AdmissibleSequence.classical(N + 1)
Q2 = AdmissibleSequence.q_deformed(2, N + 1)
FIB = AdmissibleSequence.fibonacci(N + 1)


def classical_derivative_matrix(bound):
    cols = [Polynomial()]
    for j in range(1, bound + 1):
        cols.append(Polynomial.monomial(j - 1, j))
    return OperatorMatrix(tuple(cols))


def shift_matrix(seq, y, bound):
    """Matrix of the generalized shift E^y."""
    return from_action(lambda p: generalized_shift(seq, p, y), bound)


def test_psi_derivative_gradings():
    d = psi_derivative(CLASSICAL, N)
    assert d.grading == "lowers_by_one"
    assert d.apply(Polynomial.monomial(4)) == Polynomial.monomial(3, 4)
    dq = psi_derivative(Q2, N)
    assert dq.apply(Polynomial.monomial(4)) == Polynomial.monomial(3, 15)


def test_xhat_examples():
    assert xhat_psi(Q2, N).columns[1] == Polynomial.monomial(2, Fraction(2, 3))
    assert xhat_psi(FIB, N).columns[3] == Polynomial.monomial(4, Fraction(4, 3))
    assert xhat_psi(CLASSICAL, N).columns[2] == Polynomial.monomial(3)
    assert xhat_psi(CLASSICAL, N).grading == "raises_by_one"


def jackson_quotient(p, q):
    """(p(x) - p(qx)) / ((1 - q) x), from its definition."""
    return Polynomial((p - dilation(q, N).apply(p)).coeffs[1:]).scale(1 / (1 - Fraction(q)))


def test_jackson_examples():
    assert jackson_operator(2, N).apply(Polynomial.monomial(2)) == Polynomial.monomial(1, 3)
    got = jackson_operator(Fraction(1, 2), N).apply(Polynomial.monomial(3))
    assert got == Polynomial.monomial(2, Fraction(7, 4))
    with pytest.raises(BadParameterError, match="^jackson derivative undefined at q = 1$"):
        jackson_operator(1, N)
    # matrix agrees with the definition on samples
    for q in (2, Fraction(1, 2), Fraction(-3, 2)):
        for p in (Polynomial.monomial(2), Polynomial.monomial(3),
                  Polynomial([1, -2, 0, Fraction(5, 3)])):
            assert jackson_operator(q, N).apply(p) == jackson_quotient(p, q)
    # matrix equals the family lowering operator of the q-deformed family
    assert jackson_operator(2, N).columns == psi_derivative(Q2, N).columns


def test_divided_difference_alternating_series():
    # the series sum_{n>=1} (-1)^{n+1} (x^{n-1}/n!) D^n reproduces it exactly
    dd = divided_difference(N)
    d = classical_derivative_matrix(N)
    acc = OperatorMatrix(tuple(Polynomial() for _ in range(N + 1)))
    d_power = identity_operator(N)
    import math

    for n in range(1, N + 1):
        d_power = d.compose(d_power)
        sign = Fraction((-1) ** (n + 1), math.factorial(n))
        xfactor = Polynomial.monomial(n - 1, sign)
        cols = []
        for j in range(N + 1):
            image = d_power.columns[j]
            cols.append((xfactor * image).truncate(N))
        acc = acc.add(OperatorMatrix(tuple(cols)))
    assert acc.columns == dd.columns


def test_ghw_commutator_window(families, degree):
    for seq in families:
        q = psi_derivative(seq, degree)
        r = xhat_psi(seq, degree)
        commuted = commutator(q, r)
        window = commuted.agreement_window(identity_operator(degree))
        assert window == degree - 1, seq.label


def test_generalized_shift_example():
    got = generalized_shift(Q2, Polynomial.monomial(2), 1)
    assert got == Polynomial([1, 3, 1])
    matrix = shift_matrix(Q2, 1, N)
    assert matrix.columns[2] == Polynomial([1, 3, 1])
    # classical shift is the plain translation
    cl = generalized_shift(CLASSICAL, Polynomial.monomial(3), 2)
    assert cl == Polynomial([8, 12, 6, 1])


def test_generalized_shift_needs_the_family_to_the_degree():
    short = AdmissibleSequence.q_deformed(2, 3)
    p = Polynomial.monomial(3) + X
    assert generalized_shift(short, p, 1) == generalized_shift(Q2, p, 1)
    with pytest.raises(UndefinedIndexError, match="index 5 outside"):
        generalized_shift(short, Polynomial.monomial(5) + Polynomial.monomial(2), 1)


def test_shift_commutes_with_series(families):
    for seq in families:
        bound = 8
        s = DeltaSeries.from_list(seq, [0, 1, Fraction(1, 2), -1], bound)
        t = realize_delta_series(s, bound)
        shift = shift_matrix(seq, Fraction(3, 2), bound)
        assert t.compose(shift).columns == shift.compose(t).columns, seq.label


def test_realize_delta_series_basics():
    s = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    assert realize_delta_series(s, N).columns == classical_derivative_matrix(N).columns
    sq = DeltaSeries.from_list(Q2, [0, 1], N)
    assert realize_delta_series(sq, N).columns == psi_derivative(Q2, N).columns


def test_pincherle_of_series_is_formal_derivative(families):
    # the psi-Pincherle derivative T' = [T, xhat_psi] of a series is its formal derivative
    for seq in families:
        bound = 8
        coeffs = [0, 1, Fraction(2, 3), 0, -2]
        s = DeltaSeries.from_list(seq, coeffs, bound)
        t = realize_delta_series(s, bound)
        derived = commutator(t, xhat_psi(seq, bound))
        expected = realize_delta_series(s.formal_derivative(), bound)
        window = derived.agreement_window(expected)
        assert window >= bound - 1, seq.label


def test_pincherle_square_example():
    seq = CLASSICAL
    d = psi_derivative(seq, N)
    derived = commutator(d.compose(d), xhat_psi(seq, N))
    expected = d.scale(2)
    assert derived.agreement_window(expected) >= N - 1


# -- detection ----------------------------------------------------------------


def build_dxd(bound):
    d = classical_derivative_matrix(bound)
    return d.compose(multiplication_x(bound)).compose(d)


def test_detect_dxd():
    result = detect_psi_form(build_dxd(N))
    assert result.consistent
    assert list(result.candidate) == [Fraction(n * n) for n in range(1, N + 1)]
    assert result.candidate[0] == 1
    assert result.series.coeffs[1] == 1
    assert all(c == 0 for c in result.series.coeffs[2:])
    assert realize_delta_series(result.series, N).columns == build_dxd(N).columns


def test_detect_wider_operator():
    # (1/2) D xhat D - (1/3) D^3: candidate reads n^2/2 but the cross
    # pattern breaks at (n, k) = (4, 3)
    d = classical_derivative_matrix(N)
    op = build_dxd(N).scale(Fraction(1, 2)).subtract(
        d.compose(d).compose(d).scale(Fraction(1, 3))
    )
    result = detect_psi_form(op)
    assert list(result.candidate) == [
        Fraction(n * n, 2) for n in range(1, N + 1)
    ]
    assert result.series.coefficient(3) == Fraction(-4, 9)
    assert result.series.coefficient(2) == 0
    assert not result.consistent
    assert result.violation == (4, 3, Fraction(-32), Fraction(-8))


def test_detect_hyperbolic_generator():
    op = build_dxd(N).scale(4).subtract(classical_derivative_matrix(N).scale(2))
    result = detect_psi_form(op)
    assert result.consistent
    assert list(result.candidate) == [
        Fraction(2 * n * (2 * n - 1)) for n in range(1, N + 1)
    ]
    assert result.candidate[0] == 2


def test_detect_requires_lowering():
    with pytest.raises(NotDegreeLoweringError):
        detect_psi_form(multiplication_x(N))


def test_detect_round_trip_composite():
    seq = FIB
    s = DeltaSeries.from_list(seq, [0, 1, Fraction(-1, 2), 0, Fraction(2, 7)], N)
    op = realize_delta_series(s, N)
    result = detect_psi_form(op)
    assert result.consistent
    assert list(result.candidate) == [seq.n_psi(n) for n in range(1, N + 1)]
    assert list(result.series.coeffs) == list(s.coeffs[: N + 1])
    assert realize_delta_series(result.series, N).columns == op.columns


# -- dual operator -------------------------------------------------------------


def test_dual_operator_of_monomials_is_xhat(families):
    for seq in families:
        bound = 8
        q = psi_derivative(seq, bound)
        monomials = SequenceTable(tuple(Polynomial.monomial(n) for n in range(bound + 1)))
        dual = dual_operator(q, monomials, seq)
        assert dual.columns == xhat_psi(seq, bound).columns, seq.label


def test_dual_operator_rejects_non_basic():
    monomials = SequenceTable(tuple(Polynomial.monomial(n) for n in range(N + 1)))
    with pytest.raises(BasisMismatchError):
        dual_operator(forward_difference(N), monomials, CLASSICAL)


# -- expansion and indicator ---------------------------------------------------


def test_expand_xd_example():
    t = multiplication_x(N).compose(classical_derivative_matrix(N))
    q = classical_derivative_matrix(N)
    result = expand_in_dual_pair(t, q, multiplication_x(N))
    assert not result.coefficients[0]
    assert result.coefficients[1] == X
    assert all(not result.coefficients[k] for k in range(2, N + 1))
    assert result.reassembled.columns == t.columns


def test_expand_forward_difference():
    import math

    t = forward_difference(N)
    q = classical_derivative_matrix(N)
    result = expand_in_dual_pair(t, q, multiplication_x(N))
    for n in range(N + 1):
        expected = (
            Polynomial([Fraction(1, math.factorial(n))]) if n >= 1 else Polynomial()
        )
        assert result.coefficients[n] == expected
    assert result.reassembled.columns == t.columns


def test_expand_reassembles_in_dual_mode():
    seq = Q2
    q = psi_derivative(seq, N)
    monomials = SequenceTable(tuple(Polynomial.monomial(n) for n in range(N + 1)))
    raiser = dual_operator(q, monomials, seq)
    t = shift_matrix(seq, Fraction(1, 2), N)
    result = expand_in_dual_pair(t, q, raiser)
    assert result.reassembled.columns == t.columns


def test_eigen_series_examples():
    import math

    phis = eigen_series(classical_derivative_matrix(N), 5)
    for n, phi in enumerate(phis):
        assert phi == Polynomial.monomial(n, Fraction(1, math.factorial(n)))
    phis_q = eigen_series(psi_derivative(Q2, N), 4)
    for n, phi in enumerate(phis_q):
        assert phi == Polynomial.monomial(n, 1 / Q2.factorial(n))
    # forward difference ladder entries are the scaled falling factorials
    phis_delta = eigen_series(forward_difference(N), 3)
    assert phis_delta[2] == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])


def test_indicator_examples():
    q = classical_derivative_matrix(N)
    coefficients = expand_in_dual_pair(q, q, multiplication_x(N)).coefficients[:5]
    assert not coefficients[0]
    assert coefficients[1] == ONE
    assert all(not c for c in coefficients[2:])
    assert indicator(q, q, 4) is True

    t = multiplication_x(N).compose(q)
    assert expand_in_dual_pair(t, q, multiplication_x(N)).coefficients[1] == X
    assert indicator(t, q, 4) is True


def test_dilation_and_gradings():
    d = dilation(Fraction(1, 2), N)
    assert d.grading == "preserves"
    assert d.apply(Polynomial([1, 2, 4])) == Polynomial([1, 1, 1])
    assert dilation(2, 3).apply(Polynomial([5, 0, 3, 1])) == Polynomial([5, 0, 12, 8])
    assert multiplication_x(N).grading == "raises_by_one"
    assert identity_operator(N).grading == "preserves"


def test_matrix_json_round_trip():
    m = shift_matrix(Q2, Fraction(1, 3), 4)
    assert OperatorMatrix.from_json([c.to_json_list() for c in m.columns]).columns == m.columns
