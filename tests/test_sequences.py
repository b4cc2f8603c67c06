"""Basic and Sheffer sequences: solves, closed forms, addition rules, GF."""

from dataclasses import replace
from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.errors import UndefinedIndexError
from umbralcalc.operators import (
    forward_difference,
    generalized_shift,
    psi_derivative,
    realize_delta_series,
)
from umbralcalc.poly import ONE, Polynomial, SequenceTable, X
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import (
    appell_sequence,
    basic_sequence,
    basic_sequence_from_series,
    CheckReport,
    closed_form_routes,
    default_shift_samples,
    eigenfunction_series,
    generating_function_check,
    reconstruct_inverse_series,
    rodrigues_sequence,
    sheffer_product_shift,
    sheffer_sequence,
    verify_binomial_type,
    verify_inverse_reconstruction,
    verify_expansion_constants,
    verify_sheffer_binomial,
    verify_sheffer_definition,
)
from umbralcalc.series import DeltaSeries
from umbralcalc.spectral import orthogonality_report

N = 8
CLASSICAL = AdmissibleSequence.classical(N + 1)
Q2 = AdmissibleSequence.q_deformed(2, N + 1)


def falling_factorial_poly(n):
    p = ONE
    for i in range(n):
        p = p * Polynomial([-i, 1])
    return p


def exp_series(seq, order):
    return DeltaSeries.from_list(
        seq, [Fraction(1, math.factorial(k)) for k in range(order + 1)], order
    )


def test_basic_of_forward_difference_is_falling_factorials():
    basic = basic_sequence(forward_difference(N), CLASSICAL)
    for n in range(N + 1):
        assert basic[n] == falling_factorial_poly(n)


def test_basic_of_derivative_is_monomials():
    basic = basic_sequence(psi_derivative(Q2, N), Q2)
    for n in range(N + 1):
        assert basic[n] == Polynomial.monomial(n)


def test_hermite_like_cross_check():
    # Q = D - D^2: independent construction from the exponential formula
    # p_n = sum over compositions, done here by direct recurrence on
    # coefficients: p_n = x * p_{n-1} + p'_{n-1} shifted... instead use the
    # triangular solve and verify the defining relation plus the addition rule
    q = DeltaSeries.from_list(CLASSICAL, [0, 1, -1], N)
    basic = basic_sequence_from_series(q, N)
    op = realize_delta_series(q, N)
    for n in range(1, N + 1):
        assert op.apply(basic[n]) == basic[n - 1].scale(n)
        assert basic[n].constant_term == 0
    report = verify_binomial_type(basic.table, CLASSICAL)
    assert report.passed, report.witness
    # degree-2 entry solved by hand: (D - D^2)(x^2 + 2x) = 2x + 2 - 2 = 2 p_1
    assert basic[2] == Polynomial([0, 2, 1])


def test_closed_form_routes_match_solve():
    for seq in (CLASSICAL, Q2, AdmissibleSequence.fibonacci(N + 1)):
        for coeffs in ([0, 1], [0, 1, 1], [0, 1, Fraction(-1, 2), Fraction(1, 3)]):
            q = DeltaSeries.from_list(seq, coeffs, N)
            routes = closed_form_routes(q, N)
            solved = basic_sequence_from_series(q, N).table
            for name, table in routes.items():
                assert table.entries == solved.entries, (seq.label, coeffs, name)


def test_rodrigues_sequence_runs_and_checks():
    q = DeltaSeries.from_list(Q2, [0, 1, 1], N)
    got = rodrigues_sequence(q, N)
    assert got.table.entries == basic_sequence_from_series(q, N).table.entries


def test_classical_sheffer_shifted_monomials():
    # Q = D, S = e^D: the Sheffer entries are (x - 1)^n
    q = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    sheffer = sheffer_sequence(q, exp_series(CLASSICAL, N), N)
    for n in range(N + 1):
        assert sheffer[n] == Polynomial([-1, 1]) ** n
    assert verify_sheffer_definition(sheffer).passed
    assert verify_sheffer_binomial(sheffer).passed
    assert verify_inverse_reconstruction(sheffer).passed


def test_generating_function_classical_anchor():
    q = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    sheffer = sheffer_sequence(q, exp_series(CLASSICAL, N), N)
    report = generating_function_check(sheffer, 6)
    assert report.passed, report.witness


def test_generating_function_deformed():
    q = DeltaSeries.from_list(Q2, [0, 1, Fraction(1, 2)], N)
    s = DeltaSeries.from_list(Q2, [1, -1, Fraction(1, 3)], N)
    sheffer = sheffer_sequence(q, s, N)
    report = generating_function_check(sheffer, 6)
    assert report.passed, report.witness


def test_binomial_type_fails_for_perturbation():
    basic = basic_sequence(forward_difference(N), CLASSICAL)
    entries = list(basic.table.entries)
    entries[3] = entries[3] + X  # single-coefficient perturbation
    from umbralcalc.poly import SequenceTable

    report = verify_binomial_type(SequenceTable(tuple(entries)), CLASSICAL)
    assert not report.passed


def test_reconstruction_matches_series():
    rng = random.Random(7)
    for seq in (CLASSICAL, Q2):
        coeffs = [1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
        s = DeltaSeries.from_list(seq, coeffs, N)
        q = DeltaSeries.from_list(seq, [0, 1, 0, Fraction(1, 4)], N)
        sheffer = sheffer_sequence(q, s, N)
        rebuilt = reconstruct_inverse_series(sheffer)
        assert rebuilt.coeffs == s.multiplicative_inverse().coeffs


def test_eigenfunction_series_forward_difference():
    result = eigenfunction_series(forward_difference(N), 5)
    assert result.exp_coefficients is None
    for n in range(6):
        assert result.table[n] == falling_factorial_poly(n).scale(
            Fraction(1, math.factorial(n))
        )


def test_eigenfunction_series_monomial_case():
    result = eigenfunction_series(psi_derivative(Q2, N), 5)
    assert result.exp_coefficients is not None
    assert list(result.exp_coefficients) == [1 / Q2.factorial(n) for n in range(6)]


def test_expansion_constants_conventions():
    q = DeltaSeries.from_list(Q2, [0, 1, Fraction(1, 3)], N)
    s = DeltaSeries.from_list(Q2, [1, 1], N)
    sheffer = sheffer_sequence(q, s, N)
    result = verify_expansion_constants(sheffer, [Fraction(1, 2), 2, 0, 1])
    assert result["psi_binomial_holds"], result["psi_witness"]
    assert not result["plain_binomial_holds"]
    # derived constants are a_j j_psi!
    a = [Fraction(1, 2), 2, 0, 1]
    for j, c in enumerate(result["psi_constants"][:4]):
        assert c == a[j] * Q2.factorial(j)


def test_expansion_constants_classical_agreement():
    # classically both conventions coincide
    q = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    s = DeltaSeries.from_list(CLASSICAL, [1, 1], N)
    sheffer = sheffer_sequence(q, s, N)
    result = verify_expansion_constants(sheffer, [1, 1, Fraction(1, 2)])
    assert result["psi_binomial_holds"] and result["plain_binomial_holds"]


def test_sheffer_orbit():
    q = DeltaSeries.from_list(Q2, [0, 1, 1], N)
    s1 = DeltaSeries.from_list(Q2, [1, 2], N)
    s2 = DeltaSeries.from_list(Q2, [1, 0, -1], N)
    sheffer = sheffer_sequence(q, s1, N)
    moved = sheffer_product_shift(sheffer, s2)
    direct = sheffer_sequence(q, s1.multiply(s2), N)
    assert moved.table.entries == direct.table.entries
    assert verify_sheffer_definition(moved).passed


def test_routes_read_a_short_series_at_the_bound():
    # t + t^2 given at order 2 must give the same routes as at order 4
    classical = AdmissibleSequence.classical(4)
    q = DeltaSeries.from_list(classical, [0, 1, 1], 2)
    solved = basic_sequence_from_series(q, 4).table
    for name, table in closed_form_routes(q, 4).items():
        assert table.entries == solved.entries, name


def test_sheffer_reads_a_short_prefactor_at_the_bound():
    # S = 1 + t at order 1: S^-1 = 1 - t + t^2 - ..., so s_2 = x^2 - 2x + 2
    classical = AdmissibleSequence.classical(4)
    q = DeltaSeries.from_list(classical, [0, 1], 1)
    s = DeltaSeries.from_list(classical, [1, 1], 1)
    sheffer = sheffer_sequence(q, s, 4)
    assert sheffer[2] == Polynomial([2, -2, 1])
    assert orthogonality_report(sheffer)["passed"]
    basic = sheffer_sequence(q, DeltaSeries.from_list(classical, [1], 0), 4)
    assert sheffer_product_shift(basic, s).table.entries == sheffer.table.entries


def test_appell_sequence_lowers_with_derivative():
    s = DeltaSeries.from_list(Q2, [1, 1, 1], N)
    appell = appell_sequence(s, N)
    op = psi_derivative(Q2, N)
    for n in range(1, N + 1):
        assert op.apply(appell[n]) == appell[n - 1].scale(Q2.n_psi(n))


# -- addition rule: bivariate identity against the sampled loops ----------------


def reference_binomial_type(table, seq, y_values=None):
    """The addition rule evaluated at every sampled shift (the sampled loop)."""
    ys = default_shift_samples(table.bound + 2) if y_values is None else y_values
    for n in range(table.bound + 1):
        p_n = table[n]
        for y in ys:
            lhs = generalized_shift(seq, p_n, y)
            rhs = Polynomial()
            for k in range(n + 1):
                rhs = rhs + table[k].scale(seq.binomial(n, k) * table[n - k](y))
            if lhs != rhs:
                return CheckReport(
                    False,
                    "addition rule fails",
                    {"n": n, "y": str(y), "lhs": lhs.to_text(), "rhs": rhs.to_text()},
                )
    return CheckReport(True, "addition rule holds at all sampled shifts")


def reference_sheffer_binomial(sheffer, y_values=None):
    """The mixed addition rule evaluated at every sampled shift."""
    table, basic, seq = sheffer.table, sheffer.basic.table, sheffer.seq
    ys = default_shift_samples(table.bound + 2) if y_values is None else y_values
    for n in range(table.bound + 1):
        for y in ys:
            lhs = generalized_shift(seq, table[n], y)
            rhs = Polynomial()
            for k in range(n + 1):
                rhs = rhs + table[k].scale(seq.binomial(n, k) * basic[n - k](y))
            if lhs != rhs:
                return CheckReport(
                    False,
                    "mixed addition rule fails",
                    {"n": n, "y": str(y), "lhs": lhs.to_text(), "rhs": rhs.to_text()},
                )
    return CheckReport(True, "mixed addition rule holds at all sampled shifts")


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_rationals = small_rationals.filter(lambda v: v != 0)


@st.composite
def addition_cases(draw):
    """A family, a basic or Sheffer table on it, an optional single-coefficient
    perturbation, and a sample list (None, or possibly too short to separate)."""
    degree = draw(st.integers(2, 5))
    bound = degree + draw(st.integers(0, 1))
    if draw(st.booleans()):
        seq = AdmissibleSequence.custom(
            draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound)), bound
        )
    else:
        q = draw(small_rationals.filter(lambda v: v not in (1, -1)))
        seq = AdmissibleSequence.q_deformed(q, bound)
    tail = draw(st.lists(small_rationals, max_size=degree - 1))
    q_series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    sheffer = None
    if draw(st.booleans()):
        s_tail = draw(st.lists(small_rationals, max_size=degree))
        s_series = DeltaSeries.from_list(seq, [draw(nonzero_rationals)] + s_tail, degree)
        sheffer = sheffer_sequence(q_series, s_series, degree)
        table = sheffer.table
    else:
        table = basic_sequence_from_series(q_series, degree).table
    if draw(st.booleans()):
        entry = draw(st.integers(1, degree))
        index = draw(st.integers(0, entry - 1))
        entries = list(table.entries)
        entries[entry] = entries[entry] + Polynomial.monomial(index, draw(nonzero_rationals))
        table = SequenceTable(tuple(entries))
    if sheffer is not None:
        sheffer = replace(sheffer, table=table)
    y_values = draw(
        st.none()
        | st.lists(st.integers(-3, 3) | small_rationals, max_size=degree + 2)
    )
    return seq, table, sheffer, y_values


@settings(max_examples=80, deadline=None)
@given(case=addition_cases())
def test_addition_rule_matches_sampled_reference(case):
    seq, table, sheffer, y_values = case
    if sheffer is None:
        got = verify_binomial_type(table, seq, y_values)
        want = reference_binomial_type(table, seq, y_values)
    else:
        got = verify_sheffer_binomial(sheffer, y_values)
        want = reference_sheffer_binomial(sheffer, y_values)
    assert got == want


def test_addition_rule_short_samples_fall_through():
    # y = 0 cannot separate a perturbation of a term with x-degree below the
    # top: both sides reduce to p_n there, so the sampled rule passes.
    basic = basic_sequence(forward_difference(N), CLASSICAL)
    entries = list(basic.table.entries)
    entries[3] = entries[3] + X
    table = SequenceTable(tuple(entries))
    for y_values in ([0], [0, 0], None):
        got = verify_binomial_type(table, CLASSICAL, y_values)
        assert got == reference_binomial_type(table, CLASSICAL, y_values)
    assert verify_binomial_type(table, CLASSICAL, [0]).passed
    assert not verify_binomial_type(table, CLASSICAL).passed


def test_addition_rule_short_family_raises_like_sampled_loop():
    values = [1, 2, Fraction(1, 3), -1, 5, 2]
    long = AdmissibleSequence.custom(values, 6)
    short = AdmissibleSequence.custom(values[:3], 3)
    table = basic_sequence_from_series(DeltaSeries.from_list(long, [0, 1, 1], 6), 6).table
    messages = []
    for check in (verify_binomial_type, reference_binomial_type):
        with pytest.raises(UndefinedIndexError) as info:
            check(table, short)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "custom: index 4 outside validated range 0..3"
