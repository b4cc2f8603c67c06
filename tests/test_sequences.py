"""Basic and Sheffer sequences: solves, closed forms, addition rules, GF."""

from dataclasses import replace
from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc import psi
from umbralcalc.errors import (
    BadParameterError,
    DegreeOverflowError,
    NotDegreeLoweringError,
    UndefinedIndexError,
)
from umbralcalc.operators import (
    apply_delta_series,
    eigen_series,
    forward_difference,
    generalized_shift,
    lowering_failures,
    multiplication_x,
    operator_polynomial,
    psi_derivative,
    realize_delta_series,
)
from umbralcalc.poly import ONE, Polynomial, SequenceTable, X, coordinates_in_table
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import (
    appell_sequence,
    basic_sequence,
    basic_sequence_from_series,
    CheckReport,
    closed_form_routes,
    default_shift_samples,
    expansion_coordinates,
    generating_function_failures,
    inverse_reconstruction_failures,
    reconstruct_inverse_series,
    sheffer_sequence,
    verify_binomial_type,
    verify_sheffer_binomial,
)
from umbralcalc.harness import _convention_failures
from umbralcalc.series import DeltaSeries
from umbralcalc.spectral import orthogonality_failures

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
    basic = basic_sequence(forward_difference(N), CLASSICAL, N)
    for n in range(N + 1):
        assert basic.table[n] == falling_factorial_poly(n)


def test_basic_of_derivative_is_monomials():
    basic = basic_sequence(psi_derivative(Q2, N), Q2, N)
    for n in range(N + 1):
        assert basic.table[n] == Polynomial.monomial(n)


def test_graded_ladder_keeps_its_error_types():
    # one fault at a time: each guard of basic_sequence and eigen_series
    q_op = psi_derivative(CLASSICAL, 4)
    with pytest.raises(NotDegreeLoweringError, match="grading is raises_by_one"):
        basic_sequence(multiplication_x(4), CLASSICAL, 4)
    with pytest.raises(BadParameterError, match="bound exceeds operator bound"):
        basic_sequence(q_op, CLASSICAL, 5)
    with pytest.raises(UndefinedIndexError, match="index 3 outside"):
        basic_sequence(q_op, AdmissibleSequence.classical(2), 4)
    with pytest.raises(DegreeOverflowError, match="truncation beyond operator bound"):
        eigen_series(q_op, 5)


def test_series_table_builds_only_the_integer_factorial_tables(monkeypatch):
    # the range guard reads no factorial table: a fresh family runs one
    # running-products pass for n_psi! and one for 1 / n_psi!, when the
    # table's entries are first read
    calls = []
    original = psi._running_products

    def counted(*factors, **options):
        calls.append(factors)
        return original(*factors, **options)

    monkeypatch.setattr(psi, "_running_products", counted)
    seq = AdmissibleSequence.custom([1, 2, Fraction(1, 3), -1, 5, 2], 6)
    basic_sequence_from_series(DeltaSeries.from_list(seq, [0, 1, 1], 6), 6).table.entries
    assert len(calls) == 2
    short = AdmissibleSequence.custom([1, 2, Fraction(1, 3)], 3)
    with pytest.raises(UndefinedIndexError) as info:
        basic_sequence_from_series(DeltaSeries.from_list(short, [0, 1, 1], 3), 4)
    assert str(info.value) == "custom: factorial index 4 outside 0..3"


def test_hermite_like_cross_check():
    # Q = D - D^2: independent construction from the exponential formula
    # p_n = sum over compositions, done here by direct recurrence on
    # coefficients: p_n = x * p_{n-1} + p'_{n-1} shifted... instead use the
    # triangular solve and verify the defining relation plus the addition rule
    q = DeltaSeries.from_list(CLASSICAL, [0, 1, -1], N)
    basic = basic_sequence_from_series(q, N)
    op = realize_delta_series(q, N)
    for n in range(1, N + 1):
        assert op.apply(basic.table[n]) == basic.table[n - 1].scale(n)
        assert basic.table[n].constant_term == 0
    report = verify_binomial_type(basic.table, CLASSICAL)
    assert report.passed, report.witness
    # degree-2 entry solved by hand: (D - D^2)(x^2 + 2x) = 2x + 2 - 2 = 2 p_1
    assert basic.table[2] == Polynomial([0, 2, 1])


def test_closed_form_routes_match_solve():
    for seq in (CLASSICAL, Q2, AdmissibleSequence.fibonacci(N + 1)):
        for coeffs in ([0, 1], [0, 1, 1], [0, 1, Fraction(-1, 2), Fraction(1, 3)]):
            q = DeltaSeries.from_list(seq, coeffs, N)
            routes = closed_form_routes(q, N)
            solved = basic_sequence_from_series(q, N).table
            for name, table in routes.items():
                assert table.entries == solved.entries, (seq.label, coeffs, name)


def test_classical_sheffer_shifted_monomials():
    # Q = D, S = e^D: the Sheffer entries are (x - 1)^n
    q = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    sheffer = sheffer_sequence(q, exp_series(CLASSICAL, N), N)
    for n in range(N + 1):
        assert sheffer.table[n] == Polynomial.monomial(n).compose(Polynomial([-1, 1]))
    assert next(lowering_failures(sheffer.q_op, sheffer.table, CLASSICAL), None) is None
    assert verify_sheffer_binomial(sheffer).passed
    assert next(inverse_reconstruction_failures(sheffer), None) is None


def test_generating_function_classical_anchor():
    q = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    sheffer = sheffer_sequence(q, exp_series(CLASSICAL, N), N)
    witness = next(generating_function_failures(sheffer, 6), None)
    assert witness is None, witness


def test_generating_function_deformed():
    q = DeltaSeries.from_list(Q2, [0, 1, Fraction(1, 2)], N)
    s = DeltaSeries.from_list(Q2, [1, -1, Fraction(1, 3)], N)
    sheffer = sheffer_sequence(q, s, N)
    witness = next(generating_function_failures(sheffer, 6), None)
    assert witness is None, witness


def test_binomial_type_fails_for_perturbation():
    basic = basic_sequence(forward_difference(N), CLASSICAL, N)
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
    # the Delta ladder of eigen_series is the falling factorials over n!
    phis = eigen_series(forward_difference(N), 5)
    for n in range(6):
        assert phis[n] == falling_factorial_poly(n).scale(
            Fraction(1, math.factorial(n))
        )


def test_expansion_constants_conventions():
    q = DeltaSeries.from_list(Q2, [0, 1, Fraction(1, 3)], N)
    s = DeltaSeries.from_list(Q2, [1, 1], N)
    sheffer = sheffer_sequence(q, s, N)
    a = [Fraction(1, 2), 2, 0, 1]
    rows = expansion_coordinates(sheffer, a)
    witness = next(_convention_failures(rows, Q2.binomial), None)
    assert witness is None, witness
    assert next(_convention_failures(rows, math.comb), None) is not None
    # derived constants are a_j j_psi!
    for j in range(len(a)):
        assert rows[j][0] == a[j] * Q2.factorial(j)


def test_expansion_constants_classical_agreement():
    # classically both conventions coincide
    q = DeltaSeries.from_list(CLASSICAL, [0, 1], N)
    s = DeltaSeries.from_list(CLASSICAL, [1, 1], N)
    sheffer = sheffer_sequence(q, s, N)
    rows = expansion_coordinates(sheffer, [1, 1, Fraction(1, 2)])
    assert next(_convention_failures(rows, CLASSICAL.binomial), None) is None
    assert next(_convention_failures(rows, math.comb), None) is None


def old_verify_expansion_constants(sheffer, a_coeffs) -> dict:
    """Expand A = sum a_j Q^j against the Sheffer table under both binomial
    conventions; returns which convention admits constants."""
    seq = sheffer.seq
    bound = sheffer.bound
    q_op = sheffer.q_op
    # A = sum a_j Q^j as a matrix, then its action in Sheffer coordinates
    a_of_q = operator_polynomial(Polynomial(list(a_coeffs)[: bound + 1]), q_op)
    rows = []
    for n in range(bound + 1):
        image = a_of_q.apply(sheffer.table[n])
        rows.append(coordinates_in_table(sheffer.table, image))

    def convention_witness(binom):
        for n in range(bound + 1):
            for j in range(n + 1):
                if rows[n][n - j] != binom(n, j) * rows[j][0]:
                    return (n, j)
        return None

    psi_witness = convention_witness(seq.binomial)
    return {
        "psi_binomial_holds": psi_witness is None,
        "psi_constants": [rows[j][0] for j in range(bound + 1)] if psi_witness is None else None,
        "psi_witness": psi_witness,
        "plain_binomial_holds": convention_witness(math.comb) is None,
    }


def test_expansion_conventions_match_the_old_constants():
    """The graded search yields no witness exactly when the old graded
    convention held, and otherwise first the old witness; the plain verdict
    and, where the graded convention holds, the constants are the old ones.
    On roster Sheffer tables and on copies with one entry moved."""
    from conftest import family_roster

    rng = random.Random(30)
    a_choices = ([1, 1, Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 2, 0, 1], [0, 0, 3])
    degree = 6
    seen = set()
    for seq in family_roster(degree + 1):
        q = DeltaSeries.from_list(seq, [0, 1, 1, Fraction(-1, 2)], degree)
        s = DeltaSeries.from_list(seq, [1, Fraction(1, 2), 2], degree)
        sheffer = sheffer_sequence(q, s, degree)
        copies = [sheffer]
        for n in range(degree + 1):
            entries = list(sheffer.table.entries)
            entries[n] = entries[n] + Polynomial.monomial(rng.randint(0, n), rng.choice([1, -2]))
            if entries[n].degree == n:
                copies.append(replace(sheffer, table=SequenceTable(tuple(entries))))
        for copy in copies:
            for a in a_choices:
                old = old_verify_expansion_constants(copy, a)
                rows = expansion_coordinates(copy, a)
                witness = next(_convention_failures(rows, seq.binomial), None)
                if old["psi_binomial_holds"]:
                    assert witness is None
                    assert [row[0] for row in rows] == old["psi_constants"]
                else:
                    assert witness == dict(zip(("n", "j"), old["psi_witness"]))
                plain = next(_convention_failures(rows, math.comb), None) is None
                assert plain == old["plain_binomial_holds"]
                seen.add((old["psi_binomial_holds"], old["plain_binomial_holds"]))
    # both graded verdicts and both plain verdicts occur
    assert {g for g, _ in seen} == {True, False} and {p for _, p in seen} == {True, False}


def old_convention_failures(rows, binom):
    """Witnesses {"n", "j"} where the expansion coordinates `rows` break the
    convention `binom`: row n, coordinate n - j, is not binom(n, j) times
    row j, coordinate 0."""
    return ({"n": n, "j": j} for n, row in enumerate(rows) for j in range(n + 1)
            if row[n - j] != binom(n, j) * rows[j][0])


def test_convention_search_skips_only_comparisons_every_table_passes():
    """The search over 0 < j < n yields every witness, in order, of the one
    over 0 <= j <= n it replaced, on roster Sheffer tables and on copies with
    one entry moved, under both conventions: j = n compares row n,
    coordinate 0, with itself, and at j = 0 both sides are a_0. Rows that no
    operator gives, coordinate 1 of row 1 off a_0, break only j = 0."""
    from conftest import family_roster

    rng = random.Random(31)
    a_choices = ([1, 1, Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 2, 0, 1], [0, 0, 3])
    degree = 6
    witnesses = 0
    for seq in family_roster(degree + 1):
        q = DeltaSeries.from_list(seq, [0, 1, 1, Fraction(-1, 2)], degree)
        s = DeltaSeries.from_list(seq, [1, Fraction(1, 2), 2], degree)
        sheffer = sheffer_sequence(q, s, degree)
        tables = [sheffer.table]
        for n in range(degree + 1):
            entries = list(sheffer.table.entries)
            entries[n] = entries[n] + Polynomial.monomial(rng.randint(0, n), rng.choice([1, -2]))
            if entries[n].degree == n:
                tables.append(SequenceTable(tuple(entries)))
        for table in tables:
            for a in a_choices:
                rows = expansion_coordinates(replace(sheffer, table=table), a)
                for binom in (seq.binomial, math.comb):
                    want = list(old_convention_failures(rows, binom))
                    assert list(_convention_failures(rows, binom)) == want
                    witnesses += len(want)
    assert witnesses
    rows = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    assert list(old_convention_failures(rows, math.comb)) == [{"n": 1, "j": 0}]
    assert list(_convention_failures(rows, math.comb)) == []


def test_sheffer_orbit():
    # the Sheffer orbit: s_n for S1 S2 is S2^-1 applied to s_n for S1
    q = DeltaSeries.from_list(Q2, [0, 1, 1], N)
    s1 = DeltaSeries.from_list(Q2, [1, 2], N)
    s2 = DeltaSeries.from_list(Q2, [1, 0, -1], N)
    sheffer = sheffer_sequence(q, s1, N)
    moved = [apply_delta_series(s2.multiplicative_inverse(), p) for p in sheffer.table]
    direct = sheffer_sequence(q, s1.multiply(s2), N)
    assert tuple(moved) == direct.table.entries
    assert next(lowering_failures(direct.q_op, direct.table, Q2), None) is None


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
    assert sheffer.table[2] == Polynomial([2, -2, 1])
    assert next(orthogonality_failures(sheffer, 4), None) is None
    basic = sheffer_sequence(q, DeltaSeries.from_list(classical, [1], 0), 4)
    s_inv = DeltaSeries.from_list(classical, s.coeffs, 4).multiplicative_inverse()
    assert tuple([apply_delta_series(s_inv, p) for p in basic.table]) == sheffer.table.entries


def test_appell_sequence_lowers_with_derivative():
    s = DeltaSeries.from_list(Q2, [1, 1, 1], N)
    appell = appell_sequence(s, N)
    op = psi_derivative(Q2, N)
    for n in range(1, N + 1):
        assert op.apply(appell.table[n]) == appell.table[n - 1].scale(Q2.n_psi(n))


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
    basic = basic_sequence(forward_difference(N), CLASSICAL, N)
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


def test_addition_rule_reads_a_shift_iterator_once():
    # y = 0 cannot separate degree 2 (x^2 - x), so the samples are read again
    # at degree 5, where they must still be there
    entries = [Polynomial.monomial(n) for n in range(6)]
    entries[2] = entries[2] - X
    entries[5] = entries[5] - ONE
    table = SequenceTable(tuple(entries))
    seq = AdmissibleSequence.classical(6)
    want = verify_binomial_type(table, seq, [Fraction(0)])
    assert not want.passed and want.witness["n"] == 5
    assert verify_binomial_type(table, seq, iter([Fraction(0)])) == want
