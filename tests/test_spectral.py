"""Inner product, eigen operator routes, transports, deformed brackets."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.errors import (
    BadParameterError,
    ConstantTermError,
    EigenSeriesError,
    SingularOperatorError,
    WrongFamilyError,
)
from umbralcalc.operators import (
    OperatorMatrix,
    dual_operator,
    eigen_series,
    expand_in_dual_pair,
    identity_operator,
    multiplication_x,
    psi_derivative,
    realize_delta_series,
    xhat_psi,
    zero_operator,
)
from umbralcalc.poly import ONE, Polynomial, SequenceTable, X, coordinates_in_table
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import (
    appell_sequence,
    basic_sequence,
    basic_sequence_from_series,
    sheffer_sequence,
)
from umbralcalc.series import DeltaSeries
from umbralcalc.spectral import (
    appell_raising_telescope_report,
    sandwich_power_report,
    number_operator_steps_report,
    gram_positivity_report,
    inner_product,
    mutator_identity_report,
    orthogonality_report,
    qhat_eigenvalues,
    qhat_operator,
    qplane_commutation,
    qplane_substitution_report,
    shift_raiser,
    spectral_operator,
    umbral_operator,
    verify_conjugation_transport,
    transport_pincherle_report,
    xhat_psi_inverse,
)

N = 8
CLASSICAL = AdmissibleSequence.classical(N + 1)
Q2 = AdmissibleSequence.q_deformed(2, N + 1)
QHALF = AdmissibleSequence.q_deformed(Fraction(1, 2), N + 1)
FIB = AdmissibleSequence.fibonacci(N + 1)
HYP = AdmissibleSequence.hyperbolic(N + 1)

T_SERIES = [0, 1]  # the identity delta series: Q itself


def identity_sheffer(seq, s_coeffs, bound=N):
    q = DeltaSeries.from_list(seq, T_SERIES, bound)
    s = DeltaSeries.from_list(seq, s_coeffs, bound)
    return sheffer_sequence(q, s, bound)


# -- umbral transport ---------------------------------------------------------


def test_umbral_operator_maps_tables():
    src = basic_sequence_from_series(
        DeltaSeries.from_list(CLASSICAL, [0, 1, 1], N), N
    )
    monomials = SequenceTable(tuple(Polynomial.monomial(i) for i in range(N + 1)))
    u = umbral_operator(src.table, monomials)
    for n in range(N + 1):
        assert u.apply(src.table[n]) == Polynomial.monomial(n)
    u_inv = umbral_operator(monomials, src.table)
    assert u.compose(u_inv).columns == identity_operator(N).columns
    # any list of bound + 1 images works; a short one is rejected
    doubled = [p.scale(2) for p in src.table]
    assert umbral_operator(src.table, doubled).columns == identity_operator(N).scale(2).columns
    with pytest.raises(WrongFamilyError):
        umbral_operator(src.table, doubled[:-1])


# -- inner product ------------------------------------------------------------


def test_inner_product_frozen_values():
    # trivial prefactor: entries are monomials, pairing weight is n_psi!
    trivial = identity_sheffer(Q2, [1])
    # (x^2, x^2) = 2_q! = 1 * 3 = 3 at q = 2
    assert inner_product(trivial, X**2, X**2) == Fraction(3)
    assert inner_product(trivial, X, X**2) == 0
    # classical, S = 1 + Q: (s_1, x) = [Q S x](0) via hand solve = 1
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    s1 = sheffer.table[1]
    assert s1 == Polynomial([-1, 1])
    assert inner_product(sheffer, s1, X) == Fraction(1)


def test_orthogonality_all_families(families, degree):
    for seq in families:
        sheffer = identity_sheffer(seq, [1, 1, Fraction(1, 2)], degree)
        report = orthogonality_report(sheffer, kmax=6)
        assert report["passed"], (seq.label, report)


@pytest.mark.parametrize("kmax", [-1, N + 1])
def test_orthogonality_kmax_outside_the_table_is_rejected(kmax):
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    with pytest.raises(BadParameterError, match="kmax"):
        orthogonality_report(sheffer, kmax=kmax)


def test_gram_positivity():
    rng = random.Random(7)
    for seq in (CLASSICAL, Q2, QHALF, FIB, HYP):
        sheffer = identity_sheffer(seq, [1, -1, Fraction(1, 3)])
        report = gram_positivity_report(sheffer, rng, samples=4)
        assert report["passed"] is True, (seq.label, report)


def test_gram_skips_nonpositive_weights():
    seq = AdmissibleSequence.custom([1, -1, 2, 3, 4, 5, 6, 7, 8], N + 1)
    sheffer = identity_sheffer(seq, [1])
    report = gram_positivity_report(sheffer, random.Random(1))
    assert report["passed"] is None


# -- inverse raising ----------------------------------------------------------


def test_xhat_inverse_round_trip():
    for seq in (CLASSICAL, Q2, FIB, HYP):
        raiser = xhat_psi(seq, N)
        for n in range(N - 1):
            p = Polynomial([0] * n + [Fraction(5, 3)])
            assert xhat_psi_inverse(seq, raiser.apply(p)) == p
    with pytest.raises(ConstantTermError):
        xhat_psi_inverse(CLASSICAL, ONE)


# -- spectral operator ---------------------------------------------------------


def test_spectral_definitional_eigenvalues(families, degree):
    for seq in families:
        sheffer = identity_sheffer(seq, [1, 1], degree)
        result = spectral_operator(sheffer)
        for n in range(degree + 1):
            assert result.definitional.apply(sheffer.table[n]) == sheffer.table[
                n
            ].scale(n), seq.label
        assert result.composition_agrees, seq.label


def test_spectral_formula_classical_anchor():
    # S = 1 + Q over the classical family: hand-derived printed coefficients
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    result = spectral_operator(sheffer)
    # u_k = (-1)^k (k-1)!
    assert result.u_values[:3] == (Fraction(-1), Fraction(1), Fraction(-2))
    assert all(entry["reading_a"] for entry in result.term_agreement)


def test_spectral_formula_disagrees_for_deformed():
    sheffer = identity_sheffer(Q2, [1, 1])
    result = spectral_operator(sheffer)
    assert result.composition_agrees
    assert not all(entry["reading_a"] for entry in result.term_agreement)
    assert not all(entry["reading_b"] for entry in result.term_agreement)


def test_spectral_nontrivial_lowering_operator():
    q = DeltaSeries.from_list(CLASSICAL, [0, 1, 1], N)
    s = DeltaSeries.from_list(CLASSICAL, [1, 0, Fraction(1, 2)], N)
    sheffer = sheffer_sequence(q, s, N)
    result = spectral_operator(sheffer)
    for n in range(N + 1):
        assert result.definitional.apply(sheffer.table[n]) == sheffer.table[n].scale(n)
    assert result.composition_agrees


# -- deformed bracket -----------------------------------------------------------


def test_qhat_eigenvalues_q_family_constant():
    values = qhat_eigenvalues(Q2, N)
    assert all(v == 2 for v in values[1:])
    literal = qhat_eigenvalues(HYP, N, literal_one=True)
    graded = qhat_eigenvalues(HYP, N)
    assert literal[1] != graded[1]


def test_mutator_identity_all_families(families, degree):
    for seq in families:
        basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
        report = mutator_identity_report(basic, seq)
        assert report["passed"], (seq.label, report)
        # and for a composite lowering operator
        basic2 = basic_sequence_from_series(
            DeltaSeries.from_list(seq, [0, 1, 1], degree), degree
        )
        report2 = mutator_identity_report(basic2, seq)
        assert report2["passed"], (seq.label, report2)


def test_mutator_literal_and_dual_variants():
    # literal integer 1 breaks exactly the families with 1_psi != 1
    basic_h = basic_sequence(psi_derivative(HYP, N), HYP, N)
    assert not mutator_identity_report(basic_h, HYP, literal_one=True)["passed"]
    assert mutator_identity_report(basic_h, HYP)["passed"]
    # the dual-scaled raiser satisfies the bracket only classically
    basic_c = basic_sequence(psi_derivative(CLASSICAL, N), CLASSICAL, N)
    assert mutator_identity_report(basic_c, CLASSICAL, raiser_mode="dual")["passed"]
    basic_q = basic_sequence(psi_derivative(Q2, N), Q2, N)
    assert not mutator_identity_report(basic_q, Q2, raiser_mode="dual")["passed"]


def test_shift_raiser_is_x_multiplication_for_q_monomials():
    basic = basic_sequence(psi_derivative(Q2, N), Q2, N)
    r = shift_raiser(basic, Q2)
    for j in range(N):
        assert r.column(j) == Polynomial.monomial(j + 1)
    assert r.column(N).is_zero()


# -- quantum plane ---------------------------------------------------------------


def test_qplane_commutation_exact():
    for q in (2, Fraction(1, 2), Fraction(-3, 4)):
        report = qplane_commutation(q, N)
        assert report["passed"] and report["window"] == N


def test_qplane_identification_basic_and_sheffer():
    ys = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for seq in (Q2, QHALF):
        basic = basic_sequence(psi_derivative(seq, N), seq, N)
        report = qplane_substitution_report(
            seq, basic.table, ys, partner_table=basic.table
        )
        assert report["passed"], report
        sheffer = identity_sheffer(seq, [1, 1])
        mixed = qplane_substitution_report(
            seq, sheffer.table, ys, partner_table=basic.table
        )
        assert mixed["passed"], mixed


def test_qplane_rejects_other_families():
    basic = basic_sequence(psi_derivative(CLASSICAL, N), CLASSICAL, N)
    with pytest.raises(WrongFamilyError):
        qplane_substitution_report(CLASSICAL, basic.table, [Fraction(1)])


# -- factorization identities -----------------------------------------------------


def test_sandwich_powers(families, degree):
    for seq in families:
        basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
        for n in (1, 2, 3):
            report = sandwich_power_report(basic, seq, n)
            assert report["first_identity_exact"], (seq.label, n)
            assert report["second_identity_window"] >= degree - n, (seq.label, n)


def test_number_operator_steps_plain_vs_graded():
    fs = [ONE, Polynomial([0, 1]), Polynomial([1, 0, Fraction(1, 2)])]
    for seq in (CLASSICAL, Q2, FIB):
        basic = basic_sequence(psi_derivative(seq, N), seq, N)
        for n in (1, 2, 3):
            for f in fs:
                report = number_operator_steps_report(basic, seq, n, f)
                assert report["passed"], (seq.label, n, f.to_text())
    # graded steps only collapse to the plain ones classically; for the
    # q-family the first divergent step weight is 2_psi, so probe n = 3
    basic_c = basic_sequence(psi_derivative(CLASSICAL, N), CLASSICAL, N)
    assert number_operator_steps_report(basic_c, CLASSICAL, 3, X)["graded_matches"]
    basic_q = basic_sequence(psi_derivative(Q2, N), Q2, N)
    assert not number_operator_steps_report(basic_q, Q2, 3, X)["graded_matches"]
    basic_h = basic_sequence(psi_derivative(HYP, N), HYP, N)
    assert not number_operator_steps_report(basic_h, HYP, 2, X)["graded_matches"]


def test_appell_weighted_display_classical_vs_deformed():
    for seq, should_hold in ((CLASSICAL, True), (Q2, False), (FIB, False)):
        basic = basic_sequence(psi_derivative(seq, N), seq, N)
        appell = appell_sequence(DeltaSeries.from_list(seq, [1, 1], N), N)
        report = appell_raising_telescope_report(basic, seq, appell.table, 2)
        assert report["as_printed_holds"] == should_hold, (seq.label, report)
        assert report["step_holds"] == should_hold, (seq.label, report)
        assert report["derivative_ladder_holds"] == should_hold, seq.label


# -- transport checks -------------------------------------------------------------


def test_conjugation_transport(families, degree):
    for seq in families:
        src = DeltaSeries.from_list(seq, [0, 1, 1], degree)
        tgt = DeltaSeries.from_list(seq, [0, 1, 0, Fraction(-1, 3)], degree)
        report = verify_conjugation_transport(
            seq,
            src,
            tgt,
            [1, 1, Fraction(1, 2)],
            degree,
            sheffer_s=DeltaSeries.from_list(seq, [1, 1], degree),
        )
        assert report["passed"], (seq.label, report)
        assert report["conjugate_is_target_operator"], seq.label
        assert report["sheffer_image_is_sheffer"], seq.label


def test_transport_pincherle_window(families, degree):
    for seq in families:
        for coeffs in ([0, 1], [0, 1, 1], [0, 1, Fraction(-1, 2), Fraction(1, 6)]):
            l_series = DeltaSeries.from_list(seq, coeffs, degree)
            report = transport_pincherle_report(seq, l_series, degree)
            assert report["window"] >= degree - 1, (seq.label, coeffs, report)


# -- consolidated kernels against the loops they replaced ------------------------
#
# The references below are the hand-written triangular solves and
# column-by-column basis changes that each builder used to carry, kept
# verbatim; the library now routes all of them through `coordinates_in_table`,
# `umbral_operator` and `OperatorMatrix.powers`.


def reference_basic_entries(q_op, seq, bound):
    entries = [ONE]
    for n in range(1, bound + 1):
        target = entries[-1].scale(seq.n_psi(n))
        coeffs = [Fraction(0)] * (n + 1)
        residue = target
        for i in range(n, 0, -1):
            col = q_op.column(i)
            pivot = col.coefficient(i - 1)
            if pivot == 0:
                raise SingularOperatorError(f"zero subdiagonal pivot at degree {i}")
            c = residue.coefficient(i - 1)
            if c != 0:
                coeffs[i] = c / pivot
                residue = residue - col.scale(coeffs[i])
        if not residue.is_zero():
            raise SingularOperatorError("graded solve left a residue")
        entries.append(Polynomial(coeffs))
    return entries


def reference_eigen_series(q_op, truncation):
    phis = [ONE]
    for n in range(1, truncation + 1):
        target = phis[-1]
        coeffs = [Fraction(0)] * (n + 1)
        residue = target
        for i in range(n, 0, -1):
            pivot_poly = q_op.column(i)
            pivot = pivot_poly.coefficient(i - 1)
            if pivot == 0:
                raise EigenSeriesError(f"zero pivot at degree {i}")
            c = residue.coefficient(i - 1)
            coeffs[i] = c / pivot
            if c != 0:
                residue = residue - pivot_poly.scale(coeffs[i])
        if not residue.is_zero():
            raise EigenSeriesError("ladder solve left a residue")
        phis.append(Polynomial(coeffs))
    return phis


def reference_expansion(t, q_op, raiser):
    """(coefficients, reassembled columns) of T = sum q_n(raiser) Q^n."""
    bound = t.bound
    r_powers = [identity_operator(bound)]
    for _ in range(bound):
        r_powers.append(raiser.compose(r_powers[-1]))
    ladder = [p.apply(ONE) for p in r_powers]
    q_powers = [identity_operator(bound)]
    for _ in range(bound):
        q_powers.append(q_op.compose(q_powers[-1]))

    acc = zero_operator(bound)
    coefficients = []
    for j in range(bound + 1):
        rho = t.column(j) - acc.column(j)
        # expand rho in the triangular ladder {raiser^i 1}
        u = [Fraction(0)] * (bound + 1)
        residue = rho
        for i in range(bound, -1, -1):
            c = residue.coefficient(i)
            if c != 0:
                u[i] = c / ladder[i].coefficient(i)
                residue = residue - ladder[i].scale(u[i])
        pivot = q_powers[j].apply(Polynomial.monomial(j)).constant_term
        q_j = Polynomial([ui / pivot for ui in u])
        coefficients.append(q_j)
        if not q_j.is_zero():
            step = zero_operator(bound)
            for i, c in enumerate(q_j.coeffs):
                if c != 0:
                    step = step.add(r_powers[i].scale(c))
            acc = acc.add(step.compose(q_powers[j]))
    return tuple(coefficients), acc.columns


def reference_umbral_operator(source, target):
    cols = []
    for j in range(source.bound + 1):
        coords = coordinates_in_table(source, Polynomial.monomial(j))
        image = Polynomial()
        for i, c in enumerate(coords):
            if c != 0:
                image = image + target[i].scale(c)
        cols.append(image)
    return cols


def reference_definitional(table, bound):
    cols = []
    for j in range(bound + 1):
        coords = coordinates_in_table(table, Polynomial.monomial(j))
        image = Polynomial()
        for n, c in enumerate(coords):
            if c != 0 and n > 0:
                image = image + table[n].scale(c * n)
        cols.append(image)
    return cols


def reference_dual_operator(q_op, table, seq):
    bound = q_op.bound
    cols = []
    for j in range(bound + 1):
        coords = coordinates_in_table(table, Polynomial.monomial(j))
        image = Polynomial()
        for i in range(bound):
            if coords[i] != 0:
                factor = Fraction(i + 1) / seq.n_psi(i + 1)
                image = image + table[i + 1].scale(coords[i] * factor)
        cols.append(image)
    return cols


def reference_qhat_operator(basic, seq, literal_one):
    bound = basic.bound
    values = qhat_eigenvalues(seq, bound, literal_one)
    cols = []
    for j in range(bound + 1):
        coords = coordinates_in_table(basic.table, Polynomial.monomial(j))
        image = Polynomial()
        for i, c in enumerate(coords):
            if c != 0:
                image = image + basic.table[i].scale(c * values[i])
        cols.append(image)
    return cols


def reference_shift_raiser(basic, seq):
    bound = basic.bound
    scale = 1 / seq.n_psi(1)
    cols = []
    for j in range(bound + 1):
        coords = coordinates_in_table(basic.table, Polynomial.monomial(j))
        image = Polynomial()
        for i in range(bound):
            if coords[i] != 0:
                image = image + basic.table[i + 1].scale(coords[i] * scale)
        cols.append(image)
    return cols


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_rationals = small_rationals.filter(lambda v: v != 0)


@st.composite
def kernel_cases(draw):
    """A custom family, a delta series and an invertible series on it, and
    an arbitrary operator to expand, all at a small degree."""
    degree = draw(st.integers(2, 5))
    bound = degree + 1  # one spare weight for the deformation eigenvalues
    seq = AdmissibleSequence.custom(
        draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound)), bound
    )
    q_tail = draw(st.lists(small_rationals, max_size=degree - 1))
    q_series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + q_tail, degree)
    s_tail = draw(st.lists(small_rationals, max_size=degree))
    s_series = DeltaSeries.from_list(seq, [draw(nonzero_rationals)] + s_tail, degree)
    columns = draw(
        st.lists(
            st.lists(small_rationals, max_size=degree + 1),
            min_size=degree + 1,
            max_size=degree + 1,
        )
    )
    t = OperatorMatrix(tuple(Polynomial(c) for c in columns))
    return seq, sheffer_sequence(q_series, s_series, degree), t


@settings(max_examples=40, deadline=None)
@given(case=kernel_cases(), truncation=st.integers(0, 5), count=st.integers(0, 6))
def test_consolidated_kernels_match_replaced_loops(case, truncation, count):
    seq, sheffer, t = case
    basic = sheffer.basic
    q_op, bound = basic.q_op, basic.bound

    assert basic_sequence(q_op, seq).table.entries == tuple(
        reference_basic_entries(q_op, seq, bound)
    )
    truncation = min(truncation, bound)
    assert eigen_series(q_op, truncation) == reference_eigen_series(q_op, truncation)

    dual = dual_operator(q_op, basic.table, seq)
    assert list(dual.columns) == reference_dual_operator(q_op, basic.table, seq)
    for raiser in (multiplication_x(bound), xhat_psi(seq, bound), dual):
        got = expand_in_dual_pair(t, q_op, raiser)
        assert (got.coefficients, got.reassembled.columns) == reference_expansion(
            t, q_op, raiser
        )

    monomials = SequenceTable(tuple(Polynomial.monomial(i) for i in range(bound + 1)))
    for source, target in ((basic.table, sheffer.table), (sheffer.table, monomials)):
        assert list(umbral_operator(source, target).columns) == reference_umbral_operator(
            source, target
        )
    assert list(spectral_operator(sheffer).definitional.columns) == reference_definitional(
        sheffer.table, bound
    )
    for literal_one in (False, True):
        assert list(qhat_operator(basic, seq, literal_one).columns) == (
            reference_qhat_operator(basic, seq, literal_one)
        )
    assert list(shift_raiser(basic, seq).columns) == reference_shift_raiser(basic, seq)

    for m in (q_op, dual, t):
        ladder = m.powers(count)
        assert len(ladder) == count + 1
        for i, power in enumerate(ladder):
            assert power == m.power(i)
        with pytest.raises(BadParameterError):
            m.powers(-1)

