"""Inner product, eigen operator routes, transports, deformed brackets."""

import dataclasses
from fractions import Fraction
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.errors import (
    BadParameterError,
    BasisMismatchError,
    NotInvertibleError,
    SingularOperatorError,
    UmbralError,
    WrongFamilyError,
)
from umbralcalc.operators import (
    OperatorMatrix,
    apply_delta_series,
    commutator,
    dilation,
    dual_operator,
    eigen_series,
    expand_in_dual_pair,
    from_action,
    identity_operator,
    indicator,
    multiplication_x,
    operator_polynomial,
    operator_polynomial_applied,
    psi_derivative,
    realize_delta_series,
    xhat_psi,
    zero_operator,
)
from umbralcalc.poly import ONE, Polynomial, SequenceTable, X, coordinates_in_table, parse_polynomial
from umbralcalc.psi import AdmissibleSequence, Q_DEFORMED
from umbralcalc.sequences import (
    BasicSequence,
    _addition_rule,
    appell_sequence,
    basic_sequence,
    basic_sequence_from_series,
    sheffer_sequence,
    verify_binomial_type,
    verify_sheffer_binomial,
)
from umbralcalc.series import DeltaSeries
from umbralcalc import operators, spectral
from umbralcalc.harness import run_suites
from umbralcalc.spectral import (
    appell_telescope_windows,
    factorization_windows,
    gram_failures,
    inner_product,
    mutator_failures,
    orthogonality_failures,
    q_parameter,
    qhat_operator,
    qplane_commutation,
    qplane_substitution_failures,
    shift_raiser,
    spectral_operator,
    umbral_operator,
    conjugation_transport_failures,
    transport_pincherle_window,
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
    assert inner_product(trivial, Polynomial.monomial(2), Polynomial.monomial(2)) == Fraction(3)
    assert inner_product(trivial, X, Polynomial.monomial(2)) == 0
    # classical, S = 1 + Q: (s_1, x) = [Q S x](0) via hand solve = 1
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    s1 = sheffer.table[1]
    assert s1 == Polynomial([-1, 1])
    assert inner_product(sheffer, s1, X) == Fraction(1)


def test_orthogonality_all_families(families, degree):
    for seq in families:
        sheffer = identity_sheffer(seq, [1, 1, Fraction(1, 2)], degree)
        witness = next(orthogonality_failures(sheffer, 6), None)
        assert witness is None, (seq.label, witness)


def test_orthogonality_witness_is_the_first_failing_pairing():
    # pairings with s_1 one too large fail at every n, k outer and n inner
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    row = spectral._pairing_row
    bumped = lambda sh, g, count: [v + 1 if i == 1 else v for i, v in enumerate(row(sh, g, count))]
    with mock.patch.object(spectral, "_pairing_row", bumped):
        witnesses = list(orthogonality_failures(sheffer, 3))
    assert witnesses[0] == {"k": 1, "n": 0, "got": "1", "expected": "0"}
    assert [(w["k"], w["n"]) for w in witnesses] == [(1, n) for n in range(4)]


@pytest.mark.parametrize("kmax", [-1, N + 1])
def test_orthogonality_kmax_outside_the_table_is_rejected(kmax):
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    with pytest.raises(BadParameterError, match="kmax"):
        orthogonality_failures(sheffer, kmax)


def test_gram_positivity():
    rng = random.Random(7)
    for seq in (CLASSICAL, Q2, QHALF, FIB, HYP):
        sheffer = identity_sheffer(seq, [1, -1, Fraction(1, 3)])
        witness = next(gram_failures(sheffer, rng, 4), None)
        assert witness is None, (seq.label, witness)


def test_gram_skips_nonpositive_weights():
    # the harness checks gram positivity only for families of positive weights
    seq = AdmissibleSequence.custom([1, -1, 2, 3, 4, 5, 6, 7, 8], N + 1)
    reports = run_suites(["orthogonality"], [CLASSICAL, seq], N)
    assert [(r.family, r.identity_id) for r in reports] == [
        ("classical", "diagonal-pairing"),
        ("classical", "gram-positivity"),
        (seq.label, "diagonal-pairing"),
    ]


class CountingRandom(random.Random):
    """A seeded rng that counts its `randint` draws."""

    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


def test_gram_draws_nothing_after_its_first_witness():
    # the second of five samples fails; a sample draws a numerator and a
    # denominator per coefficient
    sheffer = identity_sheffer(CLASSICAL, [1])
    values = iter([Fraction(1), Fraction(-1)] + [Fraction(1)] * 3)
    rng = CountingRandom(1)
    with mock.patch.object(spectral, "inner_product", lambda sh, f, g: next(values)):
        failures = gram_failures(sheffer, rng, 5)
        assert rng.draws == 0
        witness = next(failures)
    assert witness["value"] == "-1" and list(witness) == ["f", "value"]
    assert rng.draws == 2 * 2 * (N + 1)
    # a family with 1_psi < 0 gives a real witness
    seq = AdmissibleSequence.custom([1, -1, 2, 3, 4, 5, 6, 7, 8], N + 1)
    sheffer = identity_sheffer(seq, [1])
    witness = next(gram_failures(sheffer, random.Random(1), 5))
    f = parse_polynomial(witness["f"])
    assert Fraction(witness["value"]) == inner_product(sheffer, f, f) <= 0


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
    assert result.printed_divergence is None


def test_spectral_recipe_needs_an_invertible_prefactor():
    # the printed recipe reads (log s)' = s'/s, which needs s(0) != 0
    sheffer = identity_sheffer(CLASSICAL, [1, 1])
    broken = dataclasses.replace(sheffer, s_series=DeltaSeries.from_list(CLASSICAL, [0, 1], N))
    with pytest.raises(NotInvertibleError):
        spectral_operator(broken)


def test_spectral_formula_disagrees_for_deformed():
    sheffer = identity_sheffer(Q2, [1, 1])
    result = spectral_operator(sheffer)
    assert result.composition_agrees
    assert result.printed_divergence == 2


def test_spectral_nontrivial_lowering_operator():
    q = DeltaSeries.from_list(CLASSICAL, [0, 1, 1], N)
    s = DeltaSeries.from_list(CLASSICAL, [1, 0, Fraction(1, 2)], N)
    sheffer = sheffer_sequence(q, s, N)
    result = spectral_operator(sheffer)
    for n in range(N + 1):
        assert result.definitional.apply(sheffer.table[n]) == sheffer.table[n].scale(n)
    assert result.composition_agrees


def test_coefficient_readers_build_no_reassembly():
    """`spectral_operator` and `indicator` read only the coefficients of
    their expansions, over a weighted-shift Q and over a series Q alike, so
    neither the reassembly nor the series route's recomposition back through
    the powers of q is built; a caller that reads `reassembled` builds it once."""
    def watch(name):
        return mock.patch.object(operators, name, wraps=getattr(operators, name))

    pairs = [(seq, DeltaSeries.from_list(seq, q, N)) for seq in (CLASSICAL, Q2, FIB)
             for q in ([0, 1], [0, 1, 1], [0, 2, 0, Fraction(-1, 3)])]
    with watch("_reassemble_over_shifts") as reassembly, watch("_expand_over_shifts") as expansions, \
            watch("_recompose") as recompositions:
        for seq, q in pairs:
            sheffer = sheffer_sequence(q, DeltaSeries.from_list(seq, [1, 1], N), N)
            spectral_operator(sheffer)
            indicator(multiplication_x(N).compose(sheffer.q_op), sheffer.q_op, 4)
        series_routes = sum(1 for call in expansions.call_args_list if len(call.args) > 3)
        assert expansions.call_count == 2 * len(pairs) and series_routes == 2 * 6
        assert reassembly.call_count == 0
        assert recompositions.call_count == series_routes  # the coefficients' alone
        q_op = sheffer.q_op
        result = expand_in_dual_pair(q_op, q_op, multiplication_x(N))
        assert result.reassembled is result.reassembled
        assert result.reassembled.columns == q_op.columns
        assert reassembly.call_count == 1 and recompositions.call_count == series_routes + 2


# -- deformed bracket -----------------------------------------------------------


def old_qhat_eigenvalues(seq: AdmissibleSequence, bound: int, one) -> list:
    """Deformation weights ((n+1)_psi - one)/n_psi, with the degree-0 value
    borrowed from degree 1 (it never matters on the identity window). The
    graded weights subtract one = 1_psi; the literal reading subtracts the
    integer 1, and the two differ only when 1_psi != 1.
    """
    values = [Fraction(0)] * (bound + 1)
    for n in range(1, bound + 1):
        values[n] = (seq.n_psi(n + 1) - one) / seq.n_psi(n)
    values[0] = values[1]
    return values


def test_qhat_eigenvalues_q_family_constant():
    values = old_qhat_eigenvalues(Q2, N, Q2.n_psi(1))
    assert all(v == 2 for v in values[1:])
    # every weight is q = 2, so the operator is 2 I in any basis
    assert qhat_operator(basic_sequence(psi_derivative(Q2, N), Q2, N)) == identity_operator(N).scale(2)
    literal = old_qhat_eigenvalues(HYP, N, 1)
    graded = old_qhat_eigenvalues(HYP, N, HYP.n_psi(1))
    assert literal[1] != graded[1]
    basic = basic_sequence(psi_derivative(HYP, N), HYP, N)
    assert qhat_operator(basic).columns == qhat_operator(basic, one=HYP.n_psi(1)).columns
    assert qhat_operator(basic, one=1).columns != qhat_operator(basic).columns


def bracket_witness(basic, raiser=None, one=None):
    """The first witness of the deformed bracket, with the shift raiser and
    the graded weights unless given."""
    raiser = shift_raiser(basic) if raiser is None else raiser
    return next(mutator_failures(basic, raiser, qhat_operator(basic, one)), None)


def test_mutator_identity_all_families(families, degree):
    for seq in families:
        basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
        assert bracket_witness(basic) is None, seq.label
        # and for a composite lowering operator
        basic2 = basic_sequence_from_series(
            DeltaSeries.from_list(seq, [0, 1, 1], degree), degree
        )
        assert bracket_witness(basic2) is None, seq.label


def test_mutator_literal_and_dual_variants():
    # literal integer 1 breaks exactly the families with 1_psi != 1
    basic_h = basic_sequence(psi_derivative(HYP, N), HYP, N)
    witness = bracket_witness(basic_h, one=1)
    assert list(witness) == ["n", "got"] and witness["n"] == 1
    assert bracket_witness(basic_h) is None
    # the dual-scaled raiser satisfies the bracket only classically
    basic_c = basic_sequence(psi_derivative(CLASSICAL, N), CLASSICAL, N)
    assert bracket_witness(basic_c, basic_c.raiser) is None
    basic_q = basic_sequence(psi_derivative(Q2, N), Q2, N)
    assert bracket_witness(basic_q, basic_q.raiser) is not None


def test_shift_raiser_is_x_multiplication_for_q_monomials():
    basic = basic_sequence(psi_derivative(Q2, N), Q2, N)
    r = shift_raiser(basic)
    for j in range(N):
        assert r.columns[j] == Polynomial.monomial(j + 1)
    assert not r.columns[N]


# -- quantum plane ---------------------------------------------------------------


def test_qplane_commutation_exact():
    for q in (2, Fraction(1, 2), Fraction(-3, 4)):
        assert qplane_commutation(q, N) is True


def test_qplane_identification_basic_and_sheffer():
    ys = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for seq in (Q2, QHALF):
        assert list(qplane_substitution_failures(seq, N, ys)) == []
        basic = basic_sequence(psi_derivative(seq, N), seq, N)
        assert verify_binomial_type(basic.table, seq, ys).passed
        sheffer = identity_sheffer(seq, [1, 1])
        assert verify_sheffer_binomial(sheffer, ys).passed


def test_qplane_reads_a_shift_iterator_once():
    seq = AdmissibleSequence.q_deformed(2, 6)
    ys = [Fraction(0), Fraction(1), Fraction(2)]
    assert list(qplane_substitution_failures(seq, 6, iter(ys))) == []
    # a wrong dilation fails on the monomials, from an iterator as from a list
    with mock.patch.object(spectral, "dilation", lambda q, bound: dilation(q * q, bound)):
        want = list(qplane_substitution_failures(seq, 6, ys))
        assert want[0]["n"] == 2 and list(want[0]) == ["n", "y", "shifted", "substituted"]
        assert list(qplane_substitution_failures(seq, 6, iter(ys))) == want


def test_qplane_rejects_other_families():
    with pytest.raises(WrongFamilyError):
        qplane_substitution_failures(CLASSICAL, N, [Fraction(1)])


# -- factorization identities -----------------------------------------------------


def test_sandwich_powers(families, degree):
    ns = (1, 2, 3)
    for seq in families:
        basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
        windows = factorization_windows(basic, ns, [])
        assert len(windows) == len(ns)
        for n, (first, second, steps) in zip(ns, windows):
            assert first == degree, (seq.label, n)
            assert second >= degree - n, (seq.label, n)
            assert steps == []
        assert sandwich_reports(basic, ns) == old_reports(old_sandwich_power_report, ns, basic, seq)
    # any order, read once from an iterator; a negative power is refused
    assert factorization_windows(basic, iter((3, 1)), iter([])) == [windows[2], windows[0]]
    assert factorization_windows(basic, [], []) == []
    with pytest.raises(BadParameterError):
        factorization_windows(basic, (2, -1), [])


def test_number_operator_steps_plain_vs_graded():
    fs = [ONE, Polynomial([0, 1]), Polynomial([1, 0, Fraction(1, 2)])]
    ns = (1, 2, 3)
    for seq in (CLASSICAL, Q2, FIB):
        basic = basic_sequence(psi_derivative(seq, N), seq, N)
        per_n = factorization_windows(basic, iter(ns), iter(fs))
        assert len(per_n) == len(ns)
        for n, (_, _, windows) in zip(ns, per_n):
            assert len(windows) == len(fs)
            for f, (plain, _) in zip(fs, windows):
                assert plain >= N - max(f.degree, 0) - n, (seq.label, n, f.to_text())
        assert steps_reports(basic, ns, fs) == old_steps_reports(ns, fs, basic, seq)
    # any order; a negative power is refused
    assert factorization_windows(basic, (3, 1), fs) == [per_n[2], per_n[0]]
    assert factorization_windows(basic, [], fs) == []
    with pytest.raises(BadParameterError):
        factorization_windows(basic, (2, -1), fs)
    # graded steps only collapse to the plain ones classically; for the
    # q-family the first divergent step weight is 2_psi, so probe n = 3
    required = {2: N - 1 - 2, 3: N - 1 - 3}
    basic_c = basic_sequence(psi_derivative(CLASSICAL, N), CLASSICAL, N)
    assert factorization_windows(basic_c, [3], [X])[0][2][0][1] >= required[3]
    basic_q = basic_sequence(psi_derivative(Q2, N), Q2, N)
    assert factorization_windows(basic_q, [3], [X])[0][2][0][1] < required[3]
    basic_h = basic_sequence(psi_derivative(HYP, N), HYP, N)
    assert factorization_windows(basic_h, [2], [X])[0][2][0][1] < required[2]


def test_factorization_windows_match_the_two_old_window_functions(families, degree):
    """One triple per n, the two sandwich windows and the number steps, as
    the two window functions it replaced gave them on the roster, for the
    suite's ns and fs, in any order, and for no n or no f; both refuse a
    negative n with the same error."""
    fs = [Polynomial([1, 1]), Polynomial([0, 0, 1]), Polynomial([2, 0, Fraction(1, 2)])]
    for seq in families:
        basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
        for ns, f_list in (((1, 2, 3), fs), ((3, 1), fs[1:]), ((2,), []), ((), fs)):
            want = [
                (first, second, steps) for (first, second), steps in zip(
                    old_sandwich_power_windows(basic, ns),
                    old_number_operator_step_windows(basic, ns, f_list),
                    strict=True,
                )
            ]
            assert factorization_windows(basic, iter(ns), iter(f_list)) == want, seq.label
        for old in (lambda: old_sandwich_power_windows(basic, (2, -1)),
                    lambda: old_number_operator_step_windows(basic, (2, -1), fs),
                    lambda: factorization_windows(basic, (2, -1), fs)):
            with pytest.raises(BadParameterError, match="^negative operator power$"):
                old()


def test_appell_weighted_display_classical_vs_deformed():
    for seq, should_hold in ((CLASSICAL, True), (Q2, False), (FIB, False)):
        basic = basic_sequence(psi_derivative(seq, N), seq, N)
        appell = appell_sequence(DeltaSeries.from_list(seq, [1, 1], N), N)
        report = appell_report(basic, appell.table, 2)
        assert report["as_printed_holds"] == should_hold, (seq.label, report)
        assert report["step_holds"] == should_hold, (seq.label, report)
        assert report["derivative_ladder_holds"] == should_hold, seq.label
        assert report == old_appell_raising_telescope_report(basic, seq, appell.table, 2)
    with pytest.raises(BadParameterError, match="n >= 1"):
        appell_telescope_windows(basic, appell.table, 0)


# -- transport checks -------------------------------------------------------------


def test_conjugation_transport(families, degree):
    for seq in families:
        src = DeltaSeries.from_list(seq, [0, 1, 1], degree)
        tgt = DeltaSeries.from_list(seq, [0, 1, 0, Fraction(-1, 3)], degree)
        failures = conjugation_transport_failures(
            src,
            tgt,
            [1, 1, Fraction(1, 2)],
            degree,
            sheffer_s=DeltaSeries.from_list(seq, [1, 1], degree),
        )
        # a witness holds all six flags, among them conjugate_is_target_operator
        # and sheffer_image_is_sheffer
        witness = next(failures, None)
        assert witness is None, (seq.label, witness)


def test_conjugation_transport_rejects_a_series_from_another_family():
    # used to return passed: False instead of naming the foreign family
    degree = 6
    q2 = AdmissibleSequence.q_deformed(2, degree + 1)
    classical = AdmissibleSequence.classical(degree + 1)
    source = DeltaSeries.from_list(q2, [0, 1, 1], degree)
    foreign_target = DeltaSeries.from_list(classical, [0, 1, 0, Fraction(-1, 3)], degree)
    target = DeltaSeries.from_list(q2, [0, 1, 0, Fraction(-1, 3)], degree)
    s_coeffs = [1, 1, Fraction(1, 2)]
    s = DeltaSeries.from_list(q2, [1, 1], degree)
    foreign = r"is over another family \(classical\) than source_series \(q_deformed\(q=2\)\)"
    with pytest.raises(WrongFamilyError, match="target_series " + foreign):
        conjugation_transport_failures(source, foreign_target, s_coeffs, degree, s)
    foreign_s = DeltaSeries.from_list(classical, [1, 1], degree)
    with pytest.raises(WrongFamilyError, match="sheffer_s " + foreign):
        conjugation_transport_failures(source, target, s_coeffs, degree, sheffer_s=foreign_s)
    # the same family rebuilt from its descriptor is the same family
    rebuilt = DeltaSeries.from_list(AdmissibleSequence.q_deformed(2, degree + 1), [1, 1], degree)
    failures = conjugation_transport_failures(source, target, s_coeffs, degree, sheffer_s=rebuilt)
    assert next(failures, None) is None


def test_transport_pincherle_window(families, degree):
    for seq in families:
        for coeffs in ([0, 1], [0, 1, 1], [0, 1, Fraction(-1, 2), Fraction(1, 6)]):
            l_series = DeltaSeries.from_list(seq, coeffs, degree)
            window = transport_pincherle_window(l_series, degree)
            assert window >= degree - 1, (seq.label, coeffs, window)


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
            col = q_op.columns[i]
            pivot = col.coefficient(i - 1)
            if pivot == 0:
                raise SingularOperatorError(f"zero subdiagonal pivot at degree {i}")
            c = residue.coefficient(i - 1)
            if c != 0:
                coeffs[i] = c / pivot
                residue = residue - col.scale(coeffs[i])
        if residue:
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
            pivot_poly = q_op.columns[i]
            pivot = pivot_poly.coefficient(i - 1)
            if pivot == 0:
                raise SingularOperatorError(f"zero pivot at degree {i}")
            c = residue.coefficient(i - 1)
            coeffs[i] = c / pivot
            if c != 0:
                residue = residue - pivot_poly.scale(coeffs[i])
        if residue:
            raise SingularOperatorError("ladder solve left a residue")
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
        rho = t.columns[j] - acc.columns[j]
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
        if q_j:
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


def reference_qhat_operator(basic, seq, one):
    bound = basic.bound
    values = old_qhat_eigenvalues(seq, bound, one)
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

    assert basic_sequence(q_op, seq, bound).table.entries == tuple(
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
    for one in (None, 1):
        assert list(qhat_operator(basic, one).columns) == (
            reference_qhat_operator(basic, seq, seq.n_psi(1) if one is None else one)
        )
    assert list(shift_raiser(basic).columns) == reference_shift_raiser(basic, seq)

    for m in (q_op, dual, t):
        ladder = m.powers(count)
        assert len(ladder) == count + 1
        for i, power in enumerate(ladder):
            assert power == m.powers(i)[-1]
        with pytest.raises(BadParameterError):
            m.powers(-1)


def old_powers(m, count):
    """The identity-first ladder: M^0 = I, then M^k = M M^(k-1)."""
    out = [identity_operator(m.bound)]
    for _ in range(count):
        out.append(m.compose(out[-1]))
    return out


def test_powers_match_the_identity_first_ladder():
    basic = basic_sequence_from_series(DeltaSeries.from_list(Q2, [0, 1, 1], N), N)
    for m in (basic.q_op, basic.raiser, dilation(Fraction(1, 2), N), multiplication_x(N)):
        for count in range(N + 1):
            assert m.powers(count) == old_powers(m, count), count



# -- checks read their family from what they check --------------------------------
#
# The `old_*` functions are the checks as they were when each took the family
# as a separate argument, kept verbatim except that the transports import
# their builders at module level. Called with the table's own family, they
# must give what the re-signed checks give.


def old_qhat_operator(basic, seq, literal_one=False):
    """Diagonal deformation operator in the basic basis."""
    values = old_qhat_eigenvalues(seq, basic.bound, 1 if literal_one else seq.n_psi(1))
    return umbral_operator(basic.table, [p.scale(v) for p, v in zip(basic.table, values)])


def old_shift_raiser(basic, seq):
    """Unscaled basic shift p_n -> (1/1_psi) p_{n+1}, top entry truncated."""
    scale = 1 / seq.n_psi(1)
    images = [p.scale(scale) for p in basic.table.entries[1:]]
    return umbral_operator(basic.table, images + [Polynomial()])


def old_mutator_identity_report(basic, seq, raiser_mode="shift", literal_one=False):
    bound = basic.bound
    qhat = old_qhat_operator(basic, seq, literal_one)
    if raiser_mode == "shift":
        raiser = old_shift_raiser(basic, seq)
    elif raiser_mode == "dual":
        raiser = dual_operator(basic.q_op, basic.table, seq)
    else:
        raise BadParameterError(f"unknown raiser mode {raiser_mode!r}")
    bracket = basic.q_op.compose(raiser).subtract(qhat.compose(raiser.compose(basic.q_op)))
    for n in range(bound):
        got = bracket.apply(basic.table[n])
        if got != basic.table[n]:
            return {
                "passed": False,
                "witness": {"n": n, "got": got.to_text()},
                "window": bound - 1,
                "raiser_mode": raiser_mode,
                "literal_one": literal_one,
            }
    return {
        "passed": True,
        "window": bound - 1,
        "raiser_mode": raiser_mode,
        "literal_one": literal_one,
    }


def old_sandwich_power_report(basic, seq, n):
    q_op = basic.q_op
    raiser = dual_operator(q_op, basic.table, seq)
    bound = basic.bound

    q_n = q_op.powers(n)[-1]
    r_n = raiser.powers(n)[-1]

    t1 = q_op.compose(raiser).compose(q_op)
    lhs1 = t1.powers(n)[-1]
    rhs1 = q_n.compose(r_n).compose(q_n)
    first_exact = lhs1.columns == rhs1.columns

    t2 = raiser.compose(q_op).compose(raiser)
    lhs2 = t2.powers(n)[-1]
    rhs2 = r_n.compose(q_n).compose(r_n)
    window = lhs2.agreement_window(rhs2)

    return {
        "first_identity_exact": first_exact,
        "second_identity_window": window,
        "required_window": bound - n,
        "passed": first_exact and window >= bound - n,
    }


def old_number_operator_steps_report(basic, seq, n, f):
    q_op = basic.q_op
    raiser = dual_operator(q_op, basic.table, seq)
    bound = basic.bound
    number = raiser.compose(q_op)

    f_of_r = operator_polynomial(f, raiser)
    lhs = raiser.powers(n)[-1].compose(q_op.powers(n)[-1]).compose(f_of_r)

    def falling(shifts):
        """prod_i (number - shift_i), as a polynomial in the number operator."""
        product = ONE
        for c in shifts:
            product = product * Polynomial([-c, 1])
        return operator_polynomial(product, number)

    rhs_plain = falling(range(n)).compose(f_of_r)
    rhs_graded = falling(seq.n_psi(i) for i in range(n)).compose(f_of_r)

    required = bound - max(f.degree, 0) - n
    plain_window = lhs.agreement_window(rhs_plain)
    graded_window = lhs.agreement_window(rhs_graded)
    return {
        "plain_window": plain_window,
        "graded_window": graded_window,
        "required_window": required,
        "passed": plain_window >= required,
        "graded_matches": graded_window >= required,
    }


def old_pair_ladders(basic: BasicSequence, ns) -> tuple:
    """(ns as a list, its largest n, the ladders of Q and of R up to it); a
    negative n is refused."""
    ns = list(ns)
    if min(ns, default=0) < 0:
        raise BadParameterError("negative operator power")
    top = max(ns, default=0)
    return ns, top, basic.q_op.powers(top), basic.raiser.powers(top)


def old_sandwich_power_windows(basic: BasicSequence, ns) -> list:
    """Sandwich powers, one pair (first, second) per n in `ns`: the
    agreement windows of (Q R Q)^n against Q^n R^n Q^n, which agree in
    full, and of (R Q R)^n against R^n Q^n R^n, which agree below the
    raising window bound - n. The four ladders are built once, up to the
    largest n."""
    q_op, raiser = basic.q_op, basic.raiser
    ns, top, q_pows, r_pows = old_pair_ladders(basic, ns)
    t1_pows = q_op.compose(raiser).compose(q_op).powers(top)
    t2_pows = raiser.compose(q_op).compose(raiser).powers(top)
    return [
        (
            t1_pows[n].agreement_window(q_pows[n].compose(r_pows[n]).compose(q_pows[n])),
            t2_pows[n].agreement_window(r_pows[n].compose(q_pows[n]).compose(r_pows[n])),
        )
        for n in ns
    ]


def old_number_operator_step_windows(basic: BasicSequence, ns, fs) -> list:
    """R^n Q^n followed by f(R) against the falling products of the number
    operator N = R Q followed by f(R): one list per n in `ns`, of one pair
    (plain, graded) per f in `fs`, the agreement windows against
    prod_(i<n) (N - i) and prod_(i<n) (N - i_psi). The law holds plainly
    below bound - deg f - n. N, each f(R), and the ladders of R, Q and of
    both falling products are built once, up to the largest n."""
    ns, top, q_pows, r_pows = old_pair_ladders(basic, ns)
    number = basic.raiser.compose(basic.q_op)
    ident = q_pows[0]  # Q^0
    plain, graded = [ident], [ident]
    for i in range(top):
        plain.append(plain[-1].compose(number.subtract(ident.scale(i))))
        graded.append(graded[-1].compose(number.subtract(ident.scale(basic.seq.n_psi(i)))))
    f_of_rs = [operator_polynomial(f, basic.raiser) for f in fs]

    out = []
    for n in ns:
        steps = r_pows[n].compose(q_pows[n])
        windows = []
        for f_of_r in f_of_rs:
            lhs = steps.compose(f_of_r)
            windows.append((
                lhs.agreement_window(plain[n].compose(f_of_r)),
                lhs.agreement_window(graded[n].compose(f_of_r)),
            ))
        out.append(windows)
    return out


def old_appell_raising_telescope_report(basic, seq, appell_table, n):
    q_op = basic.q_op
    raiser = dual_operator(q_op, basic.table, seq)
    bound = basic.bound

    a_ops = [operator_polynomial(appell_table[m], q_op) for m in range(n + 1)]
    r_powers = raiser.powers(n + 1)

    total = zero_operator(bound)
    for m in range(n + 1):
        total = total.add(
            a_ops[m].compose(r_powers[m]).scale(1 / seq.factorial(m))
        )
    lhs = raiser.compose(total)
    rhs = a_ops[n].compose(r_powers[n + 1]).scale(1 / seq.factorial(n))
    window = lhs.agreement_window(rhs)
    required = bound - n - 1

    if n >= 1:
        step_lhs = raiser.compose(a_ops[n]).compose(r_powers[n]).scale(
            1 / seq.factorial(n)
        ).add(a_ops[n - 1].compose(r_powers[n]).scale(1 / seq.factorial(n - 1)))
        step_window = step_lhs.agreement_window(rhs)
        ladder_ok = appell_table[n].derivative() == appell_table[n - 1].scale(
            seq.n_psi(n)
        )
    else:
        step_window = window
        ladder_ok = True

    return {
        "as_printed_window": window,
        "required_window": required,
        "as_printed_holds": window >= required,
        "step_window": step_window,
        "step_holds": step_window >= required,
        "derivative_ladder_holds": ladder_ok,
    }


def old_verify_conjugation_transport(
    seq, source_series, target_series, s_coeffs, bound, sheffer_s=None
):
    source = basic_sequence_from_series(source_series, bound)
    target = basic_sequence_from_series(target_series, bound)
    t = umbral_operator(source.table, target.table)
    t_inv = umbral_operator(target.table, source.table)
    q1 = source.q_op
    q2 = target.q_op

    def conjugate(m):
        return t.compose(m).compose(t_inv)

    s_poly = Polynomial(list(s_coeffs))
    s_matrix = operator_polynomial(s_poly, q1)
    conj_s = conjugate(s_matrix)

    commutes = commutator(conj_s, q2).columns == zero_operator(bound).columns

    # product preservation on a sampled pair of series in Q1
    sample_a = operator_polynomial(Polynomial([1, 2, 1]), q1)
    sample_b = operator_polynomial(Polynomial([Fraction(1, 2), 0, 1]), q1)
    product_preserved = (
        conjugate(sample_a.compose(sample_b)).columns
        == conjugate(sample_a).compose(conjugate(sample_b)).columns
    )

    conj_q1 = conjugate(q1)
    lowers = conj_q1.grading == "lowers_by_one"
    conjugate_matches_target = conj_q1.columns == q2.columns

    p_matrix = conj_q1
    s_of_p = operator_polynomial(s_poly, p_matrix)
    substitution_matches = s_of_p.columns == conj_s.columns

    sheffer_image_ok = None
    if sheffer_s is not None:
        sheffer = sheffer_sequence(source_series, sheffer_s, bound)
        images = [t.apply(p) for p in sheffer.table]
        sheffer_image_ok = all(
            q2.apply(images[n]) == images[n - 1].scale(seq.n_psi(n))
            for n in range(1, bound + 1)
        ) and images[0].degree == 0

    return {
        "commutes_with_target": commutes,
        "products_preserved": product_preserved,
        "conjugate_lowers_by_one": lowers,
        "conjugate_is_target_operator": conjugate_matches_target,
        "series_substitution_matches": substitution_matches,
        "sheffer_image_is_sheffer": sheffer_image_ok,
        "passed": commutes
        and product_preserved
        and lowers
        and substitution_matches
        and (sheffer_image_ok in (True, None)),
    }


def old_transport_pincherle_report(seq, l_series, bound):
    basic = basic_sequence_from_series(l_series, bound)
    monomials = SequenceTable(
        tuple(Polynomial.monomial(i) for i in range(bound + 1))
    )
    u = umbral_operator(basic.table, monomials)
    raiser = xhat_psi(seq, bound)
    lhs = commutator(u, raiser)
    l_prime = l_series.formal_derivative()
    rhs = from_action(lambda p: raiser.apply(u.apply(apply_delta_series(l_prime, p) - p)), bound)
    window = lhs.agreement_window(rhs)
    return {"window": window, "passed": window >= bound - 1}


def old_bracket_witness(basic, seq, raiser_mode, literal_one):
    """The witness of `old_mutator_identity_report`, None when it passed."""
    return old_mutator_identity_report(basic, seq, raiser_mode, literal_one).get("witness")


def dual_bracket_witness(basic, one):
    return bracket_witness(basic, basic.raiser, one)


def sandwich_reports(basic, ns):
    """The old sandwich reports, read off `factorization_windows` with the
    verdict `suite_factorization` records."""
    bound = basic.bound
    return [
        {
            "first_identity_exact": first == bound,
            "second_identity_window": second,
            "required_window": bound - n,
            "passed": first == bound and second >= bound - n,
        }
        for n, (first, second, _) in zip(ns, factorization_windows(basic, iter(ns), []))
    ]


def steps_reports(basic, ns, fs):
    """The old number-step reports, read off `factorization_windows` with
    the required window `suite_factorization` records."""
    out = []
    for n, (_, _, windows) in zip(ns, factorization_windows(basic, iter(ns), iter(fs))):
        reports = []
        for f, (plain, graded) in zip(fs, windows):
            required = basic.bound - max(f.degree, 0) - n
            reports.append({
                "plain_window": plain,
                "graded_window": graded,
                "required_window": required,
                "passed": plain >= required,
                "graded_matches": graded >= required,
            })
        out.append(reports)
    return out


def appell_report(basic, appell_table, n):
    """The old telescope report, read off `appell_telescope_windows` with
    the derivative ladder `suite_factorization` checks."""
    printed, step = appell_telescope_windows(basic, appell_table, n)
    required = basic.bound - n - 1
    ladder = appell_table[n].derivative() == appell_table[n - 1].scale(basic.seq.n_psi(n))
    return {
        "as_printed_window": printed,
        "required_window": required,
        "as_printed_holds": printed >= required,
        "step_window": step,
        "step_holds": step >= required,
        "derivative_ladder_holds": ladder,
    }


def old_transport_verdicts(seq, *args):
    """The witness of `old_verify_conjugation_transport`, with
    `conjugate_is_target_operator` in its `passed`: None when it passed,
    else its flags."""
    report = old_verify_conjugation_transport(seq, *args)
    if report["passed"] and report["conjugate_is_target_operator"]:
        return None
    return {k: v for k, v in report.items() if k != "passed"}


def transport_witness(*args):
    """The first witness of `conjugation_transport_failures`, or None."""
    return next(conjugation_transport_failures(*args), None)


def old_pincherle_window(seq, l_series, bound):
    return old_transport_pincherle_report(seq, l_series, bound)["window"]


def check_outcome(check, *args):
    """("value", the dict or the operator columns `check(*args)` returns),
    or ("raises", the exception type, its message)."""
    try:
        value = check(*args)
    except UmbralError as exc:
        return "raises", type(exc), str(exc)
    return "value", value.columns if isinstance(value, OperatorMatrix) else value


def old_reports(old, items, *args):
    """The old per-item reports old(*args, item), one for each item."""
    return [old(*args, item) for item in items]


def old_steps_reports(ns, fs, basic, seq):
    """The old number-step reports, one list of one per f for each n."""
    return [[old_number_operator_steps_report(basic, seq, n, f) for f in fs] for n in ns]


@settings(max_examples=30, deadline=None)
@given(
    case=kernel_cases(),
    n=st.integers(0, 3),
    ns=st.lists(st.integers(0, 3), max_size=4),
    fs=st.lists(st.lists(small_rationals, max_size=3).map(Polynomial), max_size=3),
    s_coeffs=st.lists(small_rationals, min_size=1, max_size=3),
)
def test_resigned_checks_match_old_ones_given_the_tables_own_family(case, n, ns, fs, s_coeffs):
    seq, sheffer, _ = case
    degree = sheffer.bound
    n = min(n, degree)
    ns = [min(k, degree) for k in ns]
    appell = appell_sequence(sheffer.s_series, degree).table
    # the basic tables of psi_derivative and of a random delta series
    for basic in (basic_sequence(psi_derivative(seq, degree), seq, degree), sheffer.basic):
        pairs = [
            (shift_raiser, (basic,), old_shift_raiser, (basic, seq)),
            (sandwich_reports, (basic, ns), old_reports, (old_sandwich_power_report, ns, basic, seq)),
            (steps_reports, (basic, ns, fs), old_steps_reports, (ns, fs, basic, seq)),
        ]
        if n >= 1:  # the telescope step is refused at n = 0
            pairs.append((appell_report, (basic, appell, n),
                          old_appell_raising_telescope_report, (basic, seq, appell, n)))
        for literal_one, one in ((False, None), (True, 1)):
            old_args = (basic, seq, literal_one)
            pairs.append((qhat_operator, (basic, one), old_qhat_operator, old_args))
            pairs.append((bracket_witness, (basic, None, one), old_bracket_witness,
                          (basic, seq, "shift", literal_one)))
            pairs.append((dual_bracket_witness, (basic, one), old_bracket_witness,
                          (basic, seq, "dual", literal_one)))
        for new, new_args, old, old_args in pairs:
            assert check_outcome(new, *new_args) == check_outcome(old, *old_args), new.__name__

    source = sheffer.q_series
    target = DeltaSeries.from_list(seq, [0, 1, 0, Fraction(-1, 3)], degree)
    args = (source, target, s_coeffs, degree, sheffer.s_series)
    new = check_outcome(transport_witness, *args)
    assert new == check_outcome(old_transport_verdicts, seq, *args)
    for l_series in (source, target):
        new = check_outcome(transport_pincherle_window, l_series, degree)
        assert new == check_outcome(old_pincherle_window, seq, l_series, degree)


def old_operator_polynomial_applied(p, m, start):
    """p(M) applied to `start` without building the matrix."""
    out = Polynomial()
    vec = start
    for k, c in enumerate(p.coeffs):
        if c != 0:
            out = out + vec.scale(c)
        if k < p.degree:
            vec = m.apply(vec)
    return out


def old_qplane_substitution_report(seq, table, y_values, partner_table=None):
    """The per-entry route: p_n(m) 1 by n applications of m for every entry."""
    if seq.family != Q_DEFORMED:
        raise WrongFamilyError("identification requires a q-deformed family")
    q = q_parameter(seq)
    bound = table.bound
    a = multiplication_x(bound)
    y_values = list(y_values)  # read three times below
    for y in y_values:
        m = a.add(dilation(q, bound).scale(y))
        shift = DeltaSeries.from_list(seq, seq.exp_polynomial(y, bound).coeffs, bound)
        for n in range(bound + 1):
            p_n = table[n]
            shifted = apply_delta_series(shift, p_n)
            substituted = old_operator_polynomial_applied(p_n, m, ONE)
            if shifted != substituted:
                return {
                    "passed": False,
                    "witness": {
                        "n": n,
                        "y": str(y),
                        "shifted": shifted.to_text(),
                        "substituted": substituted.to_text(),
                    },
                }
    if partner_table is not None:
        report = _addition_rule(
            table, partner_table, seq, y_values, "sum form fails", "sum form holds"
        )
        if not report.passed:
            return {"passed": False, "witness": report.witness}
    return {"passed": True, "count": (table.bound + 1) * len(y_values)}


@st.composite
def qplane_cases(draw):
    """A q-deformed family; its monomial basic table, the basic and Sheffer
    tables of random series, and one of them perturbed below the top of an entry;
    shifts y; and a start vector for the operator-polynomial action."""
    degree = draw(st.integers(1, 5))
    q = draw(small_rationals.filter(lambda v: abs(v) != 1))
    seq = AdmissibleSequence.q_deformed(q, degree)
    q_tail = draw(st.lists(small_rationals, max_size=degree - 1))
    q_series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + q_tail, degree)
    s_tail = draw(st.lists(small_rationals, max_size=degree))
    s_series = DeltaSeries.from_list(seq, [draw(nonzero_rationals)] + s_tail, degree)
    sheffer = sheffer_sequence(q_series, s_series, degree)
    monomial = basic_sequence(psi_derivative(seq, degree), seq, degree).table
    tables = [monomial, sheffer.basic.table, sheffer.table]
    entries = list(draw(st.sampled_from(tables)).entries)
    n = draw(st.integers(1, degree))
    bump = Polynomial.monomial(draw(st.integers(0, n - 1)), draw(nonzero_rationals))
    entries[n] = entries[n] + bump
    tables.append(SequenceTable(tuple(entries)))
    ys = draw(st.lists(small_rationals, max_size=4))
    start = Polynomial(draw(st.lists(small_rationals, max_size=degree + 1)))
    return seq, tables, draw(st.sampled_from(tables[:2])), ys, start


def new_qplane_route(seq, table, ys, partner_table):
    """The first witness of the substitution on the monomials, then of the
    sum form of the table; None when both hold."""
    witness = next(qplane_substitution_failures(seq, table.bound, ys), None)
    if witness is None and partner_table is not None:
        witness = _addition_rule(table, partner_table, seq, ys, "sum form fails",
                                 "sum form holds").witness
    return witness


@settings(max_examples=40, deadline=None)
@given(case=qplane_cases())
def test_qplane_ladder_matches_the_per_entry_route(case):
    seq, tables, partner, ys, start = case
    bound = tables[0].bound
    for table in tables:
        for partner_table in (None, partner):
            want = old_qplane_substitution_report(seq, table, ys, partner_table)
            assert new_qplane_route(seq, table, ys, partner_table) == want.get("witness")
    assert list(qplane_substitution_failures(seq, bound, iter(ys))) == list(
        qplane_substitution_failures(seq, bound, ys))
    # the action p(m) v that other callers share, on a random start
    for y in ys:
        m = multiplication_x(bound).add(dilation(q_parameter(seq), bound).scale(y))
        for p in tables[-1]:
            new = check_outcome(operator_polynomial_applied, p, m, start)
            assert new == check_outcome(old_operator_polynomial_applied, p, m, start)


def test_basic_table_builds_its_dual_raiser_once():
    basic = basic_sequence_from_series(DeltaSeries.from_list(Q2, [0, 1, 1], N), N)
    raiser = basic.raiser
    assert basic.raiser is raiser
    assert raiser.columns == dual_operator(basic.q_op, basic.table, Q2).columns
    # a table that is not basic for its operator is caught when the raiser is read
    doubled = SequenceTable(tuple(p.scale(2) if n else p for n, p in enumerate(basic.table)))
    wrong = BasicSequence(Q2, basic.q_op, doubled)
    with pytest.raises(BasisMismatchError):
        wrong.raiser
