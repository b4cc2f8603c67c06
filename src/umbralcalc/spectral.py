"""Inner products, eigenvalue operators, umbral transports, and the
deformed commutation suite.

The definitional spectral operator is the unique matrix with eigenvalue n on
the n-th Sheffer entry, built by conjugating diag(0..N) through the Sheffer
basis. Printed closed forms are assembled separately and compared; their
agreement is reported, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameterError, ConstantTermError, WrongFamilyError
from .operators import (
    OperatorMatrix,
    apply_delta_series,
    commutator,
    dilation,
    dual_operator,
    expand_in_dual_pair,
    generalized_shift,
    identity_operator,
    multiplication_x,
    operator_polynomial,
    operator_polynomial_applied,
    realize_delta_series,
    umbral_operator,
    xhat_psi,
    zero_operator,
)
from .poly import ONE, Polynomial, SequenceTable, coordinates_in_table
from .psi import AdmissibleSequence, Q_DEFORMED
from .sequences import BasicSequence, ShefferSequence
from .series import DeltaSeries


# -- inner product ------------------------------------------------------------


def _pairing_row(sheffer: ShefferSequence, g: Polynomial, count: int) -> list:
    """Constant terms of Q^n S g, n = 0..count-1: the pairing of g with
    Sheffer entry n, so <f, g> weights them by the coordinates of f."""
    vec = apply_delta_series(sheffer.s_series, g)
    row = [vec.constant_term]
    for _ in range(count - 1):
        vec = sheffer.q_op.apply(vec)
        row.append(vec.constant_term)
    return row


def inner_product(sheffer: ShefferSequence, f: Polynomial, g: Polynomial) -> Fraction:
    """Pairing: expand f over the Sheffer table, apply the matching powers of
    the lowering operator to S g, read the constant term."""
    coords = coordinates_in_table(sheffer.table, f)
    row = _pairing_row(sheffer, g, sheffer.bound + 1)
    return sum((c * value for c, value in zip(coords, row) if c), Fraction(0))


def orthogonality_report(sheffer: ShefferSequence, kmax: int | None = None) -> dict:
    kmax = sheffer.bound if kmax is None else kmax
    if not 0 <= kmax <= sheffer.bound:
        raise BadParameterError(f"kmax must lie in 0..{sheffer.bound}, got {kmax}")
    # entry k has coordinates e_k in its own table, so <s_k, s_n> = rows[n][k]
    rows = [_pairing_row(sheffer, sheffer[n], kmax + 1) for n in range(kmax + 1)]
    for k in range(kmax + 1):
        for n in range(kmax + 1):
            value = rows[n][k]
            expected = sheffer.seq.factorial(n) if n == k else Fraction(0)
            if value != expected:
                return {
                    "passed": False,
                    "witness": {"k": k, "n": n, "got": str(value), "expected": str(expected)},
                }
    return {"passed": True, "kmax": kmax}


def gram_positivity_report(sheffer: ShefferSequence, rng, samples: int = 5) -> dict:
    """For all-positive families the pairing is positive definite."""
    seq = sheffer.seq
    if any(seq.n_psi(n) <= 0 for n in range(1, sheffer.bound + 1)):
        return {"passed": None, "skipped": "family has nonpositive weights"}
    for _ in range(samples):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sheffer.bound + 1)]
        f = Polynomial(coeffs)
        if f.is_zero():
            f = ONE
        value = inner_product(sheffer, f, f)
        if value <= 0:
            return {"passed": False, "witness": {"f": f.to_text(), "value": str(value)}}
    return {"passed": True, "samples": samples}


# -- inverse raising ----------------------------------------------------------


def xhat_psi_inverse(seq: AdmissibleSequence, p: Polynomial) -> Polynomial:
    """Undo the dual raising; defined only on zero-constant-term input."""
    if p.constant_term != 0:
        raise ConstantTermError("inverse raising needs a zero constant term")
    out = [Fraction(0)] * max(p.degree, 0)
    for j in range(1, p.degree + 1):
        out[j - 1] = p.coefficient(j) * seq.n_psi(j) / Fraction(j)
    return Polynomial(out)


# -- spectral operator ---------------------------------------------------------


@dataclass(frozen=True)
class SpectralResult:
    """Definitional eigen-operator plus checks of the printed assemblies.

    `definitional` has eigenvalue n on Sheffer entry n by construction, and
    `composition_agrees` says whether S^{-1} xhat_Q Q S matches it exactly.
    `term_agreement` records, order by order, whether the printed coefficient
    recipe, under both readings of its ambiguous term, matches the expansion
    of the definitional operator over Q in multiplication form.
    """

    definitional: OperatorMatrix
    composition_agrees: bool
    u_values: tuple
    term_agreement: tuple


def spectral_operator(sheffer: ShefferSequence) -> SpectralResult:
    seq = sheffer.seq
    bound = sheffer.bound
    table = sheffer.table
    q_op = sheffer.q_op

    definitional = umbral_operator(table, [p.scale(n) for n, p in enumerate(table)])

    basic = sheffer.basic
    raiser = dual_operator(q_op, basic.table, seq)
    s_op = realize_delta_series(sheffer.s_series, bound)
    s_inv_op = realize_delta_series(sheffer.s_series.multiplicative_inverse(), bound)
    composition = s_inv_op.compose(raiser).compose(q_op).compose(s_op)
    composition_agrees = composition.columns == definitional.columns

    # printed recipe: sum_k (u_k + nu_k(x)) / (k-1)_psi! Q^k
    log_prime = sheffer.s_series.formal_log_reduced().formal_derivative()
    u_values = []
    term_polys_a, term_polys_b = [Polynomial()], [Polynomial()]
    for k in range(1, bound + 1):
        u_k = -apply_delta_series(log_prime, xhat_psi_inverse(seq, basic.table[k])).constant_term
        u_values.append(u_k)
        slope = basic.table[k].derivative().constant_term
        nu_a = Polynomial([0, slope / seq.n_psi(1)])  # x times slope over 1_psi
        weight = 1 / seq.factorial(k - 1)
        poly_a = (Polynomial([u_k]) + nu_a).scale(weight)
        poly_b = Polynomial([u_k * weight])
        term_polys_a.append(poly_a)
        term_polys_b.append(poly_b)

    expansion = expand_in_dual_pair(definitional, q_op, multiplication_x(bound))
    agreement = []
    for k in range(bound + 1):
        agreement.append(
            {
                "order": k,
                "reading_a": expansion.coefficient(k) == term_polys_a[k],
                "reading_b": expansion.coefficient(k) == term_polys_b[k],
            }
        )

    return SpectralResult(definitional, composition_agrees, tuple(u_values), tuple(agreement))


# -- deformed commutation suite -------------------------------------------------


def qhat_eigenvalues(
    seq: AdmissibleSequence, bound: int, literal_one: bool = False
) -> list:
    """Deformation weights ((n+1)_psi - 1_psi)/n_psi, with the degree-0
    value borrowed from degree 1 (it never matters on the identity window).

    `literal_one` subtracts the plain integer 1 instead of the family's
    first weight; the two differ only when 1_psi != 1.
    """
    one = Fraction(1) if literal_one else seq.n_psi(1)
    values = [Fraction(0)] * (bound + 1)
    for n in range(1, bound + 1):
        values[n] = (seq.n_psi(n + 1) - one) / seq.n_psi(n)
    values[0] = values[1]
    return values


def qhat_operator(
    basic: BasicSequence, seq: AdmissibleSequence, literal_one: bool = False
) -> OperatorMatrix:
    """Diagonal deformation operator in the basic basis."""
    values = qhat_eigenvalues(seq, basic.bound, literal_one)
    return umbral_operator(basic.table, [p.scale(v) for p, v in zip(basic.table, values)])


def shift_raiser(basic: BasicSequence, seq: AdmissibleSequence) -> OperatorMatrix:
    """Unscaled basic shift p_n -> (1/1_psi) p_{n+1}, top entry truncated."""
    scale = 1 / seq.n_psi(1)
    images = [p.scale(scale) for p in basic.table.entries[1:]]
    return umbral_operator(basic.table, images + [Polynomial()])


def q_mutator(a: OperatorMatrix, b: OperatorMatrix, qhat: OperatorMatrix) -> OperatorMatrix:
    """Deformed bracket a b - qhat b a."""
    return a.compose(b).subtract(qhat.compose(b.compose(a)))


def mutator_identity_report(
    basic: BasicSequence,
    seq: AdmissibleSequence,
    raiser_mode: str = "shift",
    literal_one: bool = False,
) -> dict:
    """[Q, R]_qhat = id on the basic entries below the truncation edge.

    The asserted combination is the unscaled shift raiser with family-graded
    weights; the dual-scaled raiser and the literal integer-1 weights are
    evaluated too so their failures can be recorded as findings.
    """
    bound = basic.bound
    qhat = qhat_operator(basic, seq, literal_one)
    if raiser_mode == "shift":
        raiser = shift_raiser(basic, seq)
    elif raiser_mode == "dual":
        raiser = dual_operator(basic.q_op, basic.table, seq)
    else:
        raise BadParameterError(f"unknown raiser mode {raiser_mode!r}")
    bracket = q_mutator(basic.q_op, raiser, qhat)
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


# -- q-plane identification ------------------------------------------------------


def qplane_commutation(q, bound: int) -> dict:
    """x-multiplication and dilation satisfy the exchange rule exactly."""
    a = multiplication_x(bound)
    b = dilation(q, bound)
    lhs = b.compose(a)
    rhs = a.compose(b).scale(q)
    if lhs.columns != rhs.columns:
        window = lhs.agreement_window(rhs)
        return {"passed": False, "window": window}
    return {"passed": True, "window": bound}


def qplane_substitution_report(
    seq: AdmissibleSequence, table: SequenceTable, y_values, partner_table=None
) -> dict:
    """Shift by y equals substitution of (x-multiplication + y dilation)
    into the entry, applied to 1; with a partner table the graded sum form
    is included."""
    if seq.family != Q_DEFORMED:
        raise WrongFamilyError("identification requires a q-deformed family")
    q = None
    for key, value in seq.params:
        if key == "q":
            q = Fraction(value)
    bound = table.bound
    a = multiplication_x(bound)
    for y in y_values:
        m = a.add(dilation(q, bound).scale(y))
        for n in range(bound + 1):
            p_n = table[n]
            shifted = generalized_shift(seq, p_n, y)
            substituted = operator_polynomial_applied(p_n, m, ONE)
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
                total = Polynomial()
                for k in range(n + 1):
                    total = total + table[k].scale(
                        seq.binomial(n, k) * partner_table[n - k](y)
                    )
                if total != shifted:
                    return {
                        "passed": False,
                        "witness": {"n": n, "y": str(y), "sum_form": total.to_text()},
                    }
    return {"passed": True, "count": (table.bound + 1) * len(list(y_values))}


# -- factorization identities ------------------------------------------------------


def sandwich_power_report(basic: BasicSequence, seq: AdmissibleSequence, n: int) -> dict:
    """Sandwich powers: (Q R Q)^n = Q^n R^n Q^n (full), and
    (R Q R)^n = R^n Q^n R^n below the raising window."""
    q_op = basic.q_op
    raiser = dual_operator(q_op, basic.table, seq)
    bound = basic.bound

    q_n = q_op.power(n)
    r_n = raiser.power(n)

    t1 = q_op.compose(raiser).compose(q_op)
    lhs1 = t1.power(n)
    rhs1 = q_n.compose(r_n).compose(q_n)
    first_exact = lhs1.columns == rhs1.columns

    t2 = raiser.compose(q_op).compose(raiser)
    lhs2 = t2.power(n)
    rhs2 = r_n.compose(q_n).compose(r_n)
    window = lhs2.agreement_window(rhs2)

    return {
        "first_identity_exact": first_exact,
        "second_identity_window": window,
        "required_window": bound - n,
        "passed": first_exact and window >= bound - n,
    }


def number_operator_steps_report(
    basic: BasicSequence, seq: AdmissibleSequence, n: int, f: Polynomial
) -> dict:
    """R^n Q^n followed by f(R) equals the plain falling product of the
    number operator followed by f(R); the graded-step variant is reported."""
    q_op = basic.q_op
    raiser = dual_operator(q_op, basic.table, seq)
    bound = basic.bound
    number = raiser.compose(q_op)

    f_of_r = operator_polynomial(f, raiser)
    lhs = raiser.power(n).compose(q_op.power(n)).compose(f_of_r)

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


def appell_raising_telescope_report(
    basic: BasicSequence,
    seq: AdmissibleSequence,
    appell_table: SequenceTable,
    n: int,
) -> dict:
    """Appell-weighted raising display with a free index; both readings
    evaluated, neither asserted.

    Reading 'as printed': R applied to sum_{m<=n} a_m(Q) R^m / m_psi!
    collapses to a_n(Q) R^{n+1} / n_psi! (the stray index resolved to n).
    Reading 'telescoping step': the single induction step
    R a_n(Q) R^n / n_psi! + a_{n-1}(Q) R^n / (n-1)_psi! = a_n(Q) R^{n+1} / n_psi!,
    equivalent to the plain-derivative ladder a_n' = n_psi a_{n-1} on the
    Appell entries. Both hold when the family weights are the plain integers.
    """
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


# -- umbral transport checks -----------------------------------------------------


def verify_conjugation_transport(
    seq: AdmissibleSequence,
    source_series: DeltaSeries,
    target_series: DeltaSeries,
    s_coeffs,
    bound: int,
    sheffer_s: DeltaSeries | None = None,
) -> dict:
    """Transport between two basic bases inside one shift-invariant algebra."""
    from .sequences import basic_sequence_from_series, sheffer_sequence

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


def transport_pincherle_report(
    seq: AdmissibleSequence, l_series: DeltaSeries, bound: int
) -> dict:
    """The transport from the basic table of l(Q) back to monomials obeys
    U' = [U, xhat] = xhat U (l'(Q) - id) below the raising edge."""
    from .sequences import basic_sequence_from_series

    basic = basic_sequence_from_series(l_series, bound)
    monomials = SequenceTable(
        tuple(Polynomial.monomial(i) for i in range(bound + 1))
    )
    u = umbral_operator(basic.table, monomials)
    raiser = xhat_psi(seq, bound)
    lhs = commutator(u, raiser)
    l_prime_op = realize_delta_series(l_series.formal_derivative(), bound)
    rhs = raiser.compose(u).compose(
        l_prime_op.subtract(identity_operator(bound))
    )
    window = lhs.agreement_window(rhs)
    return {"window": window, "passed": window >= bound - 1}
