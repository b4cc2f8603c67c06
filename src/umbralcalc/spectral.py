"""Inner products, eigenvalue operators, umbral transports, and the
deformed commutation suite.

The definitional spectral operator is the unique matrix with eigenvalue n on
the n-th Sheffer entry, built by conjugating diag(0..N) through the Sheffer
basis. Printed closed forms are assembled separately and compared; their
agreement is reported, never assumed. A check that searches for a
counterexample, the transport between basic bases among them, is a lazy
stream of witnesses; a guard on its arguments raises at the call. The
factorization laws, read off one set of power ladders, and the transport
law return agreement windows, and the harness decides what holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import BadParameterError, WrongFamilyError
from .operators import (
    OperatorMatrix,
    apply_delta_series,
    commutator,
    dilation,
    expand_in_dual_pair,
    from_action,
    lowering_failures,
    multiplication_x,
    operator_polynomial,
    table_conjugate,
    umbral_operator,
    weighted_shift,
    xhat_psi,
    zero_operator,
)
from .poly import ONE, Polynomial, SequenceTable, _diagonal, coordinates_in_table
from .psi import AdmissibleSequence, Q_DEFORMED
from .sequences import (
    BasicSequence,
    ShefferSequence,
    basic_sequence_from_series,
    sheffer_sequence,
)
from .series import DeltaSeries


# -- inner product ------------------------------------------------------------


def _pairing_row(sheffer: ShefferSequence, g: Polynomial, count: int) -> list:
    """Constant terms of Q^n S g, n = 0..count-1: the pairing of g with
    Sheffer entry n, so <f, g> weights them by the coordinates of f."""
    orbit = sheffer.q_op.orbit(apply_delta_series(sheffer.s_series, g), count - 1)
    return [vec.constant_term for vec in orbit]


def inner_product(sheffer: ShefferSequence, f: Polynomial, g: Polynomial) -> Fraction:
    """Pairing: expand f over the Sheffer table, apply the matching powers of
    the lowering operator to S g, read the constant term."""
    coords = coordinates_in_table(sheffer.table, f)
    row = _pairing_row(sheffer, g, sheffer.bound + 1)
    return sum((c * value for c, value in zip(coords, row) if c), Fraction(0))


def orthogonality_failures(sheffer: ShefferSequence, kmax: int):
    """Witnesses {"k", "n", "got", "expected"}, k outer and n inner over
    0..kmax, where <s_k, s_n> is not n_psi! on the diagonal and 0 off it.
    A `kmax` outside 0..bound raises at the call."""
    if not 0 <= kmax <= sheffer.bound:
        raise BadParameterError(f"kmax must lie in 0..{sheffer.bound}, got {kmax}")

    def search():
        # entry k has coordinates e_k in its own table, so <s_k, s_n> = rows[n][k]
        rows = [_pairing_row(sheffer, sheffer.table[n], kmax + 1) for n in range(kmax + 1)]
        for k in range(kmax + 1):
            for n in range(kmax + 1):
                expected = sheffer.seq.factorial(n) if n == k else Fraction(0)
                if rows[n][k] != expected:
                    yield {"k": k, "n": n, "got": str(rows[n][k]), "expected": str(expected)}

    return search()


def gram_failures(sheffer: ShefferSequence, rng, samples: int):
    """Witnesses {"f", "value"} among `samples` random f with <f, f> <= 0,
    which a family of positive weights never gives; each f is drawn only
    once the previous one has held."""
    for _ in range(samples):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sheffer.bound + 1)]
        f = Polynomial(coeffs)
        if not f:
            f = ONE
        value = inner_product(sheffer, f, f)
        if value <= 0:
            yield {"f": f.to_text(), "value": str(value)}


# -- spectral operator ---------------------------------------------------------


@dataclass(frozen=True)
class SpectralResult:
    """Definitional eigen-operator plus checks of the printed assemblies.

    `definitional` has eigenvalue n on Sheffer entry n by construction, and
    `composition_agrees` says whether S^{-1} xhat_Q Q S matches it exactly.
    `printed_divergence` is the first order at which the printed coefficient
    recipe, reading its ambiguous term nu_k(x) as x p_k'(0) / 1_psi, differs
    from the expansion of the definitional operator over Q in multiplication
    form, or None when every order agrees.
    """

    definitional: OperatorMatrix
    composition_agrees: bool
    printed_divergence: int | None


def spectral_operator(sheffer: ShefferSequence) -> SpectralResult:
    seq = sheffer.seq
    bound = sheffer.bound
    table = sheffer.table
    q_op = sheffer.q_op

    definitional = table_conjugate(table, weighted_shift(0, bound, lambda n: n))

    basic = sheffer.basic
    raiser = basic.raiser
    s_inv = sheffer.s_series.multiplicative_inverse()

    def conjugated(p: Polynomial) -> Polynomial:
        """S^-1 xhat Q S p, with S and S^-1 applied as series."""
        lowered = q_op.apply(apply_delta_series(sheffer.s_series, p))
        return apply_delta_series(s_inv, raiser.apply(lowered))

    composition_agrees = from_action(conjugated, bound).columns == definitional.columns

    # printed recipe: sum_k (u_k + nu_k(x)) / (k-1)_psi! Q^k
    # (log s)' = s'/s; its t^order term would need the unknown next
    # coefficient of s, but it acts only on polynomials of degree below that
    log_prime = sheffer.s_series.formal_derivative().multiply(s_inv)
    # the constant term of log_prime(Q) p is sum_j c_j p_j j_psi!
    weights = _diagonal(log_prime.polynomial, seq._factorial_table)
    # undoes the dual raising x^(j-1) -> (j / j_psi) x^j on the entries k >= 1,
    # which have no constant term
    unraise = weighted_shift(-1, bound, lambda j: seq.n_psi(j) / j)
    term_polys = [Polynomial()]
    for k in range(1, bound + 1):
        lowered = unraise.apply(basic.table[k])
        u_k = -Fraction(sum(map(mul, weights.nums, lowered.nums)), weights.den * lowered.den)
        slope = basic.table[k].derivative().constant_term
        nu = Polynomial([0, slope / seq.n_psi(1)])  # x times slope over 1_psi
        term_polys.append((Polynomial([u_k]) + nu).scale(1 / seq.factorial(k - 1)))

    expansion = expand_in_dual_pair(definitional, q_op, multiplication_x(bound))
    divergence = next(
        (k for k, term in enumerate(term_polys) if expansion.coefficients[k] != term), None
    )
    return SpectralResult(definitional, composition_agrees, divergence)


# -- deformed commutation suite -------------------------------------------------


def qhat_operator(basic: BasicSequence, one=None) -> OperatorMatrix:
    """The step-0 shift x^n -> ((n+1)_psi - one)/n_psi x^n conjugated to the
    basic table, degree 0 borrowing the weight of degree 1 (it never matters
    on the identity window). The graded weights subtract one = 1_psi, the
    default; the literal reading subtracts the integer 1, and the two differ
    only when 1_psi != 1."""
    seq = basic.seq
    one = seq.n_psi(1) if one is None else one

    def weight(n):
        return (seq.n_psi(max(n, 1) + 1) - one) / seq.n_psi(max(n, 1))

    return table_conjugate(basic.table, weighted_shift(0, basic.bound, weight))


def shift_raiser(basic: BasicSequence) -> OperatorMatrix:
    """Unscaled basic shift p_n -> (1/1_psi) p_{n+1}, top entry truncated:
    the shift x^n -> (1/1_psi) x^(n+1) conjugated to the table."""
    scale = 1 / basic.seq.n_psi(1)
    return table_conjugate(basic.table, weighted_shift(1, basic.bound, lambda j: scale))


def mutator_failures(basic: BasicSequence, raiser: OperatorMatrix, qhat: OperatorMatrix):
    """Witnesses {"n", "got"} where the deformed bracket Q R - qhat R Q does
    not fix basic entry n, for n below the truncation edge.

    It holds for the unscaled shift raiser with family-graded weights; the
    dual-scaled raiser and the literal integer-1 weights are evaluated too,
    so their failures can be recorded as findings.
    """
    q_op = basic.q_op
    for n in range(basic.bound):
        p = basic.table[n]
        got = q_op.apply(raiser.apply(p)) - qhat.apply(raiser.apply(q_op.apply(p)))
        if got != p:
            yield {"n": n, "got": got.to_text()}


# -- q-plane identification ------------------------------------------------------


def q_parameter(seq: AdmissibleSequence) -> Fraction:
    """The deformation parameter q a family was built with."""
    for key, value in seq.params:
        if key == "q":
            return Fraction(value)
    raise BadParameterError(f"{seq.label} carries no deformation parameter")


def qplane_commutation(q, bound: int) -> bool:
    """x-multiplication and dilation satisfy the exchange rule exactly."""
    a = multiplication_x(bound)
    b = dilation(q, bound)
    return b.compose(a).columns == a.compose(b).scale(q).columns


def qplane_substitution_failures(seq: AdmissibleSequence, bound: int, y_values):
    """Witnesses {"n", "y", "shifted", "substituted"}, y outer and n inner,
    where the shift by y differs from the substitution of
    (x-multiplication + y dilation) applied to 1: (x + y D_q)^n 1 = E^y x^n
    for n <= bound. Both sides are linear in the polynomial shifted, so this
    holds for every polynomial of degree <= bound exactly when it holds on
    the monomials (the q-binomial theorem for q-commuting variables). A
    family that is not q-deformed raises at the call."""
    if seq.family != Q_DEFORMED:
        raise WrongFamilyError("identification requires a q-deformed family")
    a = multiplication_x(bound)
    d = dilation(q_parameter(seq), bound)

    def search():
        for y in y_values:
            ladder = a.add(d.scale(y)).orbit(ONE, bound)  # (x + y D_q)^n 1, n = 0..bound
            shift = DeltaSeries.from_polynomial(seq, seq.exp_polynomial(y, bound), bound)
            for n, substituted in enumerate(ladder):
                shifted = apply_delta_series(shift, Polynomial.monomial(n))
                if shifted != substituted:
                    yield {
                        "n": n,
                        "y": str(y),
                        "shifted": shifted.to_text(),
                        "substituted": substituted.to_text(),
                    }

    return search()


# -- factorization identities ------------------------------------------------------


def factorization_windows(basic: BasicSequence, ns, fs) -> list:
    """One triple (first, second, steps) per n in `ns`: the agreement windows
    of (Q R Q)^n against Q^n R^n Q^n (agreeing in full) and of (R Q R)^n
    against R^n Q^n R^n (below bound - n), and per f in `fs` the windows
    (plain, graded) of R^n Q^n f(R) against prod_(i<n) (N - i) f(R) and
    prod_(i<n) (N - i_psi) f(R), N = R Q (plain below bound - deg f - n).
    Each ladder is built once, up to the largest n; a negative n is refused."""
    ns = list(ns)
    if min(ns, default=0) < 0:
        raise BadParameterError("negative operator power")
    top = max(ns, default=0)
    q_op, raiser = basic.q_op, basic.raiser
    number = raiser.compose(q_op)
    q_pows, r_pows = q_op.powers(top), raiser.powers(top)
    t1_pows = q_op.compose(number).powers(top)  # (Q R Q)^n
    t2_pows = number.compose(raiser).powers(top)  # (R Q R)^n
    ident = q_pows[0]  # Q^0
    plain, graded = [ident], [ident]
    for i in range(top):
        plain.append(plain[-1].compose(number.subtract(ident.scale(i))))
        graded.append(graded[-1].compose(number.subtract(ident.scale(basic.seq.n_psi(i)))))
    f_of_rs = [operator_polynomial(f, raiser) for f in fs]

    out = []
    for n in ns:
        rq = r_pows[n].compose(q_pows[n])  # R^n Q^n
        steps = []
        for f_of_r in f_of_rs:
            lhs = rq.compose(f_of_r)
            steps.append((
                lhs.agreement_window(plain[n].compose(f_of_r)),
                lhs.agreement_window(graded[n].compose(f_of_r)),
            ))
        first = t1_pows[n].agreement_window(q_pows[n].compose(rq))
        second = t2_pows[n].agreement_window(rq.compose(r_pows[n]))
        out.append((first, second, steps))
    return out


def appell_telescope_windows(
    basic: BasicSequence, appell_table: SequenceTable, n: int
) -> tuple:
    """Appell-weighted raising display with a free index: the agreement
    windows (printed, step) of its two readings, neither asserted; both
    hold below bound - n - 1 when the family weights are the plain integers.

    Reading 'as printed': R applied to sum_{m<=n} a_m(Q) R^m / m_psi!
    collapses to a_n(Q) R^{n+1} / n_psi! (the stray index resolved to n).
    Reading 'telescoping step': the single induction step
    R a_n(Q) R^n / n_psi! + a_{n-1}(Q) R^n / (n-1)_psi! = a_n(Q) R^{n+1} / n_psi!,
    equivalent to the plain-derivative ladder a_n' = n_psi a_{n-1} on the
    Appell entries. The step needs n >= 1.
    """
    if n < 1:
        raise BadParameterError(f"the telescope step needs n >= 1, got {n}")
    seq = basic.seq
    raiser = basic.raiser
    a_ops = [operator_polynomial(appell_table[m], basic.q_op) for m in range(n + 1)]
    r_powers = raiser.powers(n + 1)
    # the terms a_m(Q) R^m / m_psi!, m = 0..n
    terms = [a_ops[m].compose(r_powers[m]).scale(1 / seq.factorial(m)) for m in range(n + 1)]
    rhs = a_ops[n].compose(r_powers[n + 1]).scale(1 / seq.factorial(n))
    printed = raiser.compose(reduce(OperatorMatrix.add, terms))
    step = raiser.compose(terms[n]).add(
        a_ops[n - 1].compose(r_powers[n]).scale(1 / seq.factorial(n - 1))
    )
    return printed.agreement_window(rhs), step.agreement_window(rhs)


# -- umbral transport checks -----------------------------------------------------


def conjugation_transport_failures(
    source_series: DeltaSeries,
    target_series: DeltaSeries,
    s_coeffs,
    bound: int,
    sheffer_s: DeltaSeries,
):
    """Transport between two basic bases inside one shift-invariant algebra:
    the witness, when any of its six flags is false, is the dict of them;
    `sheffer_image_is_sheffer` says whether the transport carries the
    Sheffer table of (source_series, sheffer_s) to a Sheffer table of the
    target.

    Every series must be over the family of `source_series`; a series over
    another family raises WrongFamilyError at the call."""
    seq = source_series.base
    for name, series in (("target_series", target_series), ("sheffer_s", sheffer_s)):
        if series.base != seq:
            raise WrongFamilyError(
                f"{name} is over another family ({series.base.label}) than "
                f"source_series ({seq.label})"
            )

    def search():
        source = basic_sequence_from_series(source_series, bound)
        target = basic_sequence_from_series(target_series, bound)
        t = umbral_operator(source.table, target.table)
        t_inv = umbral_operator(target.table, source.table)
        q1 = source.q_op
        q2 = target.q_op

        def conjugate(m):
            return t.compose(m).compose(t_inv)

        s_poly = Polynomial(list(s_coeffs))
        conj_s = conjugate(operator_polynomial(s_poly, q1))
        # product preservation on a sampled pair of series in Q1
        sample_a = operator_polynomial(Polynomial([1, 2, 1]), q1)
        sample_b = operator_polynomial(Polynomial([Fraction(1, 2), 0, 1]), q1)
        conj_q1 = conjugate(q1)
        flags = {
            "commutes_with_target": commutator(conj_s, q2).columns
            == zero_operator(bound).columns,
            "products_preserved": conjugate(sample_a.compose(sample_b)).columns
            == conjugate(sample_a).compose(conjugate(sample_b)).columns,
            "conjugate_lowers_by_one": conj_q1.grading == "lowers_by_one",
            "conjugate_is_target_operator": conj_q1.columns == q2.columns,
            "series_substitution_matches": operator_polynomial(s_poly, conj_q1).columns
            == conj_s.columns,
        }
        images = [t.apply(p) for p in sheffer_sequence(source_series, sheffer_s, bound).table]
        flags["sheffer_image_is_sheffer"] = next(lowering_failures(q2, images, seq), None) is None
        if not all(flags.values()):
            yield flags

    return search()


def transport_pincherle_window(l_series: DeltaSeries, bound: int) -> int:
    """The agreement window of U' = [U, xhat] = xhat U (l'(Q) - id), for the
    transport U from the basic table of l(Q) back to monomials; the law
    holds below the raising edge, at window bound - 1."""
    basic = basic_sequence_from_series(l_series, bound)
    u = OperatorMatrix(basic.table.inverse)  # column j: x^j in the basic basis
    raiser = xhat_psi(l_series.base, bound)
    lhs = commutator(u, raiser)
    l_prime = l_series.formal_derivative()
    rhs = from_action(lambda p: raiser.apply(u.apply(apply_delta_series(l_prime, p) - p)), bound)
    return lhs.agreement_window(rhs)
