"""Graded polynomial sequences attached to lowering operators.

A basic sequence {p_n} of a lowering operator Q satisfies p_0 = 1,
p_n(0) = 0 and Q p_n = n_psi p_{n-1}. A Sheffer companion relative to an
invertible series S is s_n = S^{-1} p_n. The triangular solve is the ground
truth here; the closed-form routes are checked against it, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameterError, SingularOperatorError
from .operators import (
    OperatorMatrix,
    apply_delta_series,
    eigen_series,
    generalized_shift,
    operator_polynomial,
    realize_delta_series,
    require_lowers_by_one,
    xhat_psi,
)
from .poly import ONE, Polynomial, SequenceTable, coordinates_in_table
from .psi import AdmissibleSequence
from .series import (
    DeltaSeries,
    series_compose,
    series_inverse,
    series_mul,
    series_pad,
)


@dataclass(frozen=True)
class BasicSequence:
    seq: AdmissibleSequence
    q_op: OperatorMatrix
    table: SequenceTable

    @property
    def bound(self) -> int:
        return self.table.bound

    def __getitem__(self, n: int) -> Polynomial:
        return self.table[n]


@dataclass(frozen=True)
class ShefferSequence:
    seq: AdmissibleSequence
    basic: BasicSequence
    q_series: DeltaSeries | None
    s_series: DeltaSeries
    table: SequenceTable

    @property
    def bound(self) -> int:
        return self.table.bound

    @property
    def q_op(self) -> OperatorMatrix:
        return self.basic.q_op

    def __getitem__(self, n: int) -> Polynomial:
        return self.table[n]


def basic_sequence(
    q_op: OperatorMatrix, seq: AdmissibleSequence, bound: int | None = None
) -> BasicSequence:
    """Solve the graded recurrence degree by degree (unique, exact)."""
    require_lowers_by_one(q_op)
    bound = q_op.bound if bound is None else bound
    if bound > q_op.bound:
        raise BadParameterError("bound exceeds operator bound")
    lowered = SequenceTable(q_op.columns[1:])  # column n has degree n - 1
    entries = [ONE]
    for n in range(1, bound + 1):
        target = entries[-1].scale(seq.n_psi(n))
        entries.append(Polynomial([0] + coordinates_in_table(lowered, target)))
    return BasicSequence(seq, q_op, SequenceTable(tuple(entries)))


def basic_sequence_from_series(q_series: DeltaSeries, bound: int) -> BasicSequence:
    q_series.require_delta()
    op = realize_delta_series(q_series, bound)
    return basic_sequence(op, q_series.base, bound)


def closed_form_routes(q_series: DeltaSeries, bound: int) -> dict:
    """Four closed-form constructions of the basic sequence of q(Q).

    Writing q(t) = t * s(t) with s invertible:
      prefactor:        p_n = q'(Q) s(Q)^{-n-1} x^n
      corrected_power:  p_n = s(Q)^{-n} x^n - (n_psi/n) (s^{-n})'(Q) x^{n-1}
      raising:          p_n = (n_psi/n) xhat s(Q)^{-n} x^{n-1}
      iterative:        p_n = (n_psi/n) xhat q'(Q)^{-1} p_{n-1}
    All applications stay inside the degree bound, so each route is exact.
    """
    q_series.require_delta()
    seq = q_series.base
    # read q at the bound: inverses and powers need every order up to it
    q_series = DeltaSeries.from_list(seq, q_series.coeffs, bound)
    s_inv = q_series.shift_down().multiplicative_inverse()
    qprime = q_series.formal_derivative()

    raiser = xhat_psi(seq, bound)
    # q'(Q) and q'(Q)^{-1} act on every entry, so they are built once as
    # matrices; each power of s^{-1} acts on two monomials and stays a series
    qprime_op = realize_delta_series(qprime, bound)
    qprime_inv_op = realize_delta_series(qprime.multiplicative_inverse(), bound)

    # s^{-k} series, k = 0..bound+1
    s_inv_powers = [s_inv.power(0)]
    for _ in range(bound + 1):
        s_inv_powers.append(s_inv_powers[-1].multiply(s_inv))

    prefactor, corrected, raising, iterative = [ONE], [ONE], [ONE], [ONE]
    for n in range(1, bound + 1):
        xn = Polynomial.monomial(n)
        xnm1 = Polynomial.monomial(n - 1)
        weight = seq.n_psi(n) / Fraction(n)

        route1 = qprime_op.apply(apply_delta_series(s_inv_powers[n + 1], xn))
        prefactor.append(route1)

        s_inv_n = s_inv_powers[n]
        route2 = apply_delta_series(s_inv_n, xn) - apply_delta_series(
            s_inv_n.formal_derivative(), xnm1
        ).scale(weight)
        corrected.append(route2)

        route3 = raiser.apply(apply_delta_series(s_inv_n, xnm1)).scale(weight)
        raising.append(route3)

        route4 = raiser.apply(qprime_inv_op.apply(iterative[-1])).scale(weight)
        iterative.append(route4)

    return {
        "prefactor": SequenceTable(tuple(prefactor)),
        "corrected_power": SequenceTable(tuple(corrected)),
        "raising": SequenceTable(tuple(raising)),
        "iterative": SequenceTable(tuple(iterative)),
    }


def rodrigues_sequence(q_series: DeltaSeries, bound: int) -> BasicSequence:
    """Basic sequence by iterated raising, cross-checked against all routes."""
    routes = closed_form_routes(q_series, bound)
    table = routes["iterative"]
    for name, other in routes.items():
        if other.entries != table.entries:
            raise SingularOperatorError(
                f"closed-form route {name} disagrees with the iterative route"
            )
    op = realize_delta_series(q_series, bound)
    return BasicSequence(q_series.base, op, table)


def sheffer_sequence(
    q_series: DeltaSeries, s_series: DeltaSeries, bound: int
) -> ShefferSequence:
    q_series.require_delta()
    s_series.require_invertible()
    # read both at the bound: the inverse of a shorter S is truncated below it
    q_series = DeltaSeries.from_list(q_series.base, q_series.coeffs, bound)
    s_series = DeltaSeries.from_list(s_series.base, s_series.coeffs, bound)
    basic = basic_sequence_from_series(q_series, bound)
    s_inv = s_series.multiplicative_inverse()
    entries = tuple(apply_delta_series(s_inv, p) for p in basic.table)
    return ShefferSequence(
        q_series.base, basic, q_series, s_series, SequenceTable(entries)
    )


def appell_sequence(s_series: DeltaSeries, bound: int) -> ShefferSequence:
    q = DeltaSeries.from_list(s_series.base, [0, 1], s_series.order)
    return sheffer_sequence(q, s_series, bound)


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification; witness holds the first failure."""

    passed: bool
    description: str
    witness: dict | None = None


def default_shift_samples(count: int) -> list:
    out = [Fraction(0), Fraction(1), Fraction(-1)]
    k = 2
    while len(out) < count:
        out.append(Fraction(k))
        k += 1
    return out[:count]


def verify_sheffer_definition(sheffer: ShefferSequence) -> CheckReport:
    """Degree grading, nonzero constant start, and the lowering recurrence."""
    table = sheffer.table
    q_op = sheffer.q_op
    seq = sheffer.seq
    if table[0].degree != 0:
        return CheckReport(False, "start entry not a constant", {"n": 0})
    for n in range(1, table.bound + 1):
        got = q_op.apply(table[n])
        expected = table[n - 1].scale(seq.n_psi(n))
        if got != expected:
            return CheckReport(
                False,
                "lowering recurrence fails",
                {"n": n, "got": got.to_text(), "expected": expected.to_text()},
            )
    return CheckReport(True, "graded lowering recurrence holds")


def reconstruct_inverse_series(sheffer: ShefferSequence) -> DeltaSeries:
    """Rebuild S^{-1} from constant terms: sum_k (s_k(0)/k_psi!) q(t)^k."""
    if sheffer.q_series is None:
        raise BadParameterError("reconstruction needs the series form of Q")
    seq = sheffer.seq
    order = sheffer.q_series.order
    outer = [
        sheffer.table[k].constant_term / seq.factorial(k)
        for k in range(sheffer.bound + 1)
    ]
    composed = series_compose(
        series_pad(outer, order), sheffer.q_series.coeffs, order
    )
    return DeltaSeries.from_list(seq, composed, order)


def verify_inverse_reconstruction(sheffer: ShefferSequence) -> CheckReport:
    rebuilt = reconstruct_inverse_series(sheffer)
    actual = sheffer.s_series.multiplicative_inverse()
    order = min(rebuilt.order, actual.order)
    if rebuilt.coeffs[: order + 1] != actual.coeffs[: order + 1]:
        return CheckReport(
            False,
            "series reconstruction mismatch",
            {
                "rebuilt": [str(c) for c in rebuilt.coeffs[: order + 1]],
                "actual": [str(c) for c in actual.coeffs[: order + 1]],
            },
        )
    return CheckReport(True, "constant-term reconstruction matches S^{-1}")


def _addition_coefficients_agree(
    table: SequenceTable, partner: SequenceTable, seq: AdmissibleSequence, n: int
) -> bool:
    """Whether the degree-n addition rule holds as an identity in x and y.

    Row i, column k holds the coefficient of x^i y^k: binom_psi(i+k, k)
    [x^(i+k)] t_n on the left, sum_m binom_psi(n,m) [x^i] t_m [y^k] u_(n-m)
    on the right, with t the table and u its partner. The left side is built
    first, in the order of `generalized_shift`, so a family too short for the
    table raises the same UndefinedIndexError the sampled shift would.
    """
    lhs = [[0] * (n + 1 - i) for i in range(n + 1)]
    for j, c in enumerate(table[n].coeffs):
        if c:
            for k in range(j + 1):
                lhs[j - k][k] = seq.binomial(j, k) * c
    rhs = [[0] * (n + 1 - i) for i in range(n + 1)]
    for m in range(n + 1):
        b = seq.binomial(n, m)
        u_coeffs = partner[n - m].coeffs
        for i, a in enumerate(table[m].coeffs):
            if a:
                w = b * a
                row = rhs[i]
                for k, c in enumerate(u_coeffs):
                    row[k] += w * c
    return lhs == rhs


def _addition_rule(
    table: SequenceTable,
    partner: SequenceTable,
    seq: AdmissibleSequence,
    y_values,
    failure: str,
    success: str,
) -> CheckReport:
    """E^y t_n = sum_k binom_psi(n,k) t_k(x) u_(n-k)(y) for every n.

    The verdict is the exact bivariate identity: both sides have degree at
    most n in y, so equal coefficients make every sample agree. Only a degree
    whose coefficients differ is evaluated at the sampled shifts, to report
    the first (n, y) witness; if no sample separates the sides (fewer than
    n + 1 samples), the check moves on as the sampled rule would.
    """
    ys = default_shift_samples(table.bound + 2) if y_values is None else y_values
    for n in range(table.bound + 1):
        if _addition_coefficients_agree(table, partner, seq, n):
            continue
        for y in ys:
            lhs = generalized_shift(seq, table[n], y)
            rhs = Polynomial()
            for k in range(n + 1):
                rhs = rhs + table[k].scale(seq.binomial(n, k) * partner[n - k](y))
            if lhs != rhs:
                return CheckReport(
                    False,
                    failure,
                    {"n": n, "y": str(y), "lhs": lhs.to_text(), "rhs": rhs.to_text()},
                )
    return CheckReport(True, success)


def verify_binomial_type(
    table: SequenceTable, seq: AdmissibleSequence, y_values=None
) -> CheckReport:
    """Graded addition rule for a basic-type table."""
    return _addition_rule(
        table,
        table,
        seq,
        y_values,
        "addition rule fails",
        "addition rule holds at all sampled shifts",
    )


def verify_sheffer_binomial(sheffer: ShefferSequence, y_values=None) -> CheckReport:
    """Mixed addition rule: shifted Sheffer entries expand over the basic table."""
    return _addition_rule(
        sheffer.table,
        sheffer.basic.table,
        sheffer.seq,
        y_values,
        "mixed addition rule fails",
        "mixed addition rule holds at all sampled shifts",
    )


def generating_function_check(sheffer: ShefferSequence, z_order: int) -> CheckReport:
    """Compare s_j(x)/j_psi! with the product of the reciprocal prefactor and
    the graded exponential, both composed with the inverse of q(t)."""
    if sheffer.q_series is None:
        raise BadParameterError("generating function needs the series form of Q")
    seq = sheffer.seq
    if z_order > sheffer.bound:
        raise BadParameterError("z order beyond the table bound")
    g = sheffer.q_series.compositional_inverse()  # q^{-1}(z)
    order = g.order
    # prefactor series A(z) = 1 / s(q^{-1}(z))
    s_at_g = series_compose(sheffer.s_series.coeffs, g.coeffs, order)
    prefactor = series_inverse(s_at_g, order)
    # graded exponential factor: B_j(x) = sum_m x^m [g^m]_j / m_psi!
    g_powers = [series_pad([1], order)]
    for _ in range(z_order):
        g_powers.append(series_mul(g_powers[-1], g.coeffs, order))
    for j in range(z_order + 1):
        rhs = Polynomial()
        for i in range(j + 1):
            # prefactor_i times the degree part of order j - i
            part = Polynomial(
                [g_powers[m][j - i] / seq.factorial(m) for m in range(j - i + 1)]
            )
            rhs = rhs + part.scale(prefactor[i])
        lhs = sheffer.table[j].scale(1 / seq.factorial(j))
        if lhs != rhs:
            return CheckReport(
                False,
                "generating function mismatch",
                {"order": j, "lhs": lhs.to_text(), "rhs": rhs.to_text()},
            )
    return CheckReport(True, f"generating function matches to order {z_order}")


@dataclass(frozen=True)
class EigenSeriesResult:
    """Normalized eigen-ladder of a lowering operator.

    `table[n]` multiplies the n-th power of the eigenvalue; when every entry
    is a monomial the operator is the lowering operator of the family read
    off the diagonal and `exp_coefficients` holds the monomial coefficients.
    """

    table: tuple
    exp_coefficients: tuple | None


def eigenfunction_series(q_op: OperatorMatrix, truncation: int) -> EigenSeriesResult:
    phis = eigen_series(q_op, truncation)
    if all(p.degree == n and all(c == 0 for c in p.coeffs[:-1]) for n, p in enumerate(phis)):
        return EigenSeriesResult(tuple(phis), tuple(p.coefficient(p.degree) for p in phis))
    return EigenSeriesResult(tuple(phis), None)


def verify_expansion_constants(
    sheffer: ShefferSequence, a_coeffs, sample_orders=None
) -> dict:
    """Expand A = sum a_j Q^j against the Sheffer table under both binomial
    conventions; returns which convention admits constants."""
    seq = sheffer.seq
    bound = sheffer.bound
    q_op = sheffer.q_op
    # A = sum a_j Q^j as a matrix, then its action in Sheffer coordinates
    a_of_q = operator_polynomial(Polynomial(series_pad(list(a_coeffs), bound)), q_op)
    rows = []
    for n in range(bound + 1):
        image = a_of_q.apply(sheffer.table[n])
        rows.append(coordinates_in_table(sheffer.table, image))

    def convention_holds(binom):
        constants = [rows[j][0] for j in range(bound + 1)]
        for n in range(bound + 1):
            for j in range(n + 1):
                expected = binom(n, j) * constants[j]
                if rows[n][n - j] != expected:
                    return False, constants, (n, j)
        return True, constants, None

    import math

    psi_ok, psi_constants, psi_witness = convention_holds(seq.binomial)
    plain_ok, plain_constants, plain_witness = convention_holds(
        lambda n, j: Fraction(math.comb(n, j))
    )
    return {
        "psi_binomial_holds": psi_ok,
        "psi_constants": psi_constants if psi_ok else None,
        "psi_witness": psi_witness,
        "plain_binomial_holds": plain_ok,
        "plain_constants": plain_constants if plain_ok else None,
        "plain_witness": plain_witness,
    }


def sheffer_product_shift(sheffer: ShefferSequence, extra_s: DeltaSeries) -> ShefferSequence:
    """Move along the Sheffer orbit: divide the table by an invertible series."""
    # read the series in the table's own family and at its bound
    extra_s = DeltaSeries.from_list(sheffer.seq, extra_s.coeffs, sheffer.bound)
    extra_inv = extra_s.multiplicative_inverse()
    entries = tuple(apply_delta_series(extra_inv, p) for p in sheffer.table)
    return ShefferSequence(
        sheffer.seq,
        sheffer.basic,
        sheffer.q_series,
        sheffer.s_series.multiply(extra_s),
        SequenceTable(entries),
    )
