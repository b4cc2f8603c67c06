"""Graded polynomial sequences attached to lowering operators.

A basic sequence {p_n} of a lowering operator Q satisfies p_0 = 1,
p_n(0) = 0 and Q p_n = n_psi p_{n-1}. A Sheffer companion relative to an
invertible series S is s_n = S^{-1} p_n. The solve is the ground truth here
(triangular for a matrix, the divided-power recurrence for a series in Q);
the closed-form routes are checked against it, never trusted. The checks of
a Sheffer table are lazy streams of witnesses, empty when the check holds;
the lowering relation itself is `operators.lowering_failures`. The
expansion constants are returned as coordinates, and the harness reads the
binomial conventions off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import BadParameterError, WrongFamilyError
from .operators import (
    OperatorMatrix,
    apply_delta_series,
    dual_operator,
    eigen_series,
    generalized_shift,
    operator_polynomial_applied,
    realize_delta_series,
    xhat_psi,
)
from .poly import (
    ONE,
    Polynomial,
    SequenceTable,
    _canonical,
    _check_graded,
    _convolve,
    _diagonal,
    coordinates_in_table,
    fr,
)
from .psi import AdmissibleSequence
from .series import DeltaSeries


@dataclass(frozen=True)
class BasicSequence:
    seq: AdmissibleSequence
    lowering: OperatorMatrix | DeltaSeries  # a series in Q, or its matrix
    table: SequenceTable

    @property
    def bound(self) -> int:
        return self.table.bound

    @cached_property
    def q_op(self) -> OperatorMatrix:
        """The lowering operator as a matrix; a series is realised on first use."""
        q = self.lowering
        return realize_delta_series(q, self.bound) if isinstance(q, DeltaSeries) else q

    @cached_property
    def raiser(self) -> OperatorMatrix:
        """Dual raiser p_n -> ((n+1)/(n+1)_psi) p_(n+1), built and checked
        against the table on first use; raises BasisMismatchError if the
        table is not basic for `q_op`."""
        return dual_operator(self.q_op, self.table, self.seq)


@dataclass(frozen=True)
class ShefferSequence:
    seq: AdmissibleSequence
    basic: BasicSequence
    q_series: DeltaSeries
    s_series: DeltaSeries
    table: SequenceTable

    @property
    def bound(self) -> int:
        return self.table.bound

    @property
    def q_op(self) -> OperatorMatrix:
        return self.basic.q_op


def basic_sequence(q_op: OperatorMatrix, seq: AdmissibleSequence, bound: int) -> BasicSequence:
    """p_n = n_psi! phi_n on the graded ladder Q phi_n = phi_(n-1) of
    `eigen_series` (unique, exact)."""
    if bound > q_op.bound:
        raise BadParameterError("bound exceeds operator bound")
    entries = [phi.scale(seq.factorial(n)) for n, phi in enumerate(eigen_series(q_op, bound))]
    return BasicSequence(seq, q_op, SequenceTable(tuple(entries)))


def basic_sequence_from_series(q_series: DeltaSeries, bound: int) -> BasicSequence:
    """Basic table of q(Q), q read at the bound, on the divided powers
    e_j = x^j / j_psi!, where Q e_j = e_(j-1): with sigma = (q/t)^-1, the
    rule q(Q) p_n = n_psi p_(n-1) is Q T_n = sigma(Q) T_(n-1) for the rows
    T_n, the coordinates of p_n / n_psi! in the e_j, so T_n[0] = 0 and
    T_n[j+1] = sum_k sigma_k T_(n-1)[j+k], one integer convolution per
    entry; then p_n[j] = n_psi! T_n[j] / j_psi! (Roman, 1984, ch. 2). The
    table keeps the rows."""
    q_series.require_delta()
    if bound < 0:
        raise BadParameterError("degree bound must be nonnegative")
    seq = q_series.base
    if bound > seq.bound:  # a family too short for the bound raises
        seq.factorial(seq.bound + 1)
    rows = [ONE]
    if bound:
        sigma = q_series.shift_down().at_order(bound - 1).multiplicative_inverse().polynomial
        for _ in range(bound):
            t = rows[-1]
            rows.append(_canonical([0] + _convolve(sigma.nums, t.nums), sigma.den * t.den))
    return BasicSequence(seq, q_series, _table_of_rows(seq, rows))


def _table_of_rows(seq: AdmissibleSequence, rows: list) -> SequenceTable:
    """The table of the rows T_n = rows[n], which keeps them and the family
    and forms its entries p_n[j] = n_psi! T_n[j] / j_psi! on first read; the
    degrees are checked on the rows."""
    rows = tuple(rows)
    _check_graded(rows)
    table = object.__new__(SequenceTable)
    object.__setattr__(table, "divided", (seq, rows))
    return table


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
    q_series = q_series.at_order(bound)
    s_inv = q_series.shift_down().multiplicative_inverse()
    qprime = q_series.formal_derivative()

    raiser = xhat_psi(seq, bound)
    # q'(Q) and q'(Q)^{-1} act on every entry, so they are built once as
    # matrices; each power of s^{-1} acts on two monomials and stays a series
    qprime_op = realize_delta_series(qprime, bound)
    qprime_inv_op = realize_delta_series(qprime.multiplicative_inverse(), bound)

    s_inv_powers = s_inv.powers(bound + 1)  # s^{-k}, k = 0..bound+1

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


def sheffer_sequence(
    q_series: DeltaSeries, s_series: DeltaSeries, bound: int
) -> ShefferSequence:
    """s_n = S(Q)^-1 p_n over the basic table p_n of q(Q), with S over the
    family of q (WrongFamilyError otherwise)."""
    q_series.require_delta()
    s_series.require_invertible()
    seq = q_series.base
    if s_series.base != seq:
        raise WrongFamilyError(f"s_series is over {s_series.base.label}, q_series over {seq.label}")
    # read both at the bound: the inverse of a shorter S is truncated below it
    q_series = q_series.at_order(bound)
    s_series = s_series.at_order(bound)
    basic = basic_sequence_from_series(q_series, bound)
    # the rows U_n = S^-1(Q) T_n: one convolution each, as on any e_j-coordinates
    c = s_series.multiplicative_inverse().polynomial
    rows = [_canonical(_convolve(c.nums, t.nums), c.den * t.den) for t in basic.table.divided[1]]
    return ShefferSequence(seq, basic, q_series, s_series, _table_of_rows(seq, rows))


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


def reconstruct_inverse_series(sheffer: ShefferSequence) -> DeltaSeries:
    """Rebuild S^{-1} from constant terms: sum_k (s_k(0)/k_psi!) q(t)^k."""
    seq = sheffer.seq
    order = sheffer.q_series.order
    outer = [
        sheffer.table[k].constant_term / seq.factorial(k)
        for k in range(sheffer.bound + 1)
    ]
    return DeltaSeries.from_list(seq, outer, order).compose(sheffer.q_series)


def inverse_reconstruction_failures(sheffer: ShefferSequence):
    """Witness {"rebuilt", "actual"}, both series to their common order,
    when the reconstruction from the constant terms is not S^{-1}."""
    rebuilt = reconstruct_inverse_series(sheffer)
    actual = sheffer.s_series.multiplicative_inverse()
    order = min(rebuilt.order, actual.order)
    if rebuilt.coeffs[: order + 1] != actual.coeffs[: order + 1]:
        yield {
            "rebuilt": [str(c) for c in rebuilt.coeffs[: order + 1]],
            "actual": [str(c) for c in actual.coeffs[: order + 1]],
        }


def _addition_cells(t: list, u: list, n: int) -> list:
    """The degree-n addition rule as an identity in x and y, left side less
    right side.

    t[m] and u[m] are table and partner entry m divided by m_psi! and read
    in the divided powers e_j = x^j / j_psi!. Row i, column k holds the
    coefficient of e_i(x) e_k(y): t[n][i+k] on the left and
    sum_m t[m][i] u[n-m][k] on the right, each side integers over one
    denominator, cross-multiplied, so the rule holds at degree n exactly
    when every entry is 0.
    """
    terms = [(t[m], u[n - m]) for m in range(n + 1)]
    den = math.lcm(*[a.den * b.den for a, b in terms])
    lhs_den = t[n].den
    rhs = [[0] * (n + 1 - i) for i in range(n + 1)]
    for a, b in terms:
        w = den // (a.den * b.den) * lhs_den
        for i, x in enumerate(a.nums):
            if x:
                wx, row = w * x, rhs[i]
                for k, y in enumerate(b.nums):
                    if y:
                        row[k] += wx * y
    lhs = [v * den for v in t[n].nums] + [0] * (n + 1 - len(t[n].nums))
    return [[a - b for a, b in zip(lhs[i:], row)] for i, row in enumerate(rhs)]


def _separating_sample(cells: list, n: int, seq: AdmissibleSequence, ys: list):
    """The first y of `ys` at which the sides of the degree-n rule differ, or
    None: with `cells` from `_addition_cells`, the coefficient of e_i(x) is
    sum_k cells[i][k] y^k / k_psi!. For y = p/q it is read as the integer
    sum_k cells[i][k] G_k p^k q^(n-k), 1 / k_psi! = G_k / G_den."""
    weights = seq._inverse_factorial_table.nums
    rows = [[c * w for c, w in zip(row, weights)] for row in cells if any(row)]
    for y in ys:
        v = fr(y)
        p, q = v.numerator, v.denominator
        powers = [p**k * q ** (n - k) for k in range(n + 1)]
        if any(sum(map(mul, row, powers)) for row in rows):
            return y
    return None


def _addition_chain_agrees(t: list, u: list, n: int) -> bool:
    """Whether cells (0, 0) and (i, 1), i < n, of `_addition_cells` hold.

    With A_j(z) = sum_m t[m][j] z^m and B_k(z) likewise for u, cell (i, k)
    is [z^n] A_(i+k) = [z^n] A_i B_k. If every lower degree holds, all
    degree-n cells hold exactly when these do for t against u and for u
    against itself: B_0 is idempotent with a nonzero constant, so B_0 = 1,
    B_k = B_1^k and A_(i+k) = A_i B_1^k; and all cells give B_k = A_0^-1 A_k.
    """
    terms = [(t[m], u[n - m]) for m in range(n + 1)]
    den = math.lcm(*[a.den * b.den for a, b in terms])
    rhs = [0] * (n + 1)  # cell (0, 0), then cell (i, 1) at index i + 1
    for a, b in terms:
        w = den // (a.den * b.den) * t[n].den
        rhs[0] += w * a.nums[0] * b.nums[0]
        if len(b.nums) > 1 and b.nums[1]:
            w *= b.nums[1]
            for i, x in enumerate(a.nums, 1):
                if x:
                    rhs[i] += w * x
    return rhs == [v * den for v in t[n].nums]


def addition_rule_failure(table: SequenceTable, partner: SequenceTable,
                          seq: AdmissibleSequence, y_values=None):
    """The first (n, y) at which the sampled rule
    E^y t_n = sum_k binom_psi(n,k) t_k(x) u_(n-k)(y) fails, or None.

    `partner` is `table` for a basic table, the basic table for a Sheffer
    one; `y_values` defaults to `default_shift_samples(bound + 2)`, formed
    only when a degree's cells differ. Each degree is decided as the exact
    bivariate identity: both sides have degree at most n in y, so equal
    coefficients make every sample agree. It is read on divided powers: the
    coefficient of x^i y^k, times the nonzero i_psi! k_psi! / n_psi!, is the
    coefficient of e_i(x) e_k(y) with e_j = x^j / j_psi!, so cell (i, k)
    holds exactly when the convolution of `_addition_cells` does, and no
    binom_psi is formed. A table built from its rows (the basic and Sheffer
    tables of a series) gives its kept rows when `seq` is the very family
    object that built them; any other table or family has each entry
    converted once, when the degree loop first reaches it. While every lower
    degree holds, a degree is decided by its chain cells, O(n^2) products in
    place of O(n^3). At a degree whose cells differ, the first sample at
    which their difference is nonzero (`_separating_sample`) is the witness;
    if no sample separates the sides (fewer than n + 1 distinct samples can
    all be roots), the check moves on as the sampled rule would, and later
    degrees check all their cells.
    """
    ys = None if y_values is None else list(y_values)

    def rows(tab: SequenceTable):
        """n -> entry n over n_psi! in the e_j of `seq`."""
        if tab.divided is not None and tab.divided[0] is seq:
            return tab.divided[1].__getitem__
        f, g = seq._factorial_table, seq._inverse_factorial_table
        return lambda n: _diagonal(tab[n], f, g.nums[n], g.den)

    row_t = rows(table)
    row_u = row_t if partner is table else rows(partner)
    t, u = [], []
    chained = True  # every degree below n holds
    for n in range(table.bound + 1):
        seq.n_psi(n)  # a family too short for the table raises here
        t.append(row_t(n))
        u.append(t[n] if partner is table else row_u(n))
        if chained and _addition_chain_agrees(t, u, n) and (
            partner is table or _addition_chain_agrees(u, u, n)
        ) or not chained and not any(map(any, _addition_cells(t, u, n))):
            continue
        chained = False
        if ys is None:
            ys = default_shift_samples(table.bound + 2)
        y = _separating_sample(_addition_cells(t, u, n), n, seq, ys)
        if y is not None:
            return n, y
    return None


def _addition_rule(
    table: SequenceTable,
    partner: SequenceTable,
    seq: AdmissibleSequence,
    y_values,
    failure: str,
    success: str,
) -> CheckReport:
    """The report of `addition_rule_failure`: a failure's witness, both sides
    at its (n, y), is formed once, through `generalized_shift` and the
    binom_psi sum over the published entries, independently of the cells."""
    found = addition_rule_failure(table, partner, seq, y_values)
    if found is None:
        return CheckReport(True, success)
    n, y = found
    lhs = generalized_shift(seq, table[n], y)
    rhs = Polynomial()
    for k in range(n + 1):
        rhs = rhs + table[k].scale(seq.binomial(n, k) * partner[n - k](y))
    return CheckReport(
        False, failure, {"n": n, "y": str(y), "lhs": lhs.to_text(), "rhs": rhs.to_text()}
    )


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


def generating_function_failures(sheffer: ShefferSequence, z_order: int):
    """Witnesses {"order", "lhs", "rhs"}, j = 0..z_order, where s_j(x)/j_psi!
    differs from the order-j part of the reciprocal prefactor times the graded
    exponential, both composed with the inverse of q(t). A `z_order` beyond
    the table bound raises at the call."""
    seq = sheffer.seq
    if z_order > sheffer.bound:
        raise BadParameterError("z order beyond the table bound")

    def search():
        g = sheffer.q_series.compositional_inverse()  # q^{-1}(z)
        # prefactor series A(z) = 1 / s(q^{-1}(z))
        prefactor = sheffer.s_series.compose(g).multiplicative_inverse()
        # graded exponential factor: B_j(x) = sum_m x^m [g^m]_j / m_psi!
        g_powers = g.powers(z_order)
        for j in range(z_order + 1):
            rhs = Polynomial()
            for i in range(j + 1):
                # prefactor_i times the degree part of order j - i
                part = Polynomial(
                    [g_powers[m].coefficient(j - i) / seq.factorial(m) for m in range(j - i + 1)]
                )
                rhs = rhs + part.scale(prefactor.coefficient(i))
            lhs = sheffer.table[j].scale(1 / seq.factorial(j))
            if lhs != rhs:
                yield {"order": j, "lhs": lhs.to_text(), "rhs": rhs.to_text()}

    return search()


def expansion_coordinates(sheffer: ShefferSequence, a_coeffs) -> list:
    """Row n: the coordinates of A s_n in the Sheffer table, for
    A = sum a_j Q^j; under the graded binomial convention, row n holds
    binom_psi(n, j) times the constant a_j j_psi! at coordinate n - j."""
    a = Polynomial(list(a_coeffs)[: sheffer.bound + 1])
    return [coordinates_in_table(sheffer.table, operator_polynomial_applied(a, sheffer.q_op, s))
            for s in sheffer.table]
