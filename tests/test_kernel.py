"""Differential tests of the exact kernel against the code it replaced.

The `old_*` functions below are the dense loops that `Polynomial.__add__`,
`__neg__`, `scale`, `__mul__`, `OperatorMatrix.apply` and
`expand_in_dual_pair` used to run, kept verbatim except that methods became
functions and the old operations call each other instead of the library's.
They build every result through the public `Polynomial` constructor, which
coerces and trims, so they are an independent route to the same values.
The new kernel must give equal coefficient tuples made only of `Fraction`s.

The same holds for series in the lowering operator: `old_realize_delta_series`
is the column-by-column realisation that every series went through before
`apply_delta_series` applied them directly, and `old_closed_form_routes`,
`old_inner_product` and `old_orthogonality_report` are the routes and the
pairing as they were, each realising its series through it.

Last, an oracle that shares no code path with the series action: the
diagonal map D: x^n -> (n_psi!/n!) x^n carries d/dx to the graded derivative
Q, so every series f(Q) is D^-1 f(d/dx) D.
"""

import dataclasses
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbralcalc.operators import (
    OperatorMatrix,
    apply_delta_series,
    expand_in_dual_pair,
    identity_operator,
    multiplication_x,
    psi_derivative,
    realize_delta_series,
    xhat_psi,
    zero_operator,
)
from umbralcalc.poly import ONE, ZERO, Polynomial, SequenceTable, coordinates_in_table, fr
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import closed_form_routes, sheffer_product_shift, sheffer_sequence
from umbralcalc.series import DeltaSeries, series_derivative, series_inverse, series_mul, series_pad
from umbralcalc.spectral import inner_product, orthogonality_report, spectral_operator, xhat_psi_inverse


def old_add(self, other):
    a, b = self.coeffs, other.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return Polynomial(out)


def old_neg(self):
    return Polynomial([-c for c in self.coeffs])


def old_sub(self, other):
    return old_add(self, old_neg(other))


def old_scale(self, c):
    c = fr(c)
    return Polynomial([c * a for a in self.coeffs])


def old_mul(self, other):
    if self.is_zero() or other.is_zero():
        return ZERO
    out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(other.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def old_apply(self, p):
    out = Polynomial()
    for j, c in enumerate(p.coeffs):
        if c != 0:
            out = old_add(out, old_scale(self.columns[j], c))
    return out


def old_compose(self, other):
    return OperatorMatrix(tuple(old_apply(self, col) for col in other.columns))


def old_matrix_add(self, other):
    return OperatorMatrix(tuple(old_add(a, b) for a, b in zip(self.columns, other.columns)))


def old_matrix_scale(self, c):
    c = fr(c)
    return OperatorMatrix(tuple(old_scale(col, c) for col in self.columns))


def old_expand(t, q_op, raiser):
    """(coefficients, reassembled columns) of T = sum q_n(raiser) Q^n."""
    bound = t.bound
    r_powers = [identity_operator(bound)]
    for _ in range(bound):
        r_powers.append(old_compose(raiser, r_powers[-1]))
    ladder = [old_apply(p, ONE) for p in r_powers]
    q_powers = [identity_operator(bound)]
    for _ in range(bound):
        q_powers.append(old_compose(q_op, q_powers[-1]))

    acc = zero_operator(bound)
    coefficients = []
    for j in range(bound + 1):
        rho = old_sub(t.column(j), acc.column(j))
        # expand rho in the triangular ladder {raiser^i 1}
        u = [Fraction(0)] * (bound + 1)
        residue = rho
        for i in range(bound, -1, -1):
            c = residue.coefficient(i)
            if c != 0:
                u[i] = c / ladder[i].coefficient(i)
                residue = old_sub(residue, old_scale(ladder[i], u[i]))
        pivot = old_apply(q_powers[j], Polynomial.monomial(j)).constant_term
        q_j = Polynomial([ui / pivot for ui in u])
        coefficients.append(q_j)
        if not q_j.is_zero():
            step = zero_operator(bound)
            for i, c in enumerate(q_j.coeffs):
                if c != 0:
                    step = old_matrix_add(step, old_matrix_scale(r_powers[i], c))
            acc = old_matrix_add(acc, old_compose(step, q_powers[j]))
    return tuple(coefficients), acc.columns


def same(got, want):
    """Equal coefficient tuples, every coefficient a Fraction."""
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)


nonzero_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda v: v != 0
)
# three in four coefficients are zero, as in the package's weighted shifts
sparse_rationals = st.integers(0, 3).flatmap(
    lambda k: nonzero_rationals if k == 0 else st.just(Fraction(0))
)


def sparse_polynomials(max_degree):
    return st.lists(sparse_rationals, max_size=max_degree + 1).map(Polynomial)


@settings(max_examples=200, deadline=None)
@given(
    p=sparse_polynomials(8),
    q=sparse_polynomials(8),
    low=sparse_polynomials(8),
    c=st.one_of(st.just(Fraction(0)), nonzero_rationals),
)
def test_polynomial_arithmetic_matches_old_kernel(p, q, low, c):
    same(p + q, old_add(p, q))
    same(-p, old_neg(p))
    same(p - q, old_sub(p, q))
    same(p.scale(c), old_scale(p, c))
    same(p * q, old_mul(p, q))
    same(p * c, old_scale(p, c))
    # cancellations that must trim the top coefficient
    low = low.truncate(p.degree - 1)
    cancel = old_add(old_neg(p), low)
    same(p + cancel, old_add(p, cancel))
    assert (p + cancel).coeffs == low.coeffs
    same(p - p, ZERO)
    same(p + (-p), old_add(p, old_neg(p)))


@st.composite
def operator_cases(draw):
    """A custom family, a delta series on it, an operator to expand and a
    polynomial to apply, all sparse and at a small degree."""
    degree = draw(st.integers(2, 6))
    bound = degree + 1
    seq = AdmissibleSequence.custom(
        draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound)), bound
    )
    tail = draw(st.lists(sparse_rationals, max_size=degree - 1))
    series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    t = OperatorMatrix(
        tuple(draw(sparse_polynomials(degree)) for _ in range(degree + 1))
    )
    return seq, series, t, draw(sparse_polynomials(degree))


@settings(max_examples=40, deadline=None)
@given(case=operator_cases())
def test_operator_kernels_match_old_kernel(case):
    seq, series, t, p = case
    degree = t.bound
    lowerings = (psi_derivative(seq, degree), realize_delta_series(series, degree))
    raisers = (xhat_psi(seq, degree), multiplication_x(degree))
    for m in lowerings + raisers + (t,):
        same(m.apply(p), old_apply(m, p))
    for q_op in lowerings:
        for raiser in raisers:
            got = expand_in_dual_pair(t, q_op, raiser)
            coefficients, columns = old_expand(t, q_op, raiser)
            for new, old in zip(got.coefficients + got.reassembled.columns,
                                coefficients + columns, strict=True):
                same(new, old)
            assert got.reassembled.columns == t.columns


# -- series in the lowering operator -------------------------------------------


def old_realize_delta_series(s, bound):
    """Matrix of sum_k c_k Q^k with Q the family lowering operator."""
    seq = s.base
    cols = []
    for j in range(bound + 1):
        coeffs = [Fraction(0)] * (j + 1)
        for k in range(min(s.order, j) + 1):
            c = s.coefficient(k)
            if c != 0:
                coeffs[j - k] += c * seq.falling_factorial(j, k)
        cols.append(Polynomial(coeffs))
    return OperatorMatrix(tuple(cols))


def old_closed_form_routes(q_series, bound):
    q_series.require_delta()
    seq = q_series.base
    order = q_series.order
    s_coeffs = list(q_series.shift_down().coeffs)  # s(t), invertible
    s_inv = series_inverse(s_coeffs, order)
    qprime = q_series.formal_derivative()
    qprime_inv = series_inverse(qprime.coeffs, order)

    raiser = xhat_psi(seq, bound)

    def realize(coeffs):
        return old_realize_delta_series(DeltaSeries.from_list(seq, coeffs, order), bound)

    qprime_op = realize(qprime.coeffs)
    qprime_inv_op = realize(qprime_inv)

    # s^{-k} series, k = 0..bound+1
    s_inv_powers = [series_pad([1], order)]
    for _ in range(bound + 1):
        s_inv_powers.append(series_mul(s_inv_powers[-1], s_inv, order))

    prefactor, corrected, raising, iterative = [ONE], [ONE], [ONE], [ONE]
    for n in range(1, bound + 1):
        xn = Polynomial.monomial(n)
        xnm1 = Polynomial.monomial(n - 1)
        weight = seq.n_psi(n) / Fraction(n)

        route1 = qprime_op.apply(realize(s_inv_powers[n + 1]).apply(xn))
        prefactor.append(route1)

        s_inv_n = s_inv_powers[n]
        route2 = realize(s_inv_n).apply(xn) - realize(
            series_derivative(s_inv_n, order)
        ).apply(xnm1).scale(weight)
        corrected.append(route2)

        route3 = raiser.apply(realize(s_inv_n).apply(xnm1)).scale(weight)
        raising.append(route3)

        route4 = raiser.apply(qprime_inv_op.apply(iterative[-1])).scale(weight)
        iterative.append(route4)

    return {
        "prefactor": SequenceTable(tuple(prefactor)),
        "corrected_power": SequenceTable(tuple(corrected)),
        "raising": SequenceTable(tuple(raising)),
        "iterative": SequenceTable(tuple(iterative)),
    }


def old_inner_product(sheffer, f, g):
    coords = coordinates_in_table(sheffer.table, f)
    s_op = old_realize_delta_series(sheffer.s_series, sheffer.bound)
    vec = s_op.apply(g)
    total = Fraction(0)
    for n, c in enumerate(coords):
        if c != 0:
            total += c * vec.constant_term
        vec = sheffer.q_op.apply(vec) if n < sheffer.bound else vec
    return total


def old_orthogonality_report(sheffer, kmax=None):
    kmax = sheffer.bound if kmax is None else kmax
    seq = sheffer.seq
    for k in range(kmax + 1):
        for n in range(kmax + 1):
            value = old_inner_product(sheffer, sheffer[k], sheffer[n])
            expected = seq.factorial(n) if n == k else Fraction(0)
            if value != expected:
                return {
                    "passed": False,
                    "witness": {"k": k, "n": n, "got": str(value), "expected": str(expected)},
                }
    return {"passed": True, "kmax": kmax}


def same_columns(got, want):
    for new, old in zip(got.columns, want.columns, strict=True):
        same(new, old)


mixed_rationals = st.one_of(sparse_rationals, nonzero_rationals)


@st.composite
def series_cases(draw):
    """A custom family; a delta series q and an invertible series s on it,
    each of an order up to the degree; two polynomials of degree at most the
    degree; a pairing range kmax; and a position m of s to perturb."""
    degree = draw(st.integers(2, 6))
    bound = degree + 1
    seq = AdmissibleSequence.custom(
        draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound)), bound
    )

    def series(head):
        order = draw(st.integers(1, degree))
        tail = draw(st.lists(mixed_rationals, max_size=order))
        return DeltaSeries.from_list(seq, head + tail, order)

    q = series([0, draw(nonzero_rationals)])
    s = series([draw(nonzero_rationals)])
    polys = st.lists(mixed_rationals, max_size=degree + 1).map(Polynomial)
    return (
        seq, degree, q, s, draw(polys), draw(polys),
        draw(st.integers(0, degree)), draw(st.integers(1, s.order)),
    )


@settings(max_examples=60, deadline=None)
@given(case=series_cases())
def test_series_action_matches_old_realisation(case):
    seq, degree, q, s, p, _, _, _ = case
    for series in (q, s, q.formal_derivative(), s.multiplicative_inverse()):
        old = old_realize_delta_series(series, degree)
        same_columns(realize_delta_series(series, degree), old)
        same(apply_delta_series(series, p), old.apply(p))
    # the old routes are exact only on a series read at the degree
    at_degree = DeltaSeries.from_list(seq, q.coeffs, degree)
    got, want = closed_form_routes(q, degree), old_closed_form_routes(at_degree, degree)
    assert list(got) == list(want)
    for name in want:
        for new, old in zip(got[name], want[name], strict=True):
            same(new, old)


@settings(max_examples=40, deadline=None)
@given(case=series_cases())
def test_sheffer_tables_and_pairings_match_old_realisation(case):
    seq, degree, q, s, f, g, kmax, m = case
    sheffer = sheffer_sequence(q, s, degree)
    # the reference reads S at the degree, where the old realisation is exact
    s_at_degree = DeltaSeries.from_list(seq, s.coeffs, degree)
    s_inv_op = old_realize_delta_series(s_at_degree.multiplicative_inverse(), degree)
    moved = sheffer_product_shift(sheffer, s)
    for n in range(degree + 1):
        same(sheffer[n], s_inv_op.apply(sheffer.basic[n]))
        same(moved[n], s_inv_op.apply(sheffer[n]))

    log_prime = s_at_degree.formal_log_reduced().formal_derivative()
    log_prime_op = old_realize_delta_series(log_prime, degree)
    u_values = spectral_operator(sheffer).u_values
    for k, u_k in enumerate(u_values, 1):
        lowered = xhat_psi_inverse(seq, sheffer.basic[k])
        assert u_k == -log_prime_op.apply(lowered).constant_term
        assert type(u_k) is Fraction

    # a pairing that fails: S perturbed at t^m after the table was built
    coeffs = list(s.coeffs)
    coeffs[m] += 1
    broken = dataclasses.replace(sheffer, s_series=DeltaSeries(seq, coeffs))
    # and one whose lowering operator is swapped, so row k = 0 still holds
    # and the scan order decides the witness
    other_basic = sheffer_sequence(q.multiply(s), s, degree).basic
    swapped = dataclasses.replace(sheffer, basic=other_basic)
    reports = []
    for pairing in (sheffer, broken, swapped):
        value = inner_product(pairing, f, g)
        assert value == old_inner_product(pairing, f, g)
        assert type(value) is Fraction
        reports.append(orthogonality_report(pairing, kmax))
        assert reports[-1] == old_orthogonality_report(pairing, kmax)
    assert reports[0] == {"passed": True, "kmax": kmax}
    # the perturbation first shows at (k, n) = (0, m)
    if kmax >= m:
        assert reports[1]["witness"]["k"] == 0 and reports[1]["witness"]["n"] == m
    else:
        assert reports[1]["passed"]


@settings(max_examples=40, deadline=None)
@given(case=series_cases())
def test_series_action_is_conjugate_to_the_classical_one(case):
    seq, degree, q, s, _, _, _, _ = case
    classical = AdmissibleSequence.classical(seq.bound)
    weights = [seq.factorial(n) / math.factorial(n) for n in range(degree + 1)]
    d = OperatorMatrix(tuple(Polynomial.monomial(n, w) for n, w in enumerate(weights)))
    d_inv = OperatorMatrix(tuple(Polynomial.monomial(n, 1 / w) for n, w in enumerate(weights)))
    derivative = psi_derivative(classical, degree)
    assert d_inv.compose(derivative).compose(d).columns == psi_derivative(seq, degree).columns
    for series in (q, s, s.multiplicative_inverse()):
        on_classical = realize_delta_series(DeltaSeries(classical, series.coeffs), degree)
        want = d_inv.compose(on_classical).compose(d)
        same_columns(realize_delta_series(series, degree), want)
