"""Differential test of the zero-skipping exact kernel against the old one.

The `old_*` functions below are the dense loops that `Polynomial.__add__`,
`__neg__`, `scale`, `__mul__`, `OperatorMatrix.apply` and
`expand_in_dual_pair` used to run, kept verbatim except that methods became
functions and the old operations call each other instead of the library's.
They build every result through the public `Polynomial` constructor, which
coerces and trims, so they are an independent route to the same values.
The new kernel must give equal coefficient tuples made only of `Fraction`s.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbralcalc.operators import (
    OperatorMatrix,
    expand_in_dual_pair,
    identity_operator,
    multiplication_x,
    psi_derivative,
    realize_delta_series,
    xhat_psi,
    zero_operator,
)
from umbralcalc.poly import ONE, ZERO, Polynomial, fr
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.series import DeltaSeries


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
