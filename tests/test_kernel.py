"""Differential tests of the exact kernel against the code it replaced.

The `old_*` functions below are the dense loops that `Polynomial.__add__`,
`__neg__`, `scale`, `__mul__`, `OperatorMatrix.apply` and
`expand_in_dual_pair` used to run, kept verbatim except that methods became
functions and the old operations call each other instead of the library's.
They build every result through the public `Polynomial` constructor, which
coerces and trims, so they are an independent route to the same values.
The new kernel must give equal coefficient tuples made only of `Fraction`s.

A truncated series is one `Polynomial`, and each `DeltaSeries` operation
must give the coefficients of the Fraction-list kernel it replaced, kept
below as the `old_series_*` functions.

The same holds for series in the lowering operator: `old_realize_delta_series`
is the column-by-column realisation that every series went through before
`apply_delta_series` applied them directly, and `old_closed_form_routes`,
`old_inner_product` and `old_orthogonality_report` are the routes and the
pairing as they were, each realising its series through it and reading
every series operation from the `old_series_*` kernels.

Then an oracle that shares no code path with the series action: the
diagonal map D: x^n -> (n_psi!/n!) x^n carries d/dx to the graded derivative
Q, so every series f(Q) is D^-1 f(d/dx) D, and x to the dual raiser xhat_psi.

Then every operator matrix is built from its action on the monomials: the
`old_*` builders of that section are the column loops and dense matrix
chains that did it before, and the new builders must return the same
columns, or raise the same exception with the same message.

Then a polynomial is integer numerators over one denominator and the kernel
runs on the integers: the `old_*` functions of that section are the
Fraction-list kernel it replaced. Every polynomial a test compares must be in
the canonical form, with coefficients that are canonical `Fraction`s.

Then the addition rule and the series action read their operands in the
divided powers x^j / j_psi!: the check must give the verdicts of the
Fraction kernel cell for cell and the reports of the binom_psi-weighted rule
it replaced, and the action what one shifted polynomial per series term
gave. Closed-form classical tables, the lower factorials, the Abel
polynomials and the Laguerre table, carried over by D, must be the solved
basic tables.

Then the normal orderings of the (Q, xhat) pair are read in the pair's
rescaled basis: `old_suite_weyl` and `old_raiser_power_lowering` are the
matrix-product routes they replaced, and every family's `weyl` records must
also be the classical family's.

Then an expansion over two weighted shifts is one series division per
column in their rescaled basis: it must give what `old_expand` gives on
random shift pairs and near-shifts, or the ladder's error, and for the
family pairs the closed forms q(y) = T^(y) exp(-xy) with xhat and
q(y) = T^(y) / exp_psi(xy) with x, which read no raised sum. Solved and
reassembled on integer numerators, it must also give what
`old_expand_over_shifts`, the division on Fractions it replaced, gives on
family pairs up to N = 24, or raise the same error.

Last, a basic table of a series is solved on the divided powers and the
addition rule is decided on its chain cells while every lower degree holds:
`old_basic_sequence_from_series` (realise the series, then the triangular
solve) and `old_divided_addition_rule` (every cell of every degree) are the
routes they replaced, verbatim except for their names.

Then the basic and Sheffer tables of a series keep the divided-power rows
they are built from, and the addition rule reads them for the family object
that built them: `old_row_basic_sequence_from_series`,
`old_row_sheffer_sequence` and `old_converting_addition_rule` are the
routes that converted every entry instead, and the rows must be the
entries converted. The constructor takes a list of plain ints as it is:
it must give what the Fraction route gave, or the same error.

Last, the addition rule decides its verdict on the cells and forms the
witness once, and an expansion over a series lowering q(Q) is recomposed
from the expansion over Q: the reports must be those of
`old_divided_addition_rule` and `old_converting_addition_rule`, and the
coefficients and reassembly those of `old_matrix_route_expand`, the raiser
ladder route every series lowering took before.

Then every conversion between monomials and divided powers reads the
family's factorials as integers over one lcm, and a series product is cut at
the order as it is formed: each rewritten site must give what the Fraction
route or the whole product it replaced gives, kept as the `old_*` functions
of the last section, on custom families of random signed rationals and
q-deformed ones with q in +-{2, 1/2, 3/2, 2/3}, up to N = 24.

Then every change of basis reads one inverse per table, the coordinates of
the monomials built by forward substitution: coordinates, umbral operators
and eigenseries, and their errors, must be those of the `old_bareiss_*`
functions, one fraction-free solve per polynomial, on random triangular
tables and on the roster's basic and Sheffer tables up to N = 24.

Last, the lowering relation Q p_n = n_psi p_(n-1) is checked by one search,
`lowering_failures`, and the Sheffer and transport checks are witness
searches: on the roster's basic and Sheffer tables up to N = 12, and on
copies with one or two entries moved, each search must yield no witness
exactly when the report of `old_verify_sheffer_definition`,
`old_verify_inverse_reconstruction`, `old_generating_function_check` or
`old_verify_conjugation_transport` passed, and otherwise first the old
witness; `dual_operator` must raise what `old_verify_basic_for` raised,
at the same entry.

Last, the expansion over a raiser that is not a weighted shift stepping up,
or a lowering that is neither a weighted shift nor a series operator, reads
the orbits raiser^i x^m and Q^j x^k instead of whole power ladders:
`_expand_over_ladder` must give the coefficients and reassembly of
`old_matrix_route_expand`, or raise the same error and message.

Then nothing is built that no caller reads: the deformed bracket is applied
to each basic entry without its matrix, the raising route of the weighted
family applies two polynomials in the raiser, and `indicator` returns its
verdict alone. `old_mutator_failures`, `old_poisson_raising_route` and
`old_indicator` are the routes they replaced, verbatim except for their
names: the witnesses, the families and the verdicts must be theirs, on the
roster up to N = 12.

Last, an operator given by weights on a table's entries is that weighted
shift conjugated to the table, `table_conjugate`, and the dilation and the
identity are diagonal shifts: the dual and shift raisers, qhat, the
definitional spectral operator and the certificate's induced lowering must
give the columns of the `old_*` image lists they replaced on the roster's
basic and Sheffer tables up to N = 16, the dilation those of `old_dilate`,
and every lowering Q must be the graded derivative conjugated to its basic
table, Q = Phi d_psi Phi^-1.

Then a table built from its rows forms its entries on first read:
`old_eager_table_of_rows` is the eager conversion it replaced, verbatim
except for its name, and the entries read must be its entries; the
accepted addition checks must form none, nor any factorial table. And `fr`
reads plain integers and quotients with int(): `old_fr_text`, which parsed
every string with Fraction, must give the same value or the same refusal.
"""

import dataclasses
import math
import random
from contextlib import ExitStack
from fractions import Fraction
from itertools import accumulate, groupby
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from umbralcalc import cli, harness, operators, psi, sequences, spectral
from umbralcalc.errors import (
    BadParameterError,
    BasisMismatchError,
    DegreeOverflowError,
    NotDeltaError,
    NotInvertibleError,
    SingularOperatorError,
    UmbralError,
    UndefinedIndexError,
    WrongFamilyError,
)
from umbralcalc.integration import IntegralOperator
from umbralcalc.operators import (
    ExpansionResult,
    OperatorMatrix,
    WeightedShift,
    apply_delta_series,
    commutator,
    dilation,
    divided_difference,
    dual_operator,
    eigen_series,
    expand_in_dual_pair,
    forward_difference,
    from_action,
    generalized_shift,
    identity_operator,
    jackson_operator,
    lowering_failures,
    indicator,
    multiplication_x,
    nhat_diagonal,
    operator_polynomial,
    psi_derivative,
    realize_delta_series,
    require_lowers_by_one,
    table_conjugate,
    umbral_operator,
    weighted_shift,
    xhat_psi,
    zero_operator,
)
from umbralcalc.poly import (
    ONE,
    X,
    ZERO,
    Polynomial,
    SequenceTable,
    _canonical,
    _combine,
    _convolve,
    _diagonal,
    _product,
    _running_products,
    _shift_down,
    coordinates_in_table,
    fr,
    parse_polynomial,
)
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import (
    CheckReport,
    basic_sequence,
    basic_sequence_from_series,
    closed_form_routes,
    default_shift_samples,
    generating_function_failures,
    inverse_reconstruction_failures,
    reconstruct_inverse_series,
    sheffer_sequence,
    verify_binomial_type,
    verify_sheffer_binomial,
)
from umbralcalc.series import DeltaSeries
from umbralcalc.spectral import (
    conjugation_transport_failures,
    inner_product,
    mutator_failures,
    orthogonality_failures,
    qhat_operator,
    shift_raiser,
    spectral_operator,
    transport_pincherle_window,
)
from umbralcalc.star import StarContext, poisson_raising_route


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
    if not self or not other:
        return ZERO
    out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(other.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def old_diagonal(p: Polynomial, weights) -> Polynomial:
    """`poly._diagonal` before it read integer tables, verbatim except for
    its name: sum_i weights[i] p_i x^i; `weights[i]` is a Fraction or an int
    and is read only where p_i is nonzero."""
    pairs = list(zip(p.nums, weights))
    den = math.lcm(*[w.denominator for a, w in pairs if a])
    out = [a * w.numerator * (den // w.denominator) if a else 0 for a, w in pairs]
    return _canonical(out, p.den * den)


def old_factorials(seq) -> tuple:
    """The Fraction table `seq._factorials` that `factorial` and `binomial`
    read before the integer table, verbatim except for its name: n_psi!,
    n = 0..bound."""
    return tuple([Fraction(n, d) for n, d in _running_products(seq.values[1:])])


def inverse_factorials(seq) -> tuple:
    """The Fraction table `seq._inverse_factorials` that the integer tables
    replaced: t[n] = 1 / n_psi!, n = 0..bound."""
    return tuple([1 / f for f in old_factorials(seq)])


def old_xhat_psi_inverse(seq, p):
    """`spectral.xhat_psi_inverse`, the inverse raising that the weighted
    shift replaced, verbatim except that its guard asserts."""
    assert p.constant_term == 0, "inverse raising needs a zero constant term"
    weights = [0] + [seq.n_psi(j) / j for j in range(1, len(p.nums))]
    return _shift_down(_diagonal(p, Polynomial(weights)), 1)


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
        rho = old_sub(t.columns[j], acc.columns[j])
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
        if q_j:
            step = zero_operator(bound)
            for i, c in enumerate(q_j.coeffs):
                if c != 0:
                    step = old_matrix_add(step, old_matrix_scale(r_powers[i], c))
            acc = old_matrix_add(acc, old_compose(step, q_powers[j]))
    return tuple(coefficients), acc.columns


def canonical(p):
    """Integer numerators over a positive denominator with no common factor
    and no trailing zero, and coefficients that are those canonical
    Fractions."""
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int for v in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == tuple(Fraction(v, p.den) for v in p.nums)


def same(got, want):
    """Equal coefficient tuples, every coefficient a Fraction, and the
    result in canonical form."""
    assert got.coeffs == want.coeffs
    canonical(got)


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


# -- truncated series -------------------------------------------------------------
#
# The `old_series_*` functions are the Fraction-list kernels that a series ran
# on before it became one truncated `Polynomial`, verbatim except for their
# names and type annotations: coefficient lists c[0..order], low order first,
# padded to full length.


def old_series_pad(coeffs, order):
    out = [fr(c) for c in coeffs[: order + 1]]
    out += [Fraction(0)] * (order + 1 - len(out))
    return out


def old_series_mul(a, b, order):
    a, b = old_series_pad(a, order), old_series_pad(b, order)
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def old_series_inverse(a, order):
    """Multiplicative inverse; requires a[0] != 0."""
    a = old_series_pad(a, order)
    if a[0] == 0:
        raise NotInvertibleError("series has zero constant term")
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / a[0]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * out[k - i]
        out[k] = -acc / a[0]
    return out


def old_series_compose(outer, inner, order):
    """outer(inner(t)); requires inner[0] == 0 for a well defined truncation."""
    inner = old_series_pad(inner, order)
    if inner[0] != 0:
        raise NotDeltaError("inner series must have zero constant term")
    out = [Fraction(0)] * (order + 1)
    power = old_series_pad([1], order)
    for k, c in enumerate(old_series_pad(outer, order)):
        if c != 0:
            for i in range(order + 1):
                if power[i]:
                    out[i] += c * power[i]
        if k < order:
            power = old_series_mul(power, inner, order)
    return out


def old_series_derivative(a, order):
    a = old_series_pad(a, order)
    return old_series_pad([i * a[i] for i in range(1, order + 1)], order)


def old_series_compositional_inverse(a, order):
    """Series g with a(g(t)) = t + O(t^{order+1}); needs a delta shape."""
    a = old_series_pad(a, order)
    if a[0] != 0 or len(a) < 2 or a[1] == 0:
        raise NotDeltaError("compositional inverse needs c0 = 0 and c1 != 0")
    g = [Fraction(0)] * (order + 1)
    if order >= 1:
        g[1] = 1 / a[1]
    for k in range(2, order + 1):
        # coefficient of t^k in a(g) with g[k] unknown is a[1]*g[k] + known
        partial = old_series_compose(a, g, k)
        g[k] = -partial[k] / a[1]
    return g


def old_series_log_reduced(a, order):
    """log(a / a[0]) as a zero-constant series; requires a[0] != 0."""
    a = old_series_pad(a, order)
    if a[0] == 0:
        raise NotInvertibleError("logarithm needs a nonzero constant term")
    rest = [Fraction(0)] + [c / a[0] for c in a[1:]]
    out = [Fraction(0)] * (order + 1)
    power = old_series_pad([1], order)
    for k in range(1, order + 1):
        power = old_series_mul(power, rest, order)
        sign = Fraction(1 if k % 2 == 1 else -1, k)
        for i in range(order + 1):
            if power[i]:
                out[i] += sign * power[i]
    return out


def same_series(got, want):
    """A series whose coefficients are the list `want`, made of Fractions,
    held as a canonical polynomial with no term above its order."""
    assert got.coeffs == tuple(want)
    assert all(type(c) is Fraction for c in got.coeffs)
    canonical(got.polynomial)
    assert got.polynomial.degree <= got.order == len(want) - 1


SERIES_BASE = AdmissibleSequence.classical(16)


@st.composite
def kernel_series(draw):
    """An order from 1 to 16 and three coefficient lists of at most that
    order, sparse or dense: an invertible one, a delta one and a free one."""
    order = draw(st.integers(1, 16))
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))

    def coeffs(head):
        return head + draw(st.lists(entries, max_size=order + 1 - len(head)))

    return order, coeffs([draw(nonzero_rationals)]), coeffs([0, draw(nonzero_rationals)]), coeffs([])


@settings(max_examples=80, deadline=None)
@given(case=kernel_series())
def test_series_operations_match_list_kernels(case):
    order, unit, delta, free = case
    a, g, f = (DeltaSeries.from_list(SERIES_BASE, cs, order) for cs in (unit, delta, free))
    for series, cs in ((a, unit), (g, delta), (f, free)):
        same_series(series, old_series_pad(cs, order))
        same_series(f.multiply(series), old_series_mul(free, cs, order))
        same_series(series.formal_derivative(), old_series_derivative(cs, order))
        same_series(series.compose(g), old_series_compose(cs, delta, order))
    # a factor of a lower order is read as zero above it
    lower = DeltaSeries.from_list(SERIES_BASE, delta, len(delta) - 1)
    same_series(f.multiply(lower), old_series_mul(free, delta, order))
    same_series(a.multiplicative_inverse(), old_series_inverse(unit, order))
    inverse = g.compositional_inverse()
    same_series(inverse, old_series_compositional_inverse(delta, order))
    # (log a)' = a'/a below the top term, which the truncation leaves unknown
    log_prime = old_series_derivative(old_series_log_reduced(unit, order), order)
    got = a.formal_derivative().multiply(a.multiplicative_inverse())
    assert got.coeffs[:order] == tuple(log_prime[:order])
    # the compositional inverse is two-sided, checked by composition alone
    t = DeltaSeries.from_list(SERIES_BASE, [0, 1], order)
    assert g.compose(inverse) == t
    assert inverse.compose(g) == t


RECIPROCAL_BASE = AdmissibleSequence.classical(64)


@st.composite
def reciprocal_cases(draw):
    """An order from 0 to 64, and a coefficient list of at most that order,
    sparse or dense, led by a nonzero rational that is not +-1 as often as
    not, of either sign."""
    order = draw(st.integers(0, 64))
    lead = draw(st.one_of(st.sampled_from([1, -1]), signed_rationals.filter(lambda v: abs(v) != 1)))
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))
    return order, [Fraction(lead)] + draw(st.lists(entries, max_size=order))


@settings(max_examples=60, deadline=None)
@given(case=reciprocal_cases())
def test_fraction_free_reciprocal_matches_the_list_kernel_up_to_order_64(case):
    """The one-pass integer recurrence gives the Fraction recurrence's
    coefficients, and a a^-1 = 1 at the order."""
    order, unit = case
    a = DeltaSeries.from_list(RECIPROCAL_BASE, unit, order)
    inverse = a.multiplicative_inverse()
    same_series(inverse, old_series_inverse(unit, order))
    assert a.multiply(inverse) == DeltaSeries.from_list(RECIPROCAL_BASE, [1], order)


@pytest.mark.parametrize("lead", [Fraction(7, 2), Fraction(-7, 2), Fraction(-5, 3), 3, -2])
@pytest.mark.parametrize("order", [0, 1, 2, 12, 63, 64])
def test_fraction_free_reciprocal_at_non_unit_leads(lead, order):
    """Leads of either sign with either parity of the order, where the sign
    of alpha_0^(order+1) flips."""
    unit = [lead, 1, Fraction(1, 3), 0, Fraction(-5, 3), Fraction(1, 2)]
    a = DeltaSeries.from_list(RECIPROCAL_BASE, unit, order)
    inverse = a.multiplicative_inverse()
    same_series(inverse, old_series_inverse(unit, order))
    assert a.multiply(inverse) == DeltaSeries.from_list(RECIPROCAL_BASE, [1], order)


@settings(max_examples=60, deadline=None)
@given(case=kernel_series(), reread=st.integers(-1, 24))
def test_series_read_at_another_order_is_the_list_rebuild(case, reread):
    """`at_order` and `from_polynomial` read a series at a lower order (cut)
    or a higher one (zero-padded) as `from_list` does from its coefficients."""
    order, unit, delta, free = case
    for cs in (unit, delta, free):
        series = DeltaSeries.from_list(SERIES_BASE, cs, order)
        want = DeltaSeries.from_list(SERIES_BASE, series.coeffs, reread)
        for got in (series.at_order(reread),
                    DeltaSeries.from_polynomial(SERIES_BASE, series.polynomial, reread)):
            assert got == want
            same_series(got, list(want.coeffs))


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
                coeffs[j - k] += c * seq.factorial(j) / seq.factorial(j - k)
        cols.append(Polynomial(coeffs))
    return OperatorMatrix(tuple(cols))


def old_closed_form_routes(q_series, bound):
    q_series.require_delta()
    seq = q_series.base
    order = q_series.order
    s_coeffs = list(q_series.coeffs[1:])  # s(t), invertible
    s_inv = old_series_inverse(s_coeffs, order)
    qprime = old_series_derivative(q_series.coeffs, order)
    qprime_inv = old_series_inverse(qprime, order)

    raiser = xhat_psi(seq, bound)

    def realize(coeffs):
        return old_realize_delta_series(DeltaSeries.from_list(seq, coeffs, order), bound)

    qprime_op = realize(qprime)
    qprime_inv_op = realize(qprime_inv)

    # s^{-k} series, k = 0..bound+1
    s_inv_powers = [old_series_pad([1], order)]
    for _ in range(bound + 1):
        s_inv_powers.append(old_series_mul(s_inv_powers[-1], s_inv, order))

    prefactor, corrected, raising, iterative = [ONE], [ONE], [ONE], [ONE]
    for n in range(1, bound + 1):
        xn = Polynomial.monomial(n)
        xnm1 = Polynomial.monomial(n - 1)
        weight = seq.n_psi(n) / Fraction(n)

        route1 = qprime_op.apply(realize(s_inv_powers[n + 1]).apply(xn))
        prefactor.append(route1)

        s_inv_n = s_inv_powers[n]
        route2 = realize(s_inv_n).apply(xn) - realize(
            old_series_derivative(s_inv_n, order)
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
            value = old_inner_product(sheffer, sheffer.table[k], sheffer.table[n])
            expected = seq.factorial(n) if n == k else Fraction(0)
            if value != expected:
                return {
                    "passed": False,
                    "witness": {"k": k, "n": n, "got": str(value), "expected": str(expected)},
                }
    return {"passed": True, "kmax": kmax}


def old_printed_divergence(sheffer, u_values):
    """The first order at which the printed recipe, built on these u_k,
    differs from the expansion of the definitional operator over Q in
    multiplication form; None when every order agrees."""
    seq, basic, bound = sheffer.seq, sheffer.basic, sheffer.bound
    definitional = spectral_operator(sheffer).definitional
    expansion = expand_in_dual_pair(definitional, sheffer.q_op, multiplication_x(bound))
    terms = [Polynomial()] + [
        Polynomial([u_k, basic.table[k].derivative().constant_term / seq.n_psi(1)]).scale(
            1 / seq.factorial(k - 1))
        for k, u_k in enumerate(u_values, 1)
    ]
    return next((k for k, t in enumerate(terms) if expansion.coefficients[k] != t), None)


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
    s_inv = old_series_inverse(s.coeffs, degree)
    s_inv_op = old_realize_delta_series(DeltaSeries.from_list(seq, s_inv, len(s_inv) - 1), degree)
    # the orbit move S^-1 read in the table's family at the degree
    s_at_degree = DeltaSeries.from_list(sheffer.seq, s.coeffs, degree)
    moved = [apply_delta_series(s_at_degree.multiplicative_inverse(), p) for p in sheffer.table]
    for n in range(degree + 1):
        same(sheffer.table[n], s_inv_op.apply(sheffer.basic.table[n]))
        same(moved[n], s_inv_op.apply(sheffer.table[n]))

    log_prime = old_series_derivative(old_series_log_reduced(s.coeffs, degree), degree)
    log_prime_op = old_realize_delta_series(
        DeltaSeries.from_list(seq, log_prime, len(log_prime) - 1), degree
    )
    u_values = [-log_prime_op.apply(old_xhat_psi_inverse(seq, sheffer.basic.table[k])).constant_term
                for k in range(1, degree + 1)]
    want = old_printed_divergence(sheffer, u_values)
    assert spectral_operator(sheffer).printed_divergence == want

    # a pairing that fails: S perturbed at t^m after the table was built
    coeffs = list(s.coeffs)
    coeffs[m] += 1
    broken = dataclasses.replace(sheffer, s_series=DeltaSeries.from_list(seq, coeffs, s.order))
    # and one whose lowering operator is swapped, so row k = 0 still holds
    # and the scan order decides the witness
    other_basic = sheffer_sequence(q.multiply(s), s, degree).basic
    swapped = dataclasses.replace(sheffer, basic=other_basic)
    witnesses = []
    for pairing in (sheffer, broken, swapped):
        value = inner_product(pairing, f, g)
        assert value == old_inner_product(pairing, f, g)
        assert type(value) is Fraction
        witnesses.append(next(orthogonality_failures(pairing, kmax), None))
        assert witnesses[-1] == old_orthogonality_report(pairing, kmax).get("witness")
    assert witnesses[0] is None
    # the perturbation first shows at (k, n) = (0, m)
    if kmax >= m:
        assert witnesses[1]["k"] == 0 and witnesses[1]["n"] == m
    else:
        assert witnesses[1] is None


@settings(max_examples=40, deadline=None)
@given(case=series_cases())
def test_series_action_is_conjugate_to_the_classical_one(case):
    seq, degree, q, s, _, _, _, _ = case
    classical = AdmissibleSequence.classical(seq.bound)
    weights = [seq.factorial(n) / math.factorial(n) for n in range(degree + 1)]
    d = OperatorMatrix(tuple(Polynomial.monomial(n, w) for n, w in enumerate(weights)))
    d_inv = OperatorMatrix(tuple(Polynomial.monomial(n, 1 / w) for n, w in enumerate(weights)))
    # d/dx and multiplication by x (top column truncated), built by hand
    derivative = OperatorMatrix(
        (ZERO,) + tuple(Polynomial.monomial(n - 1, n) for n in range(1, degree + 1))
    )
    x = OperatorMatrix(tuple(Polynomial.monomial(n + 1) for n in range(degree)) + (ZERO,))
    same_columns(d_inv.compose(derivative).compose(d), psi_derivative(seq, degree))
    same_columns(d_inv.compose(x).compose(d), xhat_psi(seq, degree))
    for series in (q, s, s.multiplicative_inverse()):
        on_classical = realize_delta_series(
            DeltaSeries.from_list(classical, series.coeffs, series.order), degree
        )
        want = d_inv.compose(on_classical).compose(d)
        same_columns(realize_delta_series(series, degree), want)


# -- operator matrices built from their action -----------------------------------
#
# Every operator matrix is now `from_action` of its action on the monomials,
# and the weighted shifts go through `weighted_shift`. The `old_*` builders
# below are the column loops and matrix chains they replaced, verbatim.
# `realize_delta_series` is left out: `old_realize_delta_series` above
# already checks it column by column. Its one-term series c Q, the divided
# difference and the Jackson derivative are weighted shifts now; their old
# route is `from_action` of the action.


def old_psi_derivative(seq, bound):
    cols = [Polynomial()]
    for j in range(1, bound + 1):
        cols.append(Polynomial.monomial(j - 1, seq.n_psi(j)))
    return OperatorMatrix(tuple(cols))


def old_xhat_psi(seq, bound):
    cols = []
    for j in range(bound):
        cols.append(Polynomial.monomial(j + 1, Fraction(j + 1) / seq.n_psi(j + 1)))
    cols.append(Polynomial())
    return OperatorMatrix(tuple(cols))


def old_multiplication_x(bound):
    cols = [Polynomial.monomial(j + 1) for j in range(bound)]
    cols.append(Polynomial())
    return OperatorMatrix(tuple(cols))


def old_dilation(q, bound):
    q = fr(q)
    return OperatorMatrix(
        tuple(Polynomial.monomial(j, q**j) for j in range(bound + 1))
    )


def old_jackson_operator(q, bound):
    q = fr(q)
    if q == 1:
        raise BadParameterError("jackson derivative undefined at q = 1")
    cols = [Polynomial()]
    for j in range(1, bound + 1):
        cols.append(Polynomial.monomial(j - 1, (1 - q**j) / (1 - q)))
    return OperatorMatrix(tuple(cols))


def old_divided_difference(bound):
    cols = [Polynomial()]
    for j in range(1, bound + 1):
        cols.append(Polynomial.monomial(j - 1))
    return OperatorMatrix(tuple(cols))


def old_forward_difference(bound):
    shifted = Polynomial([1, 1])
    cols = []
    for j in range(bound + 1):
        cols.append(Polynomial.monomial(j).compose(shifted) - Polynomial.monomial(j))
    return OperatorMatrix(tuple(cols))


def old_nhat_diagonal(seq, bound):
    return OperatorMatrix(
        tuple(Polynomial.monomial(j, seq.n_psi(j + 1)) for j in range(bound + 1))
    )


def shift_matrix(seq, y, bound):
    """Matrix of E^y, generalized_shift on each monomial."""
    return from_action(lambda p: generalized_shift(seq, p, y), bound)


def old_generalized_shift_operator(seq, y, bound):
    y = fr(y)
    cols = []
    for j in range(bound + 1):
        coeffs = [Fraction(0)] * (j + 1)
        for k in range(j + 1):
            coeffs[j - k] = seq.binomial(j, k) * y**k
        cols.append(Polynomial(coeffs))
    return OperatorMatrix(tuple(cols))


def old_operator_polynomial(p, m):
    out = zero_operator(m.bound)
    power = old_identity_operator(m.bound)
    for k, c in enumerate(p.coeffs):
        if c != 0:
            out = out.add(power.scale(c))
        if k < p.degree:
            power = m.compose(power)
    return out


def old_identity_operator(bound):
    return OperatorMatrix(tuple(Polynomial.monomial(j) for j in range(bound + 1)))


def old_umbral_operator(source, images):
    cols = []
    for j in range(source.bound + 1):
        coords = old_coordinates_in_table(source, Polynomial.monomial(j))
        cols.append(old_combine(coords, images))
    return OperatorMatrix(tuple(cols))


def old_integral_as_matrix(op):
    cols = []
    for j in range(op.bound):
        cols.append(Polynomial.monomial(j + 1, 1 / op.weights[j]))
    cols.append(Polynomial())  # top column lost to truncation
    return OperatorMatrix(tuple(cols))


def old_r_integral_partner(weights, bound):
    cols = [Polynomial()]
    for n in range(1, bound + 1):
        cols.append(Polynomial.monomial(n - 1, weights[n - 1]))
    return OperatorMatrix(tuple(cols))


def old_spectral_composition(sheffer):
    """S^-1 xhat_Q Q S as dense compositions of realised series."""
    raiser = dual_operator(sheffer.q_op, sheffer.basic.table, sheffer.seq)
    s_op = old_realize_delta_series(sheffer.s_series, sheffer.bound)
    s_inv_op = old_realize_delta_series(sheffer.s_series.multiplicative_inverse(), sheffer.bound)
    return s_inv_op.compose(raiser).compose(sheffer.q_op).compose(s_op)


def old_transport_rhs(seq, l_series, bound):
    """xhat U (l'(Q) - id), with l'(Q) realised and the identity subtracted."""
    basic = basic_sequence_from_series(l_series, bound)
    monomials = SequenceTable(tuple(Polynomial.monomial(i) for i in range(bound + 1)))
    u = old_umbral_operator(basic.table, monomials)
    raiser = old_xhat_psi(seq, bound)
    l_prime_op = old_realize_delta_series(l_series.formal_derivative(), bound)
    return u, raiser, raiser.compose(u).compose(
        l_prime_op.subtract(old_identity_operator(bound))
    )


def old_realize_one_term(s, bound):
    return from_action(lambda p: apply_delta_series(s, p), bound)


def same_shift(op):
    """`op` is a `WeightedShift` whose step and weights give its columns, and
    it compares and hashes as the plain matrix of those columns."""
    assert isinstance(op, WeightedShift)
    for j, (col, w) in enumerate(zip(op.columns, op.weights, strict=True)):
        assert type(w) is Fraction
        assert col == (Polynomial.monomial(j + op.step, w) if w else ZERO), (j, w)
    plain = OperatorMatrix(op.columns)
    assert op == plain and plain == op and hash(op) == hash(plain)
    assert op != OperatorMatrix(op.columns[:-1] + (op.columns[-1] + ONE,))


def outcome(build, *args):
    """("columns", the columns `build(*args)` returns) or ("raises", the
    exception type, its message)."""
    try:
        return "columns", build(*args).columns
    except UmbralError as exc:
        return "raises", type(exc), str(exc)


def same_outcome(new, old):
    """Equal columns made of Fractions, or the same exception and message."""
    assert new[0] == old[0], (new, old)
    if old[0] == "raises":
        assert new == old
    else:
        for got, want in zip(new[1], old[1], strict=True):
            same(got, want)


# a q that is malformed, 1 (the Jackson pole), 0, -1 or a plain rational
q_values = st.one_of(
    st.sampled_from(["abc", "1/0", 1.5, True, 1, 0, -1]),
    nonzero_rationals,
    nonzero_rationals.map(str),
)


@st.composite
def action_cases(draw):
    """A bound; a custom family on it, one short of it or one past it (a
    family exactly `bound` long has no (bound + 1)_psi); a q; a shift y;
    polynomials, among them the zero and constant ones; an operator; and a
    triangular table with images."""
    bound = draw(st.integers(1, 10))
    family_bound = draw(st.integers(max(bound - 1, 1), bound + 1))
    seq = AdmissibleSequence.custom(
        draw(st.lists(nonzero_rationals, min_size=family_bound, max_size=family_bound)),
        family_bound,
    )
    polys = st.one_of(
        st.just(ZERO),
        nonzero_rationals.map(lambda c: Polynomial([c])),
        st.lists(mixed_rationals, max_size=5).map(Polynomial),
    )
    m = OperatorMatrix(tuple(draw(sparse_polynomials(bound)) for _ in range(bound + 1)))
    # entry n: column n of m below degree n, plus a nonzero x^n term
    leads = draw(st.lists(nonzero_rationals, min_size=bound + 1, max_size=bound + 1))
    entries = [
        m.columns[n].truncate(n - 1) + Polynomial.monomial(n, lead) for n, lead in enumerate(leads)
    ]
    images = [draw(sparse_polynomials(bound)) for _ in range(bound + 1)]
    return (
        bound, seq, draw(q_values), draw(mixed_rationals), draw(polys), draw(polys), m,
        SequenceTable(tuple(entries)), images,
    )


@settings(max_examples=60, deadline=None)
@given(case=action_cases())
def test_operators_from_their_action_match_old_column_loops(case):
    bound, seq, q, y, p, f, m, source, images = case
    pairs = [
        (psi_derivative, old_psi_derivative, (seq, bound)),
        (xhat_psi, old_xhat_psi, (seq, bound)),
        (nhat_diagonal, old_nhat_diagonal, (seq, bound)),
        (shift_matrix, old_generalized_shift_operator, (seq, y, bound)),
        (multiplication_x, old_multiplication_x, (bound,)),
        (dilation, old_dilation, (q, bound)),
        (jackson_operator, old_jackson_operator, (q, bound)),
        (divided_difference, old_divided_difference, (bound,)),
        (forward_difference, old_forward_difference, (bound,)),
        (identity_operator, old_identity_operator, (bound,)),
        (operator_polynomial, old_operator_polynomial, (p, m)),
        (operator_polynomial, old_operator_polynomial, (f, old_psi_derivative(seq, seq.bound))),
        (umbral_operator, old_umbral_operator, (source, images)),
        (realize_delta_series, old_realize_one_term,
         (DeltaSeries.from_list(seq, [0, y], 1), bound)),
    ]
    for new, old, args in pairs:
        same_outcome(outcome(new, *args), outcome(old, *args))
    shifts = {psi_derivative, xhat_psi, nhat_diagonal, multiplication_x, dilation,
              jackson_operator, divided_difference, identity_operator}
    for new, _, args in pairs:
        if new in shifts and outcome(new, *args)[0] == "columns":
            same_shift(new(*args))
    if y and bound <= seq.bound:  # c Q within the family
        same_shift(realize_delta_series(DeltaSeries.from_list(seq, [0, y], 1), bound))

    integrals = [lambda: IntegralOperator.psi_integral(seq, bound)]
    integrals.append(lambda: IntegralOperator.q_integral(q, bound))
    integrals.append(lambda: IntegralOperator.r_integral(p.coeffs or [1], y, bound))
    for i, build in enumerate(integrals):
        try:
            op = build()
        except UmbralError:
            continue
        same_columns(op.shift, old_integral_as_matrix(op))
        same_shift(op.shift)
        same_shift(op.partner)
        if i == 2:  # the r-integral
            same_columns(op.partner, old_r_integral_partner(op.weights, bound))


def test_shift_builders_keep_their_errors():
    for q in (1, "1", Fraction(2, 2)):
        same_outcome(outcome(jackson_operator, q, 4), outcome(old_jackson_operator, q, 4))
    assert outcome(jackson_operator, 1, 4)[1:] == (
        BadParameterError, "jackson derivative undefined at q = 1")
    # a family one short of the bound: column bound of c Q is past its end
    seq = AdmissibleSequence.q_deformed(2, 4)
    for c in (1, Fraction(-2, 3)):
        args = DeltaSeries.from_list(seq, [0, c], 1), 5
        got = outcome(realize_delta_series, *args)
        assert got[:2] == ("raises", UndefinedIndexError)
        assert got == outcome(old_realize_one_term, *args)
        same_shift(realize_delta_series(*args[:1], 4))


@settings(max_examples=40, deadline=None)
@given(case=series_cases())
def test_series_chains_applied_match_old_dense_compositions(case):
    seq, degree, q, s, _, _, _, m = case
    sheffer = sheffer_sequence(q, s, degree)
    # S perturbed after the table was built, so the composition disagrees
    coeffs = list(s.coeffs)
    coeffs[m] += 1
    broken = dataclasses.replace(sheffer, s_series=DeltaSeries.from_list(seq, coeffs, s.order))
    for pairing in (sheffer, broken):
        result = spectral_operator(pairing)
        want = old_spectral_composition(pairing).columns == result.definitional.columns
        assert result.composition_agrees == want
    assert spectral_operator(sheffer).composition_agrees

    # the transport report reads its family from the series
    l_series = DeltaSeries.from_list(seq, q.coeffs, degree)
    u, raiser, rhs = old_transport_rhs(seq, l_series, degree)
    want = commutator(u, raiser).agreement_window(rhs)
    assert transport_pincherle_window(l_series, degree) == want


# -- integer numerators over one denominator -------------------------------------
#
# The `old_*` functions below are the Fraction-list kernel that the integer
# one replaced: `_accumulate`, `_combine`, `coordinates_in_table`, the column
# accumulation of `expand_in_dual_pair` and the addition check, verbatim
# except that `Polynomial._trusted` became the coercing constructor and the
# old operations call each other. Families include q-deformed ones with
# q = 3/2 and q = -2/3 up to degree 16, so that denominators grow.


def old_accumulate(out, c, coeffs):
    """out += c * coeffs in place, skipping zero entries; out is long enough."""
    for i, a in enumerate(coeffs):
        if a:
            o = out[i]
            out[i] = o + c * a if o else c * a


def old_combine(coeffs, polys):
    """sum_i coeffs[i] * polys[i], skipping zero coefficients and entries."""
    out = []
    for c, p in zip(coeffs, polys):
        if c and p.coeffs:
            if len(out) < len(p.coeffs):
                out += [Fraction(0)] * (len(p.coeffs) - len(out))
            old_accumulate(out, c, p.coeffs)
    return Polynomial(out)


def old_coordinates_in_table(table, p):
    if p.degree > table.bound:
        raise DegreeOverflowError(
            f"degree {p.degree} exceeds table bound {table.bound}"
        )
    coords = [Fraction(0)] * (table.bound + 1)
    residue = list(p.coeffs)
    for n in range(p.degree, -1, -1):
        c = residue[n]
        if c:
            entry = table[n].coeffs
            coords[n] = c / entry[n]
            old_accumulate(residue, -coords[n], entry)
    if any(residue):
        raise AssertionError("triangular reduction left a residue")
    return coords


def old_powers(m, count):
    out = [old_identity_operator(m.bound)]
    for _ in range(count):
        out.append(old_compose(m, out[-1]))
    return out


def old_accumulated_expand(t, q_op, raiser):
    """(coefficients, reassembled columns), accumulated column by column."""
    require_lowers_by_one(q_op)
    bound = t.bound
    r_powers = old_powers(raiser, bound)
    ladder = SequenceTable(tuple(old_apply(p, ONE) for p in r_powers))
    q_powers = old_powers(q_op, bound)

    # r_columns[m][i] is column m of raiser^i
    r_columns = list(zip(*(r.columns for r in r_powers)))
    # acc[k] is column k of the running reassembly. Q^j x^k is zero for
    # k < j, so step j adds q_j(raiser) Q^j x^k to the columns k >= j only.
    acc = [[Fraction(0)] * (bound + 1) for _ in range(bound + 1)]
    coefficients = []
    for j in range(bound + 1):
        so_far = Polynomial(list(acc[j]))
        u = old_coordinates_in_table(ladder, old_sub(t.columns[j], so_far))
        pivot = q_powers[j].columns[j].constant_term
        q_j = Polynomial([ui / pivot if ui else ui for ui in u])
        coefficients.append(q_j)
        if not q_j:
            continue
        # column m of q_j(raiser); Q^j x^k has degree k - j <= bound - j
        step = [old_combine(q_j.coeffs, r_columns[m]).coeffs for m in range(bound - j + 1)]
        for k in range(j, bound + 1):
            for m, v in enumerate(q_powers[j].columns[k].coeffs):
                if v:
                    old_accumulate(acc[k], v, step[m])
    return tuple(coefficients), tuple(Polynomial(col) for col in acc)


def old_addition_coefficients_agree(table, partner, seq, n):
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


def old_evaluate(p, value):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def result_or_error(call, *args):
    """("value", what `call(*args)` returns) or ("raises", type, message)."""
    try:
        return "value", call(*args)
    except UmbralError as exc:
        return "raises", type(exc), str(exc)


FAMILY_QS = (None, Fraction(3, 2), Fraction(-2, 3))


def draw_family(draw, bound):
    """A custom family or a q-deformed one (q = 3/2 or -2/3) on `bound`."""
    q = draw(st.sampled_from(FAMILY_QS))
    if q is None:
        values = draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound))
        return AdmissibleSequence.custom(values, bound)
    return AdmissibleSequence.q_deformed(q, bound)


@st.composite
def numerator_cases(draw, max_degree=16):
    """A custom or q-deformed family (q = 3/2 or -2/3) on a bound up to
    `max_degree` + 1; polynomials of degree up to the degree, sparse or dense,
    some with coefficients divided by the family factorials so that
    denominators grow; a delta series; and a triangular table of the
    series' basic sequence, with one entry perturbed below its lead or not."""
    degree = draw(st.integers(2, max_degree))
    bound = degree + 1
    seq = draw_family(draw, bound)

    def polynomial():
        entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))
        cs = draw(st.lists(entries, max_size=degree + 1))
        if draw(st.booleans()):
            cs = [c / seq.factorial(j) for j, c in enumerate(cs)]
        return cs

    tail = draw(st.lists(mixed_rationals, max_size=degree - 1))
    series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    table = basic_sequence_from_series(series, degree).table
    entries = list(table.entries)
    n = draw(st.integers(1, degree))
    if draw(st.booleans()):
        below = Polynomial.monomial(draw(st.integers(0, n - 1)), draw(nonzero_rationals))
        entries[n] = entries[n] + below
    return seq, degree, [polynomial() for _ in range(4)], series, SequenceTable(tuple(entries))


@settings(max_examples=60, deadline=None)
@given(case=numerator_cases(), c=nonzero_rationals, y=mixed_rationals)
def test_numerator_arithmetic_matches_fraction_kernel(case, c, y):
    seq, degree, lists, _, table = case
    p, q, f, g = (Polynomial(cs) for cs in lists)
    for v in (p, q, f, g):
        canonical(v)
        assert v.coeffs == Polynomial(list(v.coeffs)).coeffs
    same(p + q, old_add(p, q))
    same(-p, old_neg(p))
    same(p - q, old_sub(p, q))
    same(p - p, ZERO)
    same(p.scale(c), old_scale(p, c))
    same(p.scale(c).scale(1 / c), p)
    same(p * q, old_mul(p, q))
    same(p.derivative(), Polynomial([i * a for i, a in enumerate(p.coeffs)][1:]))
    for k in range(-1, degree + 1):
        same(p.truncate(k), Polynomial(p.coeffs[: k + 1]))
    assert p(y) == old_evaluate(p, y) and type(p(y)) is Fraction
    # weights and polynomials with unrelated denominators
    weights = list(f.coeffs)
    polys = [p, q, g, table[degree], p - q, ZERO, table[1]]
    same(_combine(f, polys), old_combine(weights, polys))
    same(_combine(f, list(table)), old_combine(weights, list(table)))

    # one polynomial built three ways: from its list, by arithmetic and by
    # parsing its text; equal, with equal hashes and numerators
    built = Polynomial(lists[0])
    summed = ZERO
    for j, a in enumerate(lists[0]):
        summed = summed + Polynomial.monomial(j, a)
    # (x p)' - x p' = p
    ruled = (X * built).derivative() - X * built.derivative()
    text = " + ".join(f"{a}*x^{j}" for j, a in enumerate(lists[0]) if a) or "0"
    parsed = parse_polynomial(text)
    for other in (summed, ruled, parsed):
        canonical(other)
        assert other == built and hash(other) == hash(built)
        assert (other.nums, other.den) == (built.nums, built.den)


@settings(max_examples=40, deadline=None)
@given(case=numerator_cases())
def test_fraction_free_solve_matches_fraction_kernel(case):
    seq, degree, lists, series, table = case
    for cs in lists + [list(table[degree].coeffs)]:
        p = Polynomial(cs)
        got = coordinates_in_table(table, p)
        assert got == old_coordinates_in_table(table, p)
        assert all(type(c) is Fraction for c in got)
        same(apply_delta_series(series, p), old_apply(old_realize_delta_series(series, degree), p))
    # entries with negative and fractional leads
    scaled = SequenceTable(
        tuple(e.scale(Fraction(-2, 3) if n % 2 else Fraction(5, 7)) for n, e in enumerate(table))
    )
    p = Polynomial(lists[1])
    assert coordinates_in_table(scaled, p) == old_coordinates_in_table(scaled, p)
    too_high = Polynomial.monomial(degree + 1, 1)
    assert result_or_error(coordinates_in_table, table, too_high) == result_or_error(
        old_coordinates_in_table, table, too_high
    )
    images = [Polynomial(cs) for cs in lists] * degree
    images = images[: degree + 1]
    same_columns(umbral_operator(table, images), old_umbral_operator(table, images))


@settings(max_examples=12, deadline=None)
@given(case=numerator_cases(), dense=st.booleans(), data=st.data())
def test_expansion_accumulation_matches_fraction_kernel(case, dense, data):
    seq, degree, _, series, _ = case
    # a lower-triangular T: column j has degree at most j
    entries = mixed_rationals if dense else sparse_rationals
    t = OperatorMatrix(
        tuple(Polynomial(data.draw(st.lists(entries, max_size=j + 1))) for j in range(degree + 1))
    )
    q_op = realize_delta_series(series, degree) if dense else psi_derivative(seq, degree)
    for raiser in (xhat_psi(seq, degree), multiplication_x(degree)):
        got = expand_in_dual_pair(t, q_op, raiser)
        coefficients, columns = old_accumulated_expand(t, q_op, raiser)
        for new, old in zip(got.coefficients + got.reassembled.columns,
                            coefficients + columns, strict=True):
            same(new, old)
        assert got.reassembled.columns == t.columns


# -- the addition rule and the series action on divided powers --------------------
#
# Both kernels now read their operands in the divided powers e_j = x^j / j_psi!.
# `old_integer_coefficients_agree` and `old_addition_rule` are the addition
# check as it compared both sides of each cell (with its binom_psi weights) as
# integers over one denominator, and `old_apply_delta_series` is the series
# action as one `_shift_down` polynomial per series term combined by
# `_combine`, all verbatim except for their names.


def old_integer_coefficients_agree(table, partner, seq, n):
    # each side is integers over one denominator: the lcm of its
    # binom_psi * den_t * den_u denominators
    t_n = table[n]
    lhs_terms = [
        (j, a, [seq.binomial(j, k) for k in range(j + 1)])
        for j, a in enumerate(t_n.nums)
        if a
    ]
    lhs_den = math.lcm(*[b.denominator for _, _, bs in lhs_terms for b in bs])
    lhs = [[0] * (n + 1 - i) for i in range(n + 1)]
    for j, a, bs in lhs_terms:
        for k, b in enumerate(bs):
            lhs[j - k][k] = a * b.numerator * (lhs_den // b.denominator)
    lhs_den *= t_n.den

    rhs_terms = [(seq.binomial(n, m), table[m], partner[n - m]) for m in range(n + 1)]
    rhs_den = math.lcm(*[b.denominator * t.den * u.den for b, t, u in rhs_terms])
    rhs = [[0] * (n + 1 - i) for i in range(n + 1)]
    for b, t, u in rhs_terms:
        w = b.numerator * (rhs_den // (b.denominator * t.den * u.den))
        for i, a in enumerate(t.nums):
            if a:
                wa, row = w * a, rhs[i]
                for k, c in enumerate(u.nums):
                    if c:
                        row[k] += wa * c
    return all(
        left * rhs_den == right * lhs_den
        for lrow, rrow in zip(lhs, rhs)
        for left, right in zip(lrow, rrow)
    )


def old_addition_rule(table, partner, seq, y_values, failure, success):
    ys = default_shift_samples(table.bound + 2) if y_values is None else y_values
    for n in range(table.bound + 1):
        if old_integer_coefficients_agree(table, partner, seq, n):
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


def old_apply_delta_series(s, p):
    factorial = s.base.factorial
    scaled = old_diagonal(p, [factorial(j) if a else 0 for j, a in enumerate(p.nums)])
    # sum_k c_k Q^k on the coordinates: coordinate j moves to j - k
    series = s.polynomial.truncate(len(scaled.nums) - 1)
    shifts = [_shift_down(scaled, k) if c else ZERO for k, c in enumerate(series.nums)]
    out = _combine(series, shifts)
    return old_diagonal(out, [1 / factorial(i) if v else 0 for i, v in enumerate(out.nums)])


def separation_probes():
    """Lists of the degrees at which `addition_rule_failure` seeks a
    separating sample and of the degrees `generalized_shift` is applied
    to, and the patch that records both."""
    examined, shifted = [], []
    separate, shift = sequences._separating_sample, operators.generalized_shift

    def seek(cells, n, seq, ys):
        examined.append(n)
        return separate(cells, n, seq, ys)

    def shifting(seq, p, y):
        shifted.append(p.degree)
        return shift(seq, p, y)

    probes = ExitStack()
    probes.enter_context(mock.patch.object(sequences, "_separating_sample", seek))
    probes.enter_context(mock.patch.object(sequences, "generalized_shift", shifting))
    return examined, shifted, probes


def _addition_cells_agree(t, u, n):
    """Whether every cell of `_addition_cells` holds, as `addition_rule_failure`
    reads it inline."""
    return not any(map(any, sequences._addition_cells(t, u, n)))


def divided_entries(table, seq):
    """Entry m over m_psi! in the divided powers, from its Fractions."""
    return [
        Polynomial([c * seq.factorial(j) / seq.factorial(m) for j, c in enumerate(entry.coeffs)])
        for m, entry in enumerate(table)
    ]


@settings(max_examples=40, deadline=None)
@given(
    case=numerator_cases(),
    short=st.integers(0, 3),
    ys=st.none() | st.lists(st.integers(-2, 2), max_size=3),
)
def test_addition_check_matches_fraction_kernel(case, short, ys):
    seq, degree, _, series, table = case
    basic = basic_sequence_from_series(series, degree).table
    prefactor = DeltaSeries.from_list(seq, [1, 1], degree)
    sheffer = sheffer_sequence(series, prefactor, degree)
    # the Sheffer table with the basic table's perturbation, if any
    moved = SequenceTable(tuple(s + (t - b) for s, t, b in zip(sheffer.table, table, basic)))
    # a family `short` entries shorter than the table needs
    short = min(short, degree - 1)
    family = AdmissibleSequence.custom(seq.values[1:], degree - short) if short else seq
    pairs = ((table, table), (basic, basic), (sheffer.table, basic), (moved, basic),
             (sheffer.table, table))
    for t, partner in pairs:
        t_div, u_div = divided_entries(t, seq), divided_entries(partner, seq)
        for n in range(min(family.bound, degree) + 1):
            assert _addition_cells_agree(t_div, u_div, n) == old_addition_coefficients_agree(
                t, partner, family, n
            )
        # whole reports, or the same error and message on the short family;
        # a separating sample is sought at every degree whose coefficients
        # differ, and a failure's witness is formed once
        examined, shifted, probes = separation_probes()
        if t is partner:
            with probes:
                got = result_or_error(verify_binomial_type, t, family, ys)
            want = result_or_error(
                old_addition_rule, t, t, family, ys,
                "addition rule fails", "addition rule holds at all sampled shifts",
            )
        else:
            mixed = dataclasses.replace(
                sheffer, seq=family, table=t,
                basic=dataclasses.replace(sheffer.basic, seq=family, table=partner),
            )
            with probes:
                got = result_or_error(verify_sheffer_binomial, mixed, ys)
            want = result_or_error(
                old_addition_rule, t, partner, family, ys,
                "mixed addition rule fails", "mixed addition rule holds at all sampled shifts",
            )
        assert got == want
        if got[0] == "raises":
            last = family.bound
        else:
            last = t.bound if got[1].passed else got[1].witness["n"]
        assert examined == [
            n for n in range(last + 1) if not old_integer_coefficients_agree(t, partner, family, n)
        ]
        assert shifted == ([] if got[0] == "raises" or got[1].passed else [last])


@st.composite
def divided_power_action_cases(draw):
    """A custom or q-deformed family on a bound up to 12; a series of an
    order from 0 to past the bound, sparse or dense; and a polynomial with
    zero gaps, of a degree that may pass the bound."""
    bound = draw(st.integers(1, 12))
    seq = draw_family(draw, bound)
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))
    order = draw(st.integers(0, bound + 3))
    series = DeltaSeries.from_list(seq, draw(st.lists(entries, max_size=order + 1)), order)
    p = Polynomial(draw(st.lists(sparse_rationals, max_size=bound + 4)))
    return series, p


@settings(max_examples=200, deadline=None)
@given(case=divided_power_action_cases())
def test_series_action_matches_shifted_combination(case):
    series, p = case
    got = result_or_error(apply_delta_series, series, p)
    want = result_or_error(old_apply_delta_series, series, p)
    assert got == want
    if got[0] == "value":
        same(got[1], want[1])


def lower_factorial(n):
    """(x)_n = x (x - 1) ... (x - n + 1), the basic table of e^t - 1."""
    out = ONE
    for i in range(n):
        out = out * Polynomial([-i, 1])
    return out


def abel(a, n):
    """x (x - a n)^(n-1), the basic table of t e^(a t)."""
    return ONE if n == 0 else X * Polynomial.monomial(n - 1).compose(Polynomial([-a * n, 1]))


def laguerre(n):
    """sum_(k=1..n) (n!/k!) C(n-1, k-1) (-x)^k, the basic table of t/(t-1)."""
    if n == 0:
        return ONE
    return Polynomial([0] + [
        Fraction(math.factorial(n), math.factorial(k)) * math.comb(n - 1, k - 1) * (-1) ** k
        for k in range(1, n + 1)
    ])


@st.composite
def oracle_cases(draw):
    """A custom or q-deformed family on a bound up to 10, and one entry and
    index to perturb: the constant term, or a coefficient from x^2 up, since
    adding c x to a table's top entry keeps it of binomial type."""
    degree = draw(st.integers(2, 9))
    bound = degree + 1
    seq = draw_family(draw, bound)
    n = draw(st.integers(1, degree))
    index = draw(st.sampled_from([0] + list(range(2, n))))
    return seq, degree, draw(nonzero_rationals), n, index, draw(nonzero_rationals)


@settings(max_examples=40, deadline=None)
@given(case=oracle_cases())
def test_closed_form_tables_are_the_solved_tables(case):
    """p_n = (n_psi!/n!) D^-1 c_n with D: x^j -> (j_psi!/j!) x^j carries a
    classical basic table c_n of q(d/dx) to the basic table of q(Q); the
    lower factorials, the Abel polynomials and the Laguerre table need no
    solve."""
    seq, degree, a, n, index, delta = case
    exp_minus_one = [0] + [Fraction(1, math.factorial(k)) for k in range(1, degree + 1)]
    t_exp_at = [0] + [a ** (k - 1) / math.factorial(k - 1) for k in range(1, degree + 1)]
    t_over_t_minus_one = [0] + [-1] * degree
    for coeffs, classical in (
        (exp_minus_one, lower_factorial),
        (t_exp_at, lambda m: abel(a, m)),
        (t_over_t_minus_one, laguerre),
    ):
        mapped = SequenceTable(tuple(
            Polynomial([
                c * seq.factorial(m) / math.factorial(m) * math.factorial(j) / seq.factorial(j)
                for j, c in enumerate(classical(m).coeffs)
            ])
            for m in range(degree + 1)
        ))
        solved = basic_sequence_from_series(DeltaSeries.from_list(seq, coeffs, degree), degree)
        assert mapped.entries == solved.table.entries
        assert verify_binomial_type(mapped, seq).passed
        entries = list(mapped.entries)
        entries[n] = entries[n] + Polynomial.monomial(index, delta)
        report = verify_binomial_type(SequenceTable(tuple(entries)), seq)
        assert not report.passed and report.witness["n"] == n


# -- normal ordering in the rescaled basis -----------------------------------------
#
# `old_suite_weyl` and `old_raiser_power_lowering` are the matrix-product
# routes that `suite_weyl` and the `raiser-power-lowering` records of
# `suite_star` ran before both read their reorderings through
# `harness._normal_order`, verbatim except that the weyl copy reads its pair
# through the `harness` module, so a raiser patched there reaches both routes.


def old_suite_weyl(families, degree, rng, out):
    """Reordering rules for powers of the lowering/raising pair."""
    for seq in families:
        d_pow = harness.psi_derivative(seq, degree).powers(degree)
        r_pow = harness.xhat_psi(seq, degree).powers(degree)
        # cache r^a d^b since every right side is a sum of these
        mixed = {}

        def rd(a, b):
            if (a, b) not in mixed:
                mixed[(a, b)] = r_pow[a].compose(d_pow[b])
            return mixed[(a, b)]

        nm_max = min(4, degree)
        for n in range(nm_max + 1):
            for m in range(nm_max + 1):
                if n == 0 and m == 0:
                    continue
                lhs = d_pow[n].compose(r_pow[m])
                rhs = zero_operator(degree)
                for k in range(min(n, m) + 1):
                    c = Fraction(math.comb(n, k) * math.comb(m, k) * math.factorial(k))
                    rhs = rhs.add(rd(m - k, n - k).scale(c))
                w = lhs.agreement_window(rhs)
                out.windowed(f"power-reorder(n={n},m={m})", seq.label, w, degree - max(n, m))
        # two-parameter exponential exchange, checked order by order: the
        # (i, j) coefficient of exp(t d) exp(a r) = exp(at) exp(a r) exp(t d)
        def exchange_failures():
            for i in range(degree + 1):  # raising power
                for j in range(degree + 1 - i):  # lowering power
                    if i == 0 and j == 0:
                        continue
                    lhs = d_pow[j].compose(r_pow[i]).scale(
                        Fraction(1, math.factorial(j) * math.factorial(i))
                    )
                    rhs = zero_operator(degree)
                    for k in range(min(i, j) + 1):
                        c = Fraction(
                            1,
                            math.factorial(k) * math.factorial(i - k) * math.factorial(j - k),
                        )
                        rhs = rhs.add(rd(i - k, j - k).scale(c))
                    w = lhs.agreement_window(rhs)
                    if w < degree - i:
                        yield {"raise_power": i, "lower_power": j, "found_window": w,
                               "required_window": degree - i}

        out.first_failure("exponential-exchange-orders", seq.label, exchange_failures())


def old_raiser_power_lowering(seq, degree, d, raiser, out):
    # commutation with a raiser power lowers it by one step
    raiser_powers = raiser.powers(min(4, degree))
    for n in range(1, min(4, degree) + 1):
        got = commutator(d, raiser_powers[n])
        expected = raiser_powers[n - 1].scale(n)
        w = got.agreement_window(expected)
        out.windowed(f"raiser-power-lowering(n={n})", seq.label, w, degree - n)


def old_suite_weyl_of_one(seq, degree, rng, out):
    """`old_suite_weyl` on the one-family roster [seq], with the signature of
    a `harness.SUITES` entry."""
    old_suite_weyl([seq], degree, rng, out)


def weyl_records(suite, seq, degree):
    out = harness.Records("weyl", degree)
    suite(seq, degree, None, out)
    return list(out)


@st.composite
def pair_cases(draw):
    """A custom or q-deformed family on degree N + 1, N from 2 to 12; an
    index of the raiser below N; and a rational, 0 among them, to multiply
    that raiser weight by."""
    degree = draw(st.integers(2, 12))
    bound = degree + 1
    if draw(st.booleans()):
        values = draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound))
        seq = AdmissibleSequence.custom(values, bound)
    else:
        seq = AdmissibleSequence.q_deformed(
            draw(nonzero_rationals.filter(lambda q: q not in (1, -1))), bound
        )
    return seq, degree, draw(st.integers(0, degree - 1)), draw(mixed_rationals)


@settings(max_examples=30, deadline=None)
@given(case=pair_cases())
def test_normal_order_windows_match_matrix_products(case):
    seq, degree, index, factor = case
    raiser = xhat_psi(seq, degree)
    mutated = weighted_shift(1, degree, lambda j: raiser.weights[j] * (factor if j == index else 1))
    for r in (raiser, mutated):
        with mock.patch.object(harness, "xhat_psi", lambda seq, bound: r):
            assert weyl_records(harness.suite_weyl, seq, degree) == weyl_records(
                old_suite_weyl_of_one, seq, degree
            )
        # the star loop's windows, from the same helper
        d = psi_derivative(seq, degree)
        window = harness._normal_order(d, r)
        want = harness.Records("star", degree)
        old_raiser_power_lowering(seq, degree, d, r, want)
        got = harness.Records("star", degree)
        for n in range(1, min(4, degree) + 1):
            w = window(1, n, degree - n)
            got.windowed(f"raiser-power-lowering(n={n})", seq.label, w, degree - n)
        assert got == want
    # and the star suite's own records (a mutated raiser breaks its star powers)
    out = harness.Records("star", degree)
    harness.suite_star(seq, degree, random.Random(0), out)
    got = [x for x in out if x.identity_id.startswith("raiser-power-lowering")]
    want = harness.Records("star", degree)
    old_raiser_power_lowering(seq, degree, psi_derivative(seq, degree), raiser, want)
    assert got == want


@settings(max_examples=20, deadline=None)
@given(case=pair_cases())
def test_weyl_windows_are_the_classical_windows(case):
    """In the divided powers x^j / j_psi!, Q steps down and xhat steps up by
    (j + 1) for every family, so each family's `weyl` records are the
    classical family's up to the label."""
    seq, degree, _, _ = case
    classical = AdmissibleSequence.classical(seq.bound)
    relabel = [dataclasses.replace(x, family=seq.label) for x in weyl_records(
        harness.suite_weyl, classical, degree)]
    assert weyl_records(harness.suite_weyl, seq, degree) == relabel


# -- expansion over a pair of weighted shifts ------------------------------------


def old_combine_raised(weights: Polynomial, polys, bound: int) -> Polynomial:
    """sum_d weights[d] x^d polys[d] with the terms above degree `bound`
    dropped, accumulated on integer numerators over one lcm as in `_combine`."""
    terms = [(d, w, p) for d, (w, p) in enumerate(zip(weights.nums, polys))
             if w and p.nums and d <= bound]
    den = math.lcm(*[p.den for _, _, p in terms])
    out = [0] * (bound + 1)
    for d, w, p in terms:
        w *= den // p.den
        for i, a in enumerate(p.nums[: bound + 1 - d], d):
            out[i] += w * a
    return _canonical(out, den * weights.den)


def old_expand_over_shifts(t: OperatorMatrix, u: list, r: list) -> ExpansionResult:
    """Q x^j = u_j x^(j-1), raiser x^j = r_j x^(j+1): with U_n = u_1 ... u_n,
    R_n = r_0 ... r_(n-1), S_n = U_n R_n, D: x^n -> x^n / R_n makes the raiser
    multiplication by x, so T^_c = D(T x^c) / U_c = sum_d x^d q_(c-d) / S_d and
    q(y) = T^(y) / E(xy), E(z) = sum_d z^d / S_d: one division per column."""
    bound = t.bound
    lead = list(accumulate(r[:bound], mul, initial=Fraction(1)))  # R_n
    scale = list(accumulate(u[1:], mul, initial=Fraction(1)))  # U_n
    if 0 in lead:  # raiser^i 1 = 0, as the ladder would find
        i = lead.index(0)
        raise SingularOperatorError(f"raiser power {i} applied to 1 has degree -1, not {i}")
    inverse_lead = [1 / v for v in lead]
    e_series = Polynomial([1 / (a * b) for a, b in zip(lead, scale)])  # the 1 / S_d
    coefficients = []
    for c in range(bound + 1):
        t_hat = old_diagonal(t.columns[c], inverse_lead).scale(1 / scale[c])
        lower = old_combine_raised(e_series, [ZERO] + coefficients[::-1], bound)
        coefficients.append(t_hat - lower)
    reassembled = old_reassemble_over_shifts(coefficients, u, r)
    return ExpansionResult(tuple(coefficients), lambda: reassembled)


def old_reassemble_over_shifts(coefficients: list, u: list, r: list) -> OperatorMatrix:
    """sum_n q_n(raiser) Q^n from the coefficients and weights alone, with no
    residual or weight of the solve: Q^n x^c = (U_c / U_(c-n)) x^(c-n) and raiser^i x^m =
    (R_(m+i) / R_m) x^(m+i), zero past the bound (r_N = 0), so column c is
    U_c diag(R) sum_m x^m q_(c-m) / (U_m R_m), cut at the bound."""
    bound = len(coefficients) - 1
    r_prod = list(accumulate(r[:bound], mul, initial=Fraction(1)))
    u_prod = list(accumulate(u[1:], mul, initial=Fraction(1)))
    weights = Polynomial([1 / (a * b) for a, b in zip(u_prod, r_prod)])
    return OperatorMatrix(tuple(
        old_diagonal(old_combine_raised(weights, coefficients[c::-1], bound), r_prod).scale(u_prod[c])
        for c in range(bound + 1)))


def old_shift_outcome(t, q_op, raiser):
    """`expansion_outcome` from `old_expand_over_shifts`, for a pair of
    weighted shifts with a lowering `q_op`."""
    try:
        got = old_expand_over_shifts(t, q_op.weights, raiser.weights)
    except UmbralError as exc:
        return "raises", type(exc), str(exc)
    return "expands", got.coefficients, got.reassembled.columns


def old_expansion_outcome(t, q_op, raiser):
    """("expands", coefficients, reassembled columns) from `old_expand`, or
    ("raises", type, message) from the checks the library runs before it:
    the grading of Q, the bounds and the raiser ladder, as `old_raiser_ladder`
    has it."""
    try:
        require_lowers_by_one(q_op)
        if q_op.bound != t.bound or raiser.bound != t.bound:
            raise BadParameterError("operator bounds differ")
        for i, power in enumerate(old_powers(raiser, t.bound)):
            entry = old_apply(power, ONE)
            if entry.degree != i:
                raise SingularOperatorError(
                    f"raiser power {i} applied to 1 has degree {entry.degree}, not {i}"
                )
    except UmbralError as exc:
        return "raises", type(exc), str(exc)
    return ("expands",) + old_expand(t, q_op, raiser)


def expansion_outcome(t, q_op, raiser):
    try:
        got = expand_in_dual_pair(t, q_op, raiser)
    except UmbralError as exc:
        return "raises", type(exc), str(exc)
    return "expands", got.coefficients, got.reassembled.columns


@st.composite
def shift_pair_cases(draw):
    """N from 0 to 12; rational weights u_1..u_N of a lowering shift and
    r_0..r_(N-1) of a raising one, sometimes with a raiser weight set to 0;
    sometimes one extra entry in a column of either (a near-shift, which
    takes the matrix route); and an operator to expand."""
    bound = draw(st.integers(0, 12))
    u = draw(st.lists(nonzero_rationals, min_size=bound + 1, max_size=bound + 1))
    r = draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound))
    if bound and draw(st.integers(0, 3)) == 0:
        r[draw(st.integers(0, bound - 1))] = Fraction(0)
    ops = [weighted_shift(-1, bound, lambda j: u[j - 1]), weighted_shift(1, bound, lambda j: r[j])]
    near = draw(st.integers(0, 3))
    if near < 2:
        columns = list(ops[near].columns)
        j = draw(st.integers(0, bound))
        columns[j] += Polynomial.monomial(draw(st.integers(0, bound)), draw(nonzero_rationals))
        ops[near] = OperatorMatrix(tuple(columns))
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))
    t = OperatorMatrix(
        tuple(Polynomial(draw(st.lists(entries, max_size=bound + 1))) for _ in range(bound + 1))
    )
    return bound, u, t, ops[0], ops[1]


@st.composite
def family_pair_cases(draw):
    """N from 0 to 24; a custom family or a q-deformed one (q drawn, not
    +-1); its Q with xhat_psi, multiplication by x or random raiser
    weights, of which one in three pairs has a weight set to 0; and an
    operator to expand, sparse or dense. The lists, up to 625 entries for
    the operator, come from one seeded generator, which draws them much
    faster than hypothesis would one by one."""
    bound = draw(st.integers(0, 24))
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def rational(density=1.0):
        if rnd.random() >= density:
            return Fraction(0)
        return Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 4))

    q = draw(st.one_of(st.none(), nonzero_rationals.filter(lambda v: abs(v) != 1)))
    if q is None:
        seq = AdmissibleSequence.custom([rational() for _ in range(bound + 1)], bound + 1)
    else:
        seq = AdmissibleSequence.q_deformed(q, bound + 1)
    kind = draw(st.sampled_from(["graded", "multiplication", "random"]))
    if kind == "graded":
        raiser = xhat_psi(seq, bound)
    elif kind == "multiplication":
        raiser = multiplication_x(bound)
    else:
        r = [rational() for _ in range(bound)]
        raiser = weighted_shift(1, bound, lambda j: r[j])
    if bound and draw(st.integers(0, 2)) == 2:
        zeroed = draw(st.integers(0, bound - 1))
        weights = raiser.weights
        raiser = weighted_shift(1, bound, lambda j: 0 if j == zeroed else weights[j])
    density = rnd.choice([0.25, 1.0])
    t = OperatorMatrix(tuple(
        Polynomial([rational(density) for _ in range(rnd.randint(0, bound + 1))])
        for _ in range(bound + 1)
    ))
    return t, psi_derivative(seq, bound), raiser


@settings(max_examples=100, deadline=None)
@given(case=shift_pair_cases(), family_case=family_pair_cases())
def test_expansion_over_shifts_matches_the_matrix_route(case, family_case):
    # on family pairs up to N = 24 and their zero raiser weights, the
    # division on Fractions and Polynomials that the integer one replaced
    new, old = expansion_outcome(*family_case), old_shift_outcome(*family_case)
    assert new[0] == old[0], (new, old)
    if old[0] == "raises":
        assert new == old
    else:
        for got, want in zip(new[1] + new[2], old[1] + old[2], strict=True):
            same(got, want)

    bound, u, t, q_op, raiser = case
    # two weighted shifts never reach the raiser ladder, a near-shift (a
    # plain matrix) never the shift division
    shifts = isinstance(q_op, WeightedShift) and isinstance(raiser, WeightedShift)
    route = "_expand_over_ladder" if shifts else "_expand_over_shifts"
    with mock.patch.object(operators, route, side_effect=AssertionError(route)):
        new = expansion_outcome(t, q_op, raiser)
    old = old_expansion_outcome(t, q_op, raiser)
    assert new[0] == old[0], (new, old)
    if old[0] == "raises":
        assert new == old
        return
    for got, want in zip(new[1] + new[2], old[1] + old[2], strict=True):
        same(got, want)

    # the family pair: S_d = d!, so q_c = sum_d (-1)^d x^d T^_(c-d) / d! with
    # T^_c = D(T x^c) / c_psi!, D: x^n -> (n_psi! / n!) x^n
    seq = AdmissibleSequence.custom(u, bound + 1)
    q_op, raiser = psi_derivative(seq, bound), xhat_psi(seq, bound)
    got = expand_in_dual_pair(t, q_op, raiser)
    t_hat = [
        Polynomial([a * seq.factorial(n) / math.factorial(n) / seq.factorial(c)
                    for n, a in enumerate(t.columns[c].coeffs)])
        for c in range(bound + 1)
    ]
    for c in range(bound + 1):
        want = ZERO
        for d in range(c + 1):
            want += (Polynomial.monomial(d) * t_hat[c - d]).scale(
                Fraction((-1) ** d, math.factorial(d)))
        same(got.coefficients[c], want.truncate(bound))
    assert got.reassembled.columns == t.columns

    # the reassembly reads the coefficients alone: one changed moves a column
    changed = list(got.coefficients)
    changed[-1] += ONE
    assert operators._reassemble_over_shifts(changed, q_op, raiser).columns != t.columns

    # multiplication by x: R_n = 1 and S_d = d_psi!, so E = exp_psi and
    # q(y) = T^(y) F(xy) with F = 1 / exp_psi and T^_c = T x^c / c_psi!
    got = expand_in_dual_pair(t, q_op, multiplication_x(bound))
    exp_psi = [1 / seq.factorial(d) for d in range(bound + 1)]
    f = DeltaSeries.from_list(seq, exp_psi, bound).multiplicative_inverse()
    for c in range(bound + 1):
        want = ZERO
        for d in range(c + 1):
            want += (Polynomial.monomial(d) * t.columns[c - d]).scale(
                f.coefficient(d) / seq.factorial(c - d))
        same(got.coefficients[c], want.truncate(bound))
    assert got.reassembled.columns == t.columns


@settings(max_examples=150, deadline=None)
@given(step=st.sampled_from([-1, 0, 1]), bound=st.integers(0, 24), data=st.data())
def test_a_shift_reads_its_weights_as_its_columns(step, bound, data):
    """A weighted shift forms its columns on first read; before that, its
    bound and grading, read from the weights, are those of its columns,
    interior zero weights included."""
    w = data.draw(st.lists(st.sampled_from([0, 0, 1, -2, Fraction(1, 3)]),
                           min_size=bound + 1, max_size=bound + 1))
    shift = weighted_shift(step, bound, lambda j: w[j])
    eager = OperatorMatrix(tuple(
        Polynomial([0] * (j + step) + [w[j]]) if 0 <= j + step <= bound else ZERO
        for j in range(bound + 1)))
    assert (shift.bound, shift.grading) == (eager.bound, eager.grading)
    assert "columns" not in vars(shift)
    assert shift.columns == eager.columns and vars(shift)["columns"] is shift.columns
    assert shift.grading == OperatorMatrix(shift.columns).grading


@settings(max_examples=60, deadline=None)
@given(family_case=family_pair_cases())
def test_an_expansion_over_two_shifts_forms_no_column(family_case):
    """The solve and the reassembly read the weights of Q and the raiser,
    never their columns, and give the division on Fractions."""
    t, q_op, raiser = family_case
    try:
        got = expand_in_dual_pair(t, q_op, raiser)
    except SingularOperatorError as exc:
        assert old_shift_outcome(t, q_op, raiser) == ("raises", type(exc), str(exc))
        got = None
    assert "columns" not in vars(q_op) and "columns" not in vars(raiser)
    if got is None:
        return
    want = old_expand_over_shifts(t, q_op.weights, raiser.weights)
    for c, w in zip(got.coefficients, want.coefficients, strict=True):
        same(c, w)
    assert "columns" not in vars(q_op) and "columns" not in vars(raiser)
    for c, w in zip(got.reassembled.columns, want.reassembled.columns, strict=True):
        same(c, w)
    assert "columns" not in vars(q_op) and "columns" not in vars(raiser)


def test_each_shift_forms_its_running_products_once():
    """The solve and the reassembly share each shift's running products: one
    pass per shift, and none when the same shifts are expanded again."""
    bound = 10
    seq = AdmissibleSequence.q_deformed(Fraction(-3, 2), bound + 1)
    rnd = random.Random(3)
    t = OperatorMatrix(tuple(
        Polynomial([Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(bound + 1)])
        for _ in range(bound + 1)))
    series = realize_delta_series(DeltaSeries.from_list(seq, [0, 1, Fraction(1, 2)], bound), bound)
    for q_op, raiser in ((psi_derivative(seq, bound), xhat_psi(seq, bound)),
                         (divided_difference(bound), multiplication_x(bound)),
                         (series, xhat_psi(seq, bound))):
        with mock.patch.object(operators, "_running_products",
                               wraps=operators._running_products) as counted:
            got = expand_in_dual_pair(t, q_op, raiser)
            assert got.reassembled.columns == t.columns
            if q_op is not series:
                again = expand_in_dual_pair(t, q_op, raiser)
                assert again.reassembled.columns == t.columns
        assert counted.call_count == 2


def test_shift_built_lowerings_expand_without_the_raiser_ladder():
    # the lowering operators that the harness, the bench and the CLI builtins
    # build, each with both raisers
    bound = 8
    seq = AdmissibleSequence.q_deformed(Fraction(-3, 2), bound + 1)
    rnd = random.Random(5)
    t = OperatorMatrix(tuple(
        Polynomial([Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(j + 2)])
        .truncate(bound) for j in range(bound + 1)
    ))
    lowerings = [
        psi_derivative(seq, bound),
        divided_difference(bound),
        jackson_operator(Fraction(1, 2), bound),
        jackson_operator(-2, bound),
        cli.resolve_operator("hyperbolic_Q", seq, bound),
        cli.resolve_operator("DxD", seq, bound),
        realize_delta_series(DeltaSeries.from_list(seq, [0, Fraction(-2, 3)], 1), bound),
        cli.resolve_operator([0, 3], seq, bound),
    ]
    raisers = [xhat_psi(seq, bound), multiplication_x(bound)]
    ladder = mock.patch.object(
        operators, "_expand_over_ladder", side_effect=AssertionError("ladder")
    )
    with ladder:
        for q_op in lowerings:
            for raiser in raisers:
                assert expand_in_dual_pair(t, q_op, raiser).reassembled == t

    # a `columns` literal shaped like a shift is a plain matrix: the matrix
    # route, with the same coefficients
    literal = cli.resolve_operator(
        {"columns": [c.to_text() for c in lowerings[0].columns]}, seq, bound)
    want = expand_in_dual_pair(t, lowerings[0], raisers[0])
    with mock.patch.object(operators, "_expand_over_shifts", side_effect=AssertionError("shift")):
        got = expand_in_dual_pair(t, literal, raisers[0])
    assert got.coefficients == want.coefficients and got.reassembled == t

    # a shift that does not step up is no raiser: the ladder rejects it at once
    for raiser in (nhat_diagonal(seq, bound), weighted_shift(2, bound, lambda j: 1),
                   lowerings[0]):
        got = expansion_outcome(t, lowerings[0], raiser)
        assert got[:2] == ("raises", SingularOperatorError)
        assert got[2].startswith("raiser power 1 applied to 1 has degree "), got


# -- basic tables on divided powers, the addition rule on chain cells ---------------


def old_basic_sequence_from_series(q_series, bound):
    q_series.require_delta()
    op = realize_delta_series(q_series, bound)
    return basic_sequence(op, q_series.base, bound)


def old_divided_addition_rule(table, partner, seq, y_values, failure, success):
    ys = default_shift_samples(table.bound + 2) if y_values is None else y_values

    def divided(p: Polynomial, n: int) -> Polynomial:
        return old_diagonal(p, old_factorials(seq)).scale(inverse_factorials(seq)[n])

    t, u = [], []
    for n in range(table.bound + 1):
        seq.n_psi(n)  # a family too short for the table raises here
        t.append(divided(table[n], n))
        u.append(t[n] if partner is table else divided(partner[n], n))
        if _addition_cells_agree(t, u, n):
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


@st.composite
def solve_cases(draw):
    """A custom, q-deformed or classical family on a bound up to 9; a series
    of an order from 1 to the family bound, delta or not (c1 may be 0); and
    a solve bound from 0 to two past the family."""
    family_bound = draw(st.integers(1, 9))
    if draw(st.booleans()):
        seq = draw_family(draw, family_bound)
    else:
        seq = AdmissibleSequence.classical(family_bound)
    order = draw(st.integers(1, family_bound))
    tail = draw(st.lists(mixed_rationals, max_size=order - 1))
    series = DeltaSeries.from_list(seq, [0, draw(mixed_rationals)] + tail, order)
    return series, draw(st.integers(0, family_bound + 2))


@settings(max_examples=150, deadline=None)
@given(case=solve_cases())
def test_series_solve_matches_the_triangular_solve(case):
    series, bound = case
    with mock.patch.object(sequences, "realize_delta_series", side_effect=AssertionError), \
            mock.patch.object(sequences, "coordinates_in_table", side_effect=AssertionError):
        got = result_or_error(basic_sequence_from_series, series, bound)
    want = result_or_error(old_basic_sequence_from_series, series, bound)
    if want[0] == "raises":
        assert got == want
        return
    assert got[0] == "value"
    for p, q in zip(got[1].table, want[1].table, strict=True):
        same(p, q)
    # the operator is realised on first read, as the old route built it
    assert got[1].q_op.columns == realize_delta_series(series, bound).columns
    assert got[1].raiser.columns == want[1].raiser.columns


@st.composite
def chain_cases(draw):
    """A custom or q-deformed family on a bound up to 10, possibly shorter
    than the tables; the basic and a Sheffer table of a random delta series,
    each also with up to two entries perturbed below their lead (entry 0
    included); and shift samples: the defaults, none, y = 0 alone (which
    cannot separate a normal partner) or a short list."""
    degree = draw(st.integers(1, 9))
    seq = draw_family(draw, degree + 1)
    tail = draw(st.lists(mixed_rationals, max_size=degree - 1))
    series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    prefactor = [1] + draw(st.lists(mixed_rationals, max_size=3))
    sheffer = sheffer_sequence(series, DeltaSeries.from_list(seq, prefactor, degree), degree)

    def perturbed(table):
        entries = list(table.entries)
        for _ in range(draw(st.integers(1, 2))):
            n = draw(st.integers(0, degree))
            moved = entries[n] + Polynomial.monomial(draw(st.integers(0, max(n - 1, 0))),
                                                     draw(nonzero_rationals))
            if moved.degree == n:
                entries[n] = moved
        return SequenceTable(tuple(entries))

    basic, shef = sheffer.basic.table, sheffer.table
    pairs = [(basic, basic), (perturbed(basic), None), (shef, basic),
             (perturbed(shef), basic), (shef, perturbed(basic))]
    ys = draw(st.sampled_from([None, [], [0]]) | st.lists(st.integers(-2, 2), max_size=3))
    short = min(draw(st.integers(0, 2)), degree - 1)
    family = AdmissibleSequence.custom(seq.values[1:], degree + 1 - short) if short else seq
    return family, pairs, ys


@settings(max_examples=150, deadline=None)
@given(case=chain_cases())
def test_addition_chain_matches_every_cell(case):
    """Whole reports, or the error and message, of the rule as it was; the
    degrees it sampled the shifts at are the ones at which a separating
    sample is sought: so every degree gets the verdict of all its cells,
    also after a degree that failed unseparated. The witness is formed once."""
    family, pairs, ys = case
    for table, partner in pairs:
        partner = table if partner is None else partner
        examined, shifted, probes = separation_probes()
        with probes:
            got = result_or_error(sequences._addition_rule, table, partner, family, ys,
                                  "fails", "holds")
        sampled = []

        def shift(on, p, y):
            sampled.append(p.degree)
            return operators.generalized_shift(on, p, y)

        with mock.patch.dict(globals(), generalized_shift=shift):
            want = result_or_error(old_divided_addition_rule, table, partner, family, ys,
                                   "fails", "holds")
        assert got == want
        # with no samples the old rule sampled no degree
        assert [n for n, _ in groupby(sampled)] == (examined if ys != [] else [])
        failed = got[0] == "value" and not got[1].passed
        assert shifted == ([got[1].witness["n"]] if failed else [])


def test_an_unseparated_failure_hands_later_degrees_to_every_cell():
    # x^3 + x^2 over the monomials: y = 0 separates no degree, so every
    # degree whose cells differ is sampled; from degree 5 on only cells
    # (i, k) with k >= 2 differ, which the chain cells alone would miss
    entries = [Polynomial.monomial(n) for n in range(8)]
    entries[3] = entries[3] + Polynomial.monomial(2)
    table, seq = SequenceTable(tuple(entries)), AdmissibleSequence.classical(7)
    examined, shifted, probes = separation_probes()
    with probes:
        report = verify_binomial_type(table, seq, [0])
    assert report.passed and examined == [3, 4, 5, 6, 7] and shifted == []
    # y = 1 separates degree 3, whose witness is then formed once
    examined, shifted, probes = separation_probes()
    with probes:
        report = verify_binomial_type(table, seq, [0, 1])
    assert not report.passed and report.witness["n"] == 3 and report.witness["y"] == "1"
    assert examined == [3] and shifted == [3]


# -- basic and Sheffer tables keep their divided-power rows --------------------------
#
# `old_row_basic_sequence_from_series`, `old_row_sheffer_sequence` and
# `old_converting_addition_rule` are the series solve, the Sheffer table and
# the addition rule before the tables kept their rows, verbatim except for
# their names and that they call each other and `old_apply_delta_series`:
# every entry was converted to the divided powers by the rule itself.


def old_row_basic_sequence_from_series(q_series: DeltaSeries, bound: int):
    q_series.require_delta()
    if bound < 0:
        raise BadParameterError("degree bound must be nonnegative")
    seq = q_series.base
    seq.factorial(min(bound, seq.bound + 1))  # a family too short for the bound raises
    entries, p = [ONE], ONE
    if bound:
        sigma = DeltaSeries.from_list(seq, q_series.coeffs[1:], bound - 1)
        sigma = sigma.multiplicative_inverse().polynomial
    for n in range(1, bound + 1):
        out = [0] * (n + 1)
        for k, c in enumerate(sigma.nums[:n]):
            if c:
                for j, v in enumerate(p.nums[k:], 1):
                    if v:
                        out[j] += c * v
        w = seq.n_psi(n)
        p = _canonical([w.numerator * a for a in out], sigma.den * p.den * w.denominator)
        entries.append(old_diagonal(p, inverse_factorials(seq)))
    return sequences.BasicSequence(seq, q_series, SequenceTable(tuple(entries)))


def old_row_sheffer_sequence(q_series, s_series, bound):
    q_series.require_delta()
    s_series.require_invertible()
    # read both at the bound: the inverse of a shorter S is truncated below it
    q_series = DeltaSeries.from_list(q_series.base, q_series.coeffs, bound)
    s_series = DeltaSeries.from_list(s_series.base, s_series.coeffs, bound)
    basic = old_row_basic_sequence_from_series(q_series, bound)
    s_inv = s_series.multiplicative_inverse()
    entries = tuple([old_apply_delta_series(s_inv, p) for p in basic.table])
    return sequences.ShefferSequence(
        q_series.base, basic, q_series, s_series, SequenceTable(entries)
    )


def old_converting_addition_rule(table, partner, seq, y_values, failure, success):
    ys = default_shift_samples(table.bound + 2) if y_values is None else list(y_values)

    def divided(p: Polynomial, n: int) -> Polynomial:
        return old_diagonal(p, old_factorials(seq)).scale(inverse_factorials(seq)[n])

    t, u = [], []
    chained = True  # every degree below n holds
    for n in range(table.bound + 1):
        seq.n_psi(n)  # a family too short for the table raises here
        t.append(divided(table[n], n))
        u.append(t[n] if partner is table else divided(partner[n], n))
        if chained and sequences._addition_chain_agrees(t, u, n) and (
            partner is table or sequences._addition_chain_agrees(u, u, n)
        ) or not chained and _addition_cells_agree(t, u, n):
            continue
        chained = False
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


def old_rule(table, partner, seq, ys):
    return result_or_error(old_converting_addition_rule, table, partner, seq, ys,
                           "addition rule fails", "addition rule holds at all sampled shifts")


def new_rule(table, partner, seq, ys):
    return result_or_error(sequences._addition_rule, table, partner, seq, ys,
                           "addition rule fails", "addition rule holds at all sampled shifts")


def converted_entries():
    """A list of the entries `_addition_rule` converts to the divided
    powers, and the patch that records them."""
    calls = []

    def counted(p, *weights):
        calls.append(p)
        return _diagonal(p, *weights)

    return calls, mock.patch.object(sequences, "_diagonal", counted)


@st.composite
def row_table_cases(draw):
    """A custom or q-deformed family on a bound up to 25; a delta series with
    any nonzero c1 and an invertible prefactor, over that family object, an
    equal one built separately, or another family; a degree up to 24; and
    shift samples: the defaults or a short list."""
    degree = draw(st.integers(1, 24))
    bound = degree + draw(st.integers(0, 1))
    seq = draw_family(draw, bound)
    tail = draw(st.lists(mixed_rationals, max_size=degree - 1))
    q_series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    s_family = draw(st.sampled_from([seq, dataclasses.replace(seq), draw_family(draw, bound)]))
    prefactor = [draw(nonzero_rationals)] + draw(st.lists(mixed_rationals, max_size=3))
    s_series = DeltaSeries.from_list(s_family, prefactor, degree)
    other = draw_family(draw, bound)
    ys = draw(st.none() | st.lists(st.integers(-2, 2), max_size=3))
    return seq, q_series, s_series, degree, other, ys


@settings(max_examples=60, deadline=None)
@given(case=row_table_cases())
def test_row_built_tables_match_the_converting_route(case):
    seq, q_series, s_series, degree, other, ys = case
    if s_series.base != seq:  # an S in another family has no Sheffer table; read it in seq
        s_series = DeltaSeries.from_list(seq, s_series.coeffs, degree)
    basic = basic_sequence_from_series(q_series, degree)
    sheffer = sheffer_sequence(q_series, s_series, degree)
    old_basic = old_row_basic_sequence_from_series(q_series, degree)
    old_sheffer = old_row_sheffer_sequence(q_series, s_series, degree)
    assert old_sheffer.basic.table == old_basic.table
    for new, old in ((basic.table, old_basic.table), (sheffer.basic.table, old_basic.table),
                     (sheffer.table, old_sheffer.table)):
        for p, q in zip(new, old, strict=True):
            same(p, q)

    # the rule on the kept rows gives the converting rule's reports, witnesses
    # included, for the basic table, the Sheffer table against it, and the
    # same tables with their rows dropped
    pairs = [(basic.table, basic.table), (sheffer.table, sheffer.basic.table),
             (sheffer.basic.table, sheffer.basic.table)]
    for table, partner in pairs:
        plain = SequenceTable(table.entries)
        want = old_rule(plain, plain if partner is table else SequenceTable(partner.entries),
                        seq, ys)
        assert new_rule(table, partner, seq, ys) == want
    assert verify_binomial_type(basic.table, seq, ys) == verify_binomial_type(
        SequenceTable(basic.table.entries), seq, ys)
    assert verify_sheffer_binomial(sheffer, ys) == result_or_error(
        old_converting_addition_rule, old_sheffer.table, old_sheffer.basic.table, seq, ys,
        "mixed addition rule fails", "mixed addition rule holds at all sampled shifts")[1]

    # asked about an equal family built separately, or another family, the
    # rule converts every entry it reads, and agrees with the converting rule
    twin = dataclasses.replace(seq)
    assert twin == seq and twin is not seq
    for family in (twin, other):
        for table, partner in pairs:
            calls, patch = converted_entries()
            with patch:
                got = new_rule(table, partner, family, ys)
            assert got == old_rule(table, partner, family, ys)
            if family is twin:
                assert got == new_rule(table, partner, seq, ys)
            if got[0] == "value":
                last = table.bound if got[1].passed else got[1].witness["n"]
                assert len(calls) == (last + 1) * (1 if partner is table else 2)
    # and on the family that built them it converts only a table without rows
    for table, partner in pairs:
        calls, patch = converted_entries()
        with patch:
            new_rule(table, partner, seq, ys)
        assert all(p in table.entries and table.divided is None for p in calls)


@settings(max_examples=60, deadline=None)
@given(case=row_table_cases())
def test_kept_rows_are_the_entries_converted(case):
    """Row n is entry n over n_psi! read in the divided powers of the family
    object that built the table; an S read in another family has no Sheffer
    table."""
    seq, q_series, s_series, degree, _, _ = case
    kept = [basic_sequence_from_series(q_series, degree).table]
    if s_series.base == seq:
        sheffer = sheffer_sequence(q_series, s_series, degree)
        kept += [sheffer.basic.table, sheffer.table]
    else:
        got = result_or_error(sheffer_sequence, q_series, s_series, degree)
        assert got[:2] == ("raises", WrongFamilyError) and got[2].startswith("s_series is over")
    for table in kept:
        family, rows = table.divided
        assert family is seq
        assert list(rows) == divided_entries(table, seq)
        for row in rows:
            canonical(row)
        # a table made from entries, also by replacing them, carries no rows
        assert dataclasses.replace(table, entries=table.entries).divided is None
        assert SequenceTable(table.entries).divided is None


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(st.integers(-5, 5), max_size=6) | st.lists(
    st.integers(-5, 5) | st.booleans() | nonzero_rationals | nonzero_rationals.map(str)
    | st.sampled_from(["x", "1/0", " 2/3 ", "-4", 1.5, None]),
    max_size=6,
))
def test_polynomial_constructor_matches_the_fraction_route(coeffs):
    def old_polynomial(coeffs):
        cs = [fr(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # canonical Fractions over the lcm of their denominators share no
        # factor with it, so no gcd is needed
        den = math.lcm(*[c.denominator for c in cs])
        nums = tuple([c.numerator * (den // c.denominator) for c in cs])
        p = object.__new__(Polynomial)
        for name, value in (("nums", nums), ("den", den), ("_coeffs", tuple(cs))):
            object.__setattr__(p, name, value)
        return p

    want = result_or_error(old_polynomial, coeffs)
    for given_as in (list(coeffs), tuple(coeffs), iter(coeffs), (c for c in coeffs)):
        got = result_or_error(Polynomial, given_as)
        if want[0] == "raises":
            assert got == want
            continue
        assert got[0] == "value"
        same(got[1], want[1])
        assert (got[1].nums, got[1].den) == (want[1].nums, want[1].den)


# -- the verdict before its witness, and expansion over a series by recomposition ----
#
# `old_matrix_route_expand` is the raiser-ladder route of `expand_in_dual_pair`,
# which every series lowering took before the recomposition, verbatim except
# for its name and the checks it shares with the library.


@st.composite
def verdict_cases(draw):
    """A custom or q-deformed family on a bound up to 13, sometimes shorter
    than the tables; the basic and a Sheffer table of a delta series with
    any nonzero c1 (tables that keep their rows), the same entries without
    rows, and perturbed copies (one or two entries moved, the lead
    included); and shift samples: the defaults, none, y = 0, duplicates or
    1 to N + 2 values."""
    degree = draw(st.integers(1, 12))
    seq = draw_family(draw, degree + 1)
    tail = draw(st.lists(mixed_rationals, max_size=degree - 1))
    series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    prefactor = [draw(nonzero_rationals)] + draw(st.lists(mixed_rationals, max_size=3))
    sheffer = sheffer_sequence(series, DeltaSeries.from_list(seq, prefactor, degree), degree)

    def perturbed(table):
        entries = list(table.entries)
        for _ in range(draw(st.integers(1, 2))):
            n = draw(st.integers(0, degree))
            moved = entries[n] + Polynomial.monomial(draw(st.integers(0, n)),
                                                     draw(nonzero_rationals))
            if moved.degree == n:
                entries[n] = moved
        return SequenceTable(tuple(entries))

    basic, shef = sheffer.basic.table, sheffer.table
    plain = SequenceTable(basic.entries)
    pairs = [(basic, basic), (plain, plain), (perturbed(basic), None),
             (shef, basic), (SequenceTable(shef.entries), plain),
             (perturbed(shef), basic), (shef, perturbed(basic))]
    samples = st.integers(-3, 3) | nonzero_rationals
    ys = draw(st.sampled_from([None, [], [0], [0, 0], [1, 1, -1]])
              | st.lists(samples, min_size=1, max_size=degree + 2))
    short = min(draw(st.integers(0, 3)), degree)
    family = AdmissibleSequence.custom(seq.values[1:], degree + 1 - short) if short else seq
    if short == 0 and draw(st.booleans()):
        family = dataclasses.replace(seq)  # equal, but not the object that built the rows
    return sheffer, family, pairs, ys


@settings(max_examples=150, deadline=None)
@given(case=verdict_cases())
def test_addition_verdict_and_witness_match_the_sampled_rules(case):
    """Whole reports, or the same error and message, of the rule that
    sampled every differing degree and of the one that converted every
    entry; the verdict alone passes exactly when the report does."""
    sheffer, family, pairs, ys = case
    for table, partner in pairs:
        partner = table if partner is None else partner
        if partner is table:
            got = result_or_error(verify_binomial_type, table, family, ys)
            texts = "addition rule fails", "addition rule holds at all sampled shifts"
        else:
            mixed = dataclasses.replace(
                sheffer, seq=family, table=table,
                basic=dataclasses.replace(sheffer.basic, seq=family, table=partner),
            )
            got = result_or_error(verify_sheffer_binomial, mixed, ys)
            texts = "mixed addition rule fails", "mixed addition rule holds at all sampled shifts"
        for old in (old_divided_addition_rule, old_converting_addition_rule):
            assert got == result_or_error(old, table, partner, family, ys, *texts)
        verdict = result_or_error(sequences.addition_rule_failure, table, partner, family, ys)
        if got[0] == "raises":
            assert verdict == got
        elif got[1].passed:
            assert verdict == ("value", None)
        else:
            n, y = verdict[1]
            assert (n, str(y)) == (got[1].witness["n"], got[1].witness["y"])


def old_raiser_ladder(raiser: OperatorMatrix):
    """Powers of the raiser and the triangular basis raiser^i(1)."""
    powers = raiser.powers(raiser.bound)
    ladder = [p.apply(ONE) for p in powers]
    for i, entry in enumerate(ladder):
        if entry.degree != i:
            raise SingularOperatorError(
                f"raiser power {i} applied to 1 has degree {entry.degree}, not {i}"
            )
    return powers, SequenceTable(tuple(ladder))


def old_matrix_route_expand(t, q_op, raiser):
    require_lowers_by_one(q_op)
    bound = t.bound
    if q_op.bound != bound or raiser.bound != bound:
        raise BadParameterError("operator bounds differ")
    r_powers, ladder = old_raiser_ladder(raiser)
    q_powers = q_op.powers(bound)

    # r_columns[m][i] is column m of raiser^i
    r_columns = list(zip(*(r.columns for r in r_powers)))
    # acc[k] is column k of the running reassembly. Q^j x^k is zero for
    # k < j, so step j adds q_j(raiser) Q^j x^k to the columns k >= j only.
    acc = [ZERO] * (bound + 1)
    coefficients = []
    for j in range(bound + 1):
        u = coordinates_in_table(ladder, t.columns[j] - acc[j])
        pivot = q_powers[j].columns[j].constant_term
        q_j = Polynomial(u).scale(1 / pivot)
        coefficients.append(q_j)
        if not q_j:
            continue
        # column m of q_j(raiser); Q^j x^k has degree k - j <= bound - j
        step = [_combine(q_j, r_columns[m]) for m in range(bound - j + 1)]
        for k in range(j, bound + 1):
            acc[k] = _combine(q_powers[j].columns[k], step, acc[k])
    return ExpansionResult(tuple(coefficients), lambda: OperatorMatrix(tuple(acc)))


@st.composite
def series_lowering_cases(draw):
    """N from 0 to 12; a delta series with any nonzero c1 over a custom or
    q-deformed family, of an order below, at or above N; the graded raiser
    of the series' family or of another one, or multiplication by x, one in
    four with a weight set to 0; and an operator to expand, sparse or
    dense."""
    bound = draw(st.integers(0, 12))
    family = draw_family(draw, bound + 1)
    order = max(1, bound + draw(st.integers(-2, 2)))
    tail = draw(st.lists(mixed_rationals, min_size=order - 1, max_size=order - 1))
    series = DeltaSeries.from_list(family, [0, draw(nonzero_rationals)] + tail, order)
    kind = draw(st.sampled_from(["own", "other", "multiplication"]))
    if kind == "multiplication":
        raiser = multiplication_x(bound)
    else:
        raiser = xhat_psi(family if kind == "own" else draw_family(draw, bound + 1), bound)
    if bound and draw(st.integers(0, 3)) == 0:  # raiser^i 1 = 0 for some i
        zeroed, weights = draw(st.integers(0, bound - 1)), raiser.weights
        raiser = weighted_shift(1, bound, lambda j: 0 if j == zeroed else weights[j])
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))
    t = OperatorMatrix(
        tuple(Polynomial(draw(st.lists(entries, max_size=bound + 1))) for _ in range(bound + 1))
    )
    return t, series, raiser


def recomposition_outcome(t, series, raiser):
    """The expansion over realize_delta_series(series), which must not
    reach the raiser ladder from N = 1 on, and the matrix route's."""
    q_op = realize_delta_series(series, t.bound)
    ladder = mock.patch.object(
        operators, "_expand_over_ladder", side_effect=AssertionError("ladder")
    )
    with ladder if t.bound else ExitStack():
        got = result_or_error(expand_in_dual_pair, t, q_op, raiser)
    return got, result_or_error(old_matrix_route_expand, t, q_op, raiser)


@settings(max_examples=120, deadline=None)
@given(case=series_lowering_cases())
def test_expansion_over_a_series_matches_the_matrix_route(case):
    t, series, raiser = case
    bound = t.bound
    q_op = realize_delta_series(series, bound)
    # a series operator keeps its series, read at the bound, and is equal to,
    # and hashes as, the matrix of its columns
    if series.polynomial.degree > 1:
        assert isinstance(q_op, operators.SeriesOperator)
        assert q_op.series.order == bound
        assert q_op.series.polynomial == series.polynomial.truncate(bound)
        assert q_op.series.base is series.base
    plain = OperatorMatrix(q_op.columns)
    assert q_op == plain and hash(q_op) == hash(plain)
    got, want = recomposition_outcome(t, series, raiser)
    if want[0] == "raises":
        assert got == want
        return
    got, want = got[1], want[1]
    for p, q in zip(got.coefficients + got.reassembled.columns,
                    want.coefficients + want.reassembled.columns, strict=True):
        same(p, q)
    assert got.reassembled.columns == t.columns


@st.composite
def ladder_route_cases(draw):
    """N from 0 to 10; a lowering by one: the forward difference, a random
    lower-by-one matrix, or the same matrix read from its `columns` texts
    through the CLI; a raiser: a random raise-by-one matrix with lower terms
    (not a weighted shift), the graded raiser of a family as a weighted
    shift or as a plain matrix, or multiplication by x, one in three with a
    column below the top cut to a lower degree, so that its ladder is
    singular; and an operator to expand, sparse or dense."""
    bound = draw(st.integers(0, 10))
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def rational(density=1.0):
        if rnd.random() >= density:
            return Fraction(0)
        return Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 4))

    def exact(degree, density=1.0):
        """A polynomial of this degree, lower terms at the density."""
        return Polynomial([rational(density) for _ in range(degree)] + [rational()])

    lowered = [ZERO] + [exact(j - 1, 0.5) for j in range(1, bound + 1)]
    kind = draw(st.sampled_from(["forward", "random", "columns"]))
    if kind == "forward":
        q_op = forward_difference(bound)
    elif kind == "random":
        q_op = OperatorMatrix(tuple(lowered))
    else:
        literal = {"columns": [p.to_text() for p in lowered]}
        q_op = cli.resolve_operator(literal, AdmissibleSequence.classical(bound + 1), bound)
    seq = draw_family(draw, bound + 1)
    kind = draw(st.sampled_from(["dense", "graded", "plain-graded", "multiplication"]))
    if kind == "dense":
        top = Polynomial([rational(0.5) for _ in range(bound + 1)])
        raiser = OperatorMatrix(tuple([exact(j + 1, 0.5) for j in range(bound)] + [top]))
    elif kind == "multiplication":
        raiser = multiplication_x(bound)
    else:
        raiser = xhat_psi(seq, bound)
        if kind == "plain-graded":
            raiser = OperatorMatrix(raiser.columns)
    if bound and draw(st.integers(0, 2)) == 0:
        cut = draw(st.integers(0, bound - 1))
        columns = list(raiser.columns)
        columns[cut] = columns[cut].truncate(draw(st.integers(-1, cut)))
        raiser = OperatorMatrix(tuple(columns))
    density = rnd.choice([0.25, 1.0])
    t = OperatorMatrix(tuple(
        Polynomial([rational(density) for _ in range(rnd.randint(0, bound + 1))])
        for _ in range(bound + 1)
    ))
    return t, q_op, raiser


@settings(max_examples=100, deadline=None)
@given(case=ladder_route_cases())
def test_expansion_over_the_ladder_matches_the_power_ladders(case):
    """The orbits give the coefficients and reassembly of the two power
    ladders they replaced, or the same error and message."""
    t, q_op, raiser = case
    got = result_or_error(operators._expand_over_ladder, t, q_op, raiser)
    want = result_or_error(old_matrix_route_expand, t, q_op, raiser)
    assert got[0] == want[0], (got, want)
    if want[0] == "raises":
        assert got == want
        return
    got, want = got[1], want[1]
    for p, q in zip(got.coefficients + got.reassembled.columns,
                    want.coefficients + want.reassembled.columns, strict=True):
        same(p, q)
    assert got.reassembled.columns == t.columns
    # no lowering here is a weighted shift, so the dual pair takes this route
    with mock.patch.object(operators, "_expand_over_shifts", side_effect=AssertionError):
        assert expand_in_dual_pair(t, q_op, raiser) == got


def test_recomposition_mutations_fail_the_differential_check():
    """g = q^<-1> replaced by q, and the top power of g dropped: each gives
    other coefficients than the matrix route, and a reassembly that misses T."""
    bound = 6
    rnd = random.Random(7)
    family = AdmissibleSequence.custom([Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
                                        for _ in range(bound + 1)], bound + 1)
    series = DeltaSeries.from_list(family, [0, Fraction(2, 3), 1, Fraction(-1, 2), 2], bound)
    t = OperatorMatrix(tuple(
        Polynomial([Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(bound + 1)])
        for _ in range(bound + 1)
    ))
    (_, got), (_, want) = recomposition_outcome(t, series, xhat_psi(family, bound))
    assert got == want and got.reassembled.columns == t.columns
    powers = DeltaSeries.powers
    mutations = [
        mock.patch.object(DeltaSeries, "compositional_inverse", lambda self: self),
        mock.patch.object(DeltaSeries, "powers", lambda self, count: powers(self, count)[:-1]),
    ]
    for mutation in mutations:
        with mutation:  # the reassembly is built on first read, so read it here
            (_, got), (_, want) = recomposition_outcome(t, series, xhat_psi(family, bound))
            assert got.coefficients != want.coefficients
            assert got.reassembled.columns != t.columns


# -- integer factorial tables, and series products cut at the order ----------------
#
# The `old_*` functions of this section are verbatim copies of the code that
# the integer tables `_factorial_table` and `_inverse_factorial_table` and the
# cut product `poly._product` replaced, except for their names, that methods
# became functions, that they call each other, and that they read the
# Fraction tables through `old_diagonal` and `inverse_factorials`.

SIGNED_QS = tuple([s * q for q in (2, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
                   for s in (1, -1)])
signed_rationals = st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(
    lambda v: v != 0
)


def draw_signed_family(draw, bound):
    """A custom family of random signed rationals, or a q-deformed one with
    q in +-{2, 1/2, 3/2, 2/3}, on `bound`."""
    if draw(st.booleans()):
        values = draw(st.lists(signed_rationals, min_size=bound, max_size=bound))
        return AdmissibleSequence.custom(values, bound)
    return AdmissibleSequence.q_deformed(draw(st.sampled_from(SIGNED_QS)), bound)


def draw_degree_and_family(draw, low=0):
    """A degree up to 24 and a family exactly as long as it, or one longer."""
    degree = draw(st.integers(low, 24))
    return degree, draw_signed_family(draw, max(degree + draw(st.integers(0, 1)), 1))


def old_table_apply_delta_series(s: DeltaSeries, p: Polynomial) -> Polynomial:
    seq = s.base
    if p.degree > seq.bound:  # the first nonzero coefficient past the family raises
        seq.factorial(next(j for j in range(seq.bound + 1, len(p.nums)) if p.nums[j]))
    scaled = old_diagonal(p, old_factorials(seq))
    out = _canonical(_convolve(s.polynomial.nums, scaled.nums), scaled.den * s.polynomial.den)
    return old_diagonal(out, inverse_factorials(seq))


def old_table_of_rows(seq: AdmissibleSequence, rows: list) -> SequenceTable:
    entries = [old_diagonal(t, inverse_factorials(seq)).scale(f)
               for t, f in zip(rows, old_factorials(seq))]
    table = SequenceTable(tuple(entries))
    object.__setattr__(table, "divided", (seq, tuple(rows)))
    return table


def old_eager_table_of_rows(seq: AdmissibleSequence, rows: list) -> SequenceTable:
    f, g = seq._factorial_table, seq._inverse_factorial_table
    entries = [_diagonal(t, g, c, f.den) for t, c in zip(rows, f.nums)]
    table = SequenceTable(tuple(entries))
    object.__setattr__(table, "divided", (seq, tuple(rows)))
    return table


def old_entry_row(p: Polynomial, n: int, seq: AdmissibleSequence) -> Polynomial:
    return old_diagonal(p, old_factorials(seq)).scale(inverse_factorials(seq)[n])


def recorded_reads():
    """A list of (entry, row) for every entry the addition rule converts to
    the divided powers, and the patch that records them."""
    reads = []

    def recorded(p, *weights):
        reads.append((p, _diagonal(p, *weights)))
        return reads[-1][1]

    return reads, mock.patch.object(sequences, "_diagonal", recorded)


def old_separating_sample(cells: list, n: int, seq: AdmissibleSequence, ys: list):
    inverse = inverse_factorials(seq)[: n + 1]
    den = math.lcm(*[w.denominator for w in inverse])
    weights = [w.numerator * (den // w.denominator) for w in inverse]
    rows = [[c * w for c, w in zip(row, weights)] for row in cells if any(row)]
    for y in ys:
        v = fr(y)
        p, q = v.numerator, v.denominator
        powers = [p**k * q ** (n - k) for k in range(n + 1)]
        if any(sum(map(mul, row, powers)) for row in rows):
            return y
    return None


def old_table_addition_rule_failure(table, partner, seq, y_values=None):
    ys = default_shift_samples(table.bound + 2) if y_values is None else list(y_values)

    def rows(tab: SequenceTable):
        """n -> entry n over n_psi! in the e_j of `seq`."""
        if tab.divided is not None and tab.divided[0] is seq:
            return tab.divided[1].__getitem__
        return lambda n: old_diagonal(tab[n], old_factorials(seq)).scale(inverse_factorials(seq)[n])

    row_t = rows(table)
    row_u = row_t if partner is table else rows(partner)
    t, u = [], []
    chained = True  # every degree below n holds
    for n in range(table.bound + 1):
        seq.n_psi(n)  # a family too short for the table raises here
        t.append(row_t(n))
        u.append(t[n] if partner is table else row_u(n))
        if chained and sequences._addition_chain_agrees(t, u, n) and (
            partner is table or sequences._addition_chain_agrees(u, u, n)
        ) or not chained and _addition_cells_agree(t, u, n):
            continue
        chained = False
        y = old_separating_sample(sequences._addition_cells(t, u, n), n, seq, ys)
        if y is not None:
            return n, y
    return None


def old_u_values(sheffer) -> tuple:
    """The u_k of `spectral_operator`, as it computed them."""
    seq = sheffer.seq
    bound = sheffer.bound
    basic = sheffer.basic
    s_inv = sheffer.s_series.multiplicative_inverse()
    log_prime = sheffer.s_series.formal_derivative().multiply(s_inv)
    # the constant term of log_prime(Q) p is sum_j c_j p_j j_psi!
    weights = old_diagonal(log_prime.polynomial, old_factorials(seq))
    u_values = []
    for k in range(1, bound + 1):
        lowered = old_xhat_psi_inverse(seq, basic.table[k])
        u_k = -Fraction(sum(map(mul, weights.nums, lowered.nums)), weights.den * lowered.den)
        u_values.append(u_k)
    return tuple(u_values)


def test_factorial_tables_are_the_fraction_tables():
    for seq in (AdmissibleSequence.custom([Fraction(-3, 2), 4, Fraction(5, 6), -1], 4),
                AdmissibleSequence.q_deformed(Fraction(-2, 3), 24),
                AdmissibleSequence.classical(12)):
        f, g = seq._factorial_table, seq._inverse_factorial_table
        canonical(f)
        canonical(g)
        assert f.coeffs == old_factorials(seq) == tuple([1 / v for v in inverse_factorials(seq)])
        assert g.coeffs == inverse_factorials(seq)


def test_factorial_and_binomial_are_the_old_fraction_values():
    """`factorial` and `binomial` read n_psi! from the integer table and
    give the Fractions of the table they replaced, up to bound 24."""
    families = conftest.family_roster(24) + [
        AdmissibleSequence.r_series([2, -2], Fraction(1, 3), 24),
        AdmissibleSequence.recurrence([2, 1], [1, -1], 24),
        AdmissibleSequence.custom([Fraction(-3, 2), 4, Fraction(5, 6), -1] * 6, 24),
    ]
    for seq in families:
        t = old_factorials(seq)
        for n in range(seq.bound + 1):
            f = seq.factorial(n)
            assert type(f) is Fraction and f == t[n], (seq.label, n)
            for k in range(n + 1):
                b = seq.binomial(n, k)
                assert type(b) is Fraction and b == t[n] / (t[k] * t[n - k]), (seq.label, n, k)


@st.composite
def table_action_cases(draw):
    """A family on a bound up to 24, a series of an order from 0 to past
    the bound, and a polynomial of degree up to the bound."""
    _, seq = draw_degree_and_family(draw)
    order = draw(st.integers(0, seq.bound + 2))
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))
    series = DeltaSeries.from_list(seq, draw(st.lists(entries, max_size=order + 1)), order)
    p = Polynomial(draw(st.lists(entries, max_size=seq.bound + 1)))
    return series, p


@settings(max_examples=150, deadline=None)
@given(case=table_action_cases())
def test_series_action_on_the_integer_tables_matches_the_fraction_route(case):
    series, p = case
    got = apply_delta_series(series, p)
    same(got, old_table_apply_delta_series(series, p))


def test_series_action_raises_for_a_term_past_the_family():
    """The guard, not `zip`, meets a nonzero term past the family: a
    truncated zip would drop it silently."""
    for seq in (AdmissibleSequence.custom([2, Fraction(-1, 3), 5], 3),
                AdmissibleSequence.q_deformed(Fraction(3, 2), 3)):
        s = DeltaSeries.from_list(seq, [1, Fraction(1, 2), -1], 6)
        for p in (Polynomial([0, 0, 0, 0, 1]), Polynomial([1, 2, 3, 0, 0, Fraction(1, 7)])):
            got = result_or_error(apply_delta_series, s, p)
            assert got[:2] == ("raises", UndefinedIndexError)
            assert got == result_or_error(old_table_apply_delta_series, s, p)
            assert got[2].endswith(f"factorial index {p.degree} outside 0..3")


@st.composite
def table_row_cases(draw):
    """A family and rows T_n of degree exactly n, n = 0..degree (degree up
    to 24, the family exactly as long or one longer)."""
    degree, seq = draw_degree_and_family(draw)
    size = (degree + 1) * (degree + 2) // 2
    nums = iter(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    rows = []
    for n in range(degree + 1):
        den = draw(st.integers(1, 6))
        row = [Fraction(next(nums), den) for _ in range(n + 1)]
        rows.append(Polynomial(row[:-1] + [row[-1] or Fraction(1, den)]))
    return seq, rows


@settings(max_examples=100, deadline=None)
@given(case=table_row_cases())
def test_table_of_rows_on_the_integer_tables_matches_the_fraction_route(case):
    seq, rows = case
    got, want = sequences._table_of_rows(seq, rows), old_table_of_rows(seq, rows)
    for p, q in zip(got, want, strict=True):
        same(p, q)
    assert got.divided[0] is seq and got.divided[1] == tuple(rows)
    # read back through the rule's conversion, each entry is its row again
    reads, patch = recorded_reads()
    plain = SequenceTable(got.entries)
    with patch:
        sequences.addition_rule_failure(plain, plain, seq)
    assert reads
    for p, row in reads:
        same(row, old_entry_row(p, p.degree, seq))
        assert row == rows[p.degree]


@st.composite
def table_rule_cases(draw):
    """The basic and a Sheffer table of a delta series, degree up to 24,
    without their rows or with one entry perturbed; the family that built
    them, one built separately, or another; and shift samples."""
    degree, seq = draw_degree_and_family(draw, low=1)
    q_series = DeltaSeries.from_list(
        seq, [0, draw(signed_rationals)] + draw(st.lists(mixed_rationals, max_size=3)), degree)
    s_series = DeltaSeries.from_list(seq, [draw(signed_rationals), draw(mixed_rationals)], degree)
    sheffer = sheffer_sequence(q_series, s_series, degree)
    tables = [sheffer.basic.table, sheffer.table]
    if draw(st.booleans()):
        n = draw(st.integers(0, degree))
        j = draw(st.integers(0, n))
        entries = list(tables[0])
        entries[n] = entries[n] + Polynomial.monomial(j, draw(signed_rationals))
        if entries[n].degree != n:
            entries[n] = entries[n] + Polynomial.monomial(n)
        tables[0] = SequenceTable(tuple(entries))
    family = draw(st.sampled_from([seq, dataclasses.replace(seq),
                                   draw_signed_family(draw, seq.bound)]))
    ys = draw(st.none() | st.lists(st.integers(-3, 3) | signed_rationals, max_size=4))
    return tables, family, ys


@settings(max_examples=80, deadline=None)
@given(case=table_rule_cases())
def test_entry_read_on_the_integer_tables_matches_the_fraction_route(case):
    (basic, sheffer), family, ys = case
    for table, partner in ((basic, basic), (sheffer, basic), (SequenceTable(basic.entries),) * 2):
        reads, patch = recorded_reads()
        with patch:
            got = result_or_error(sequences.addition_rule_failure, table, partner, family, ys)
        assert got == result_or_error(old_table_addition_rule_failure, table, partner, family, ys)
        for p, row in reads:  # entry n has degree n
            same(row, old_entry_row(p, p.degree, family))


@st.composite
def separating_cases(draw):
    """Cells of a degree-n rule (n up to 24) over a family: random sparse
    rows, and rows whose e_i(x) coefficient vanishes at chosen samples; and
    samples that start with those roots."""
    n, seq = draw_degree_and_family(draw)
    roots = draw(st.lists(st.integers(-3, 3), max_size=min(n, 3), unique=True))
    # r(y) = prod (y - root): coefficient k of row i is r_k k_psi! times a common scale
    r = ONE
    for root in roots:
        r = r * Polynomial([-root, 1])
    scale = math.lcm(*[seq.factorial(k).denominator for k in range(n + 1)])
    cells = []
    for i in range(n + 1):
        kind = draw(st.sampled_from(["zero", "random", "rooted"]))
        row = [0] * (n + 1 - i)
        if kind == "random":
            row = draw(st.lists(st.integers(-2, 2), min_size=n + 1 - i, max_size=n + 1 - i))
        elif kind == "rooted" and r.degree <= n - i:
            row[: r.degree + 1] = [int(c * seq.factorial(k) * scale) for k, c in enumerate(r.coeffs)]
        cells.append(row)
    ys = roots + draw(st.lists(st.integers(-4, 4) | signed_rationals, max_size=3))
    return cells, n, seq, ys


@settings(max_examples=200, deadline=None)
@given(case=separating_cases())
def test_separating_sample_on_the_integer_table_matches_the_fraction_route(case):
    cells, n, seq, ys = case
    assert sequences._separating_sample(cells, n, seq, ys) == old_separating_sample(
        cells, n, seq, ys)


@st.composite
def spectral_weight_cases(draw):
    """A Sheffer table of degree up to 24 (the family exactly as long or one
    longer) of a delta series and a prefactor with random signed terms."""
    degree, seq = draw_degree_and_family(draw, low=1)
    q_series = DeltaSeries.from_list(
        seq, [0, draw(signed_rationals)] + draw(st.lists(mixed_rationals, max_size=2)), degree)
    prefactor = [draw(signed_rationals)] + draw(st.lists(mixed_rationals, max_size=3))
    return sheffer_sequence(q_series, DeltaSeries.from_list(seq, prefactor, degree), degree)


@settings(max_examples=25, deadline=None)
@given(sheffer=spectral_weight_cases())
def test_spectral_weights_on_the_integer_table_match_the_fraction_route(sheffer):
    want = old_printed_divergence(sheffer, old_u_values(sheffer))
    assert spectral_operator(sheffer).printed_divergence == want


def old_wrap(self, p):
    return DeltaSeries.from_polynomial(self.base, p, self.order)


def old_cut_multiply(self, other):
    return old_wrap(self, self.polynomial * other.polynomial)


def old_cut_multiplicative_inverse(self):
    self.require_invertible()
    a = self.polynomial
    inverse, known = Polynomial([1 / a.constant_term]), 1  # terms below t^known
    while known <= self.order:
        top = min(2 * known, self.order + 1) - 1
        product = (a.truncate(top) * inverse).truncate(top)
        inverse = (inverse * (Polynomial([2]) - product)).truncate(top)
        known = top + 1
    return old_wrap(self, inverse)


def old_cut_compose(self, inner):
    g = inner.polynomial.truncate(self.order)
    if g.constant_term != 0:
        raise NotDeltaError("inner series must have zero constant term")
    out = self.polynomial
    acc = ZERO
    for v in reversed(out.nums):
        acc = (acc * g).truncate(self.order) + Polynomial([v])
    return old_wrap(self, acc.scale(Fraction(1, out.den)))


def old_cut_compositional_inverse(self):
    self.require_delta()
    top = self.order - 1
    h = old_cut_multiplicative_inverse(self.shift_down()).polynomial  # t / a(t)
    g, power = [Fraction(0)], ONE
    for k in range(1, self.order + 1):
        power = (power * h).truncate(top)
        g.append(power.coefficient(k - 1) / k)
    return old_wrap(self, Polynomial(g))


def old_cut_powers(self, count):
    out = [old_wrap(self, ONE)]
    for _ in range(count):
        out.append(old_cut_multiply(out[-1], self))
    return out


@st.composite
def cut_product_cases(draw):
    """Two series of orders up to 24 over one family, dense or sparse, with
    any constant term, the second sometimes of another order; a power count;
    and a bound from -1 to past both degrees for the bare product."""
    order = draw(st.integers(0, 24))
    seq = AdmissibleSequence.classical(max(order, 1))
    entries = draw(st.sampled_from([sparse_rationals, mixed_rationals]))

    def series(o):
        return DeltaSeries.from_list(seq, draw(st.lists(entries, max_size=o + 3)), o)

    a = series(order)
    b = series(draw(st.sampled_from([order, draw(st.integers(0, 24))])))
    return a, b, draw(st.integers(0, 4)), draw(st.integers(-1, 2 * order + 4))


@settings(max_examples=200, deadline=None)
@given(case=cut_product_cases())
def test_series_products_cut_at_the_order_match_the_whole_products(case):
    a, b, count, bound = case
    same(_product(a.polynomial, b.polynomial, bound), (a.polynomial * b.polynomial).truncate(bound))
    for new, old, args in (
        (DeltaSeries.multiply, old_cut_multiply, (a, b)),
        (DeltaSeries.multiply, old_cut_multiply, (b, a)),
        (DeltaSeries.multiplicative_inverse, old_cut_multiplicative_inverse, (a,)),
        (DeltaSeries.compose, old_cut_compose, (a, b)),
        (DeltaSeries.compose, old_cut_compose, (b, a)),
        (DeltaSeries.compositional_inverse, old_cut_compositional_inverse, (a,)),
        (DeltaSeries.powers, old_cut_powers, (a, count)),
    ):
        got, want = result_or_error(new, *args), result_or_error(old, *args)
        if want[0] == "raises":
            assert got == want
            continue
        assert got[0] == "value"
        got, want = got[1], want[1]
        for s, t in zip(*([got, want] if isinstance(got, list) else [[got], [want]]), strict=True):
            same(s.polynomial, t.polynomial)
            assert (s.base, s.order) == (t.base, t.order)


# -- one inverse per table ------------------------------------------------------
#
# `old_bareiss_coordinates` is `coordinates_in_table` as it was, one
# fraction-free (Bareiss) solve per polynomial, and `old_bareiss_umbral_operator`
# and `old_bareiss_eigen_series` are `umbral_operator` (one such solve per
# monomial column) and `eigen_series` over it, verbatim except for their names.


def old_bareiss_coordinates(table: SequenceTable, p: Polynomial) -> list:
    if p.degree > table.bound:
        raise DegreeOverflowError(
            f"degree {p.degree} exceeds table bound {table.bound}"
        )
    coords = [Fraction(0)] * (table.bound + 1)
    residue, den = list(p.nums), p.den
    for n in range(p.degree, -1, -1):
        c = residue.pop()
        if not c:
            continue
        entry = table[n]
        lead = entry.nums[n]
        if lead < 0:  # keeps den positive; r*lead - c*entry only changes sign
            lead, c = -lead, -c
        coords[n] = Fraction(c * entry.den, den * lead)
        if lead != 1:
            residue = [r * lead for r in residue]
        for i, e in enumerate(entry.nums[:n]):
            if e:
                residue[i] -= c * e
        den *= lead
        g = math.gcd(den, *residue)
        if g != 1:
            den //= g
            residue = [r // g for r in residue]
    return coords


def old_bareiss_umbral_operator(source: SequenceTable, images) -> OperatorMatrix:
    if len(images) != len(source):
        raise WrongFamilyError(f"{len(images)} images for a table of {len(source)} entries")
    return from_action(
        lambda p: _combine(Polynomial(old_bareiss_coordinates(source, p)), images), source.bound
    )


def old_bareiss_eigen_series(q_op: OperatorMatrix, truncation: int) -> list:
    require_lowers_by_one(q_op)
    if truncation > q_op.bound:
        raise DegreeOverflowError("eigenseries truncation beyond operator bound")
    lowered = SequenceTable(q_op.columns[1:])  # column n has degree n - 1
    phis = [ONE]
    for _ in range(truncation):
        phis.append(Polynomial([0] + old_bareiss_coordinates(lowered, phis[-1])))
    return phis


@st.composite
def random_triangular_tables(draw):
    """A triangular table of degree up to 12: entries of non-integer
    rationals, sparse or dense, some leads negative, and some sub-leading
    terms zero."""
    degree = draw(st.integers(0, 12))
    entries = []
    for n in range(degree + 1):
        cs = draw(st.lists(mixed_rationals, min_size=n, max_size=n))
        if n and draw(st.booleans()):
            cs[n - 1] = Fraction(0)
        entries.append(Polynomial(cs + [draw(nonzero_rationals)]))
    return SequenceTable(tuple(entries))


@st.composite
def roster_tables(draw):
    """The basic or Sheffer table of a fixed or random series pair over a
    roster family, at N up to 24."""
    degree = draw(st.sampled_from([2, 5, 12, 24]))
    seq = draw(st.sampled_from(conftest.family_roster(degree + 1)))
    tail = draw(st.lists(mixed_rationals, max_size=3))
    q_series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    s_coeffs = [draw(nonzero_rationals)] + draw(st.lists(mixed_rationals, max_size=3))
    if draw(st.booleans()):
        return basic_sequence_from_series(q_series, degree).table
    return sheffer_sequence(q_series, DeltaSeries.from_list(seq, s_coeffs, degree), degree).table


@settings(max_examples=60, deadline=None)
@given(table=st.one_of(random_triangular_tables(), roster_tables()), data=st.data())
def test_table_inverse_matches_the_bareiss_solves(table, data):
    """Coordinates, umbral operators and eigenseries read from the table's
    inverse are those of one Bareiss solve per polynomial, and so are the
    errors; the inverse is built once per table."""
    bound = table.bound
    polys = data.draw(st.lists(
        st.lists(mixed_rationals, max_size=bound + 2).map(Polynomial), min_size=1, max_size=4
    ))
    for p in polys + [Polynomial.monomial(j) for j in range(bound + 1)] + list(table):
        got = result_or_error(coordinates_in_table, table, p)
        assert got == result_or_error(old_bareiss_coordinates, table, p)
        if got[0] == "value":
            assert all(type(c) is Fraction for c in got[1]) and len(got[1]) == bound + 1
    for j, c in enumerate(table.inverse):
        same(c, Polynomial(old_bareiss_coordinates(table, Polynomial.monomial(j))))
    assert table.inverse is table.inverse

    images = data.draw(st.lists(sparse_polynomials(bound), min_size=bound, max_size=bound + 2))
    for targets in (images, list(table)[::-1][:bound] + [ZERO]):
        got = result_or_error(umbral_operator, table, targets)
        want = result_or_error(old_bareiss_umbral_operator, table, targets)
        if want[0] == "raises":
            assert got == want
        else:
            same_columns(got[1], want[1])

    # a lowering operator whose column n is entry n - 1 of the table
    q_op = OperatorMatrix(tuple([ZERO] + list(table)[:bound]))
    for truncation in (0, bound // 2, bound, bound + 1):
        got = result_or_error(eigen_series, q_op, truncation)
        want = result_or_error(old_bareiss_eigen_series, q_op, truncation)
        if want[0] == "raises":
            assert got == want
        else:
            assert len(got[1]) == len(want[1])
            for new, old in zip(got[1], want[1]):
                same(new, old)


# -- one search for the lowering relation, and the Sheffer checks as searches ------
#
# The `old_*` functions below are the checks the searches replaced, verbatim
# except for their names.


def old_verify_basic_for(q_op: OperatorMatrix, table: SequenceTable, seq: AdmissibleSequence) -> None:
    if table.bound != q_op.bound:
        raise BasisMismatchError("table bound differs from operator bound")
    if q_op.apply(table[0]):
        raise BasisMismatchError("entry 0 is not annihilated")
    for n in range(1, table.bound + 1):
        expected = table[n - 1].scale(seq.n_psi(n))
        if q_op.apply(table[n]) != expected:
            raise BasisMismatchError(f"lowering recurrence fails at entry {n}")


def old_verify_sheffer_definition(sheffer) -> CheckReport:
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


def old_verify_inverse_reconstruction(sheffer) -> CheckReport:
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


def old_generating_function_check(sheffer, z_order: int) -> CheckReport:
    """Compare s_j(x)/j_psi! with the product of the reciprocal prefactor and
    the graded exponential, both composed with the inverse of q(t)."""
    seq = sheffer.seq
    if z_order > sheffer.bound:
        raise BadParameterError("z order beyond the table bound")
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
            return CheckReport(
                False,
                "generating function mismatch",
                {"order": j, "lhs": lhs.to_text(), "rhs": rhs.to_text()},
            )
    return CheckReport(True, f"generating function matches to order {z_order}")


def old_verify_conjugation_transport(
    source_series: DeltaSeries,
    target_series: DeltaSeries,
    s_coeffs,
    bound: int,
    sheffer_s: DeltaSeries,
) -> dict:
    """Transport between two basic bases inside one shift-invariant algebra;
    `sheffer_image_is_sheffer` says whether the transport carries the Sheffer
    table of (source_series, sheffer_s) to a Sheffer table of the target.

    Every series must be over the family of `source_series`; raises
    WrongFamilyError otherwise."""
    seq = source_series.base
    for name, series in (("target_series", target_series), ("sheffer_s", sheffer_s)):
        if series.base != seq:
            raise WrongFamilyError(
                f"{name} is over another family ({series.base.label}) than "
                f"source_series ({seq.label})"
            )
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
        and conjugate_matches_target
        and substitution_matches
        and sheffer_image_ok,
    }


def first_witness(search, *args):
    """The first witness `search(*args)` yields, or None."""
    return next(search(*args), None)


def report_witness(check, *args):
    """None when the report of `check(*args)` passed, else its witness."""
    report = check(*args)
    return None if report.passed else report.witness


def transport_witness(old, *args):
    """None when `old(*args)` passed, else its flags."""
    report = old(*args)
    return None if report["passed"] else {k: v for k, v in report.items() if k != "passed"}


@st.composite
def lowering_cases(draw):
    """A roster family at N up to 12, sometimes shortened by up to three
    indices; the Sheffer table of a random (Q, S) pair over it and its basic
    table, perturbed copies of both (one or two entries moved, the lead
    included, as in `verdict_cases`), a target series for the transport,
    and a z order up to N + 1."""
    degree = draw(st.sampled_from([1, 2, 5, 8, 12]))
    seq = draw(st.sampled_from(conftest.family_roster(degree + 1)))
    tail = draw(st.lists(mixed_rationals, max_size=3))
    q_series = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    s_coeffs = [draw(nonzero_rationals)] + draw(st.lists(mixed_rationals, max_size=3))
    sheffer = sheffer_sequence(q_series, DeltaSeries.from_list(seq, s_coeffs, degree), degree)

    def perturbed(table):
        entries = list(table.entries)
        for _ in range(draw(st.integers(1, 2))):
            n = draw(st.integers(0, degree))
            moved = entries[n] + Polynomial.monomial(draw(st.integers(0, n)),
                                                     draw(nonzero_rationals))
            if moved.degree == n:
                entries[n] = moved
        return SequenceTable(tuple(entries))

    basic, shef = sheffer.basic.table, sheffer.table
    tables = [shef, perturbed(shef), basic, perturbed(basic)]
    short = min(draw(st.integers(0, 3)), degree) if draw(st.booleans()) else 0
    family = AdmissibleSequence.custom(seq.values[1:], degree + 1 - short) if short else seq
    tail = draw(st.lists(mixed_rationals, max_size=3))
    target = DeltaSeries.from_list(seq, [0, draw(nonzero_rationals)] + tail, degree)
    return sheffer, family, tables, target, draw(st.integers(0, degree + 1))


@settings(max_examples=40, deadline=None)
@given(case=lowering_cases())
def test_lowering_and_sheffer_searches_match_the_old_reports(case):
    """Each search yields no witness exactly when the old report passed, and
    otherwise first the old witness, or both raise the same error; the
    z-order guard raises at the call. `dual_operator` raises what the old
    check raised, with entry 0 named as every other entry, and builds the
    dual raiser where it passed."""
    sheffer, family, tables, target, z_order = case
    degree = sheffer.bound
    q_ops = [sheffer.q_op, psi_derivative(sheffer.seq, degree), identity_operator(degree),
             identity_operator(degree + 1)]
    for table in tables:
        for q_op in q_ops:
            got = result_or_error(dual_operator, q_op, table, family)
            want = result_or_error(old_verify_basic_for, q_op, table, family)
            if want == ("raises", BasisMismatchError, "entry 0 is not annihilated"):
                want = ("raises", BasisMismatchError, "lowering recurrence fails at entry 0")
            if want[0] == "raises":
                assert got == want
            else:
                assert got[0] == "value" and isinstance(got[1], OperatorMatrix)
        mixed = dataclasses.replace(sheffer, seq=family, table=table)
        got = result_or_error(first_witness, lowering_failures, mixed.q_op, table, family)
        assert got == result_or_error(report_witness, old_verify_sheffer_definition, mixed)
        got = result_or_error(first_witness, inverse_reconstruction_failures, mixed)
        assert got == result_or_error(report_witness, old_verify_inverse_reconstruction, mixed)
        got = result_or_error(first_witness, generating_function_failures, mixed, z_order)
        want = result_or_error(report_witness, old_generating_function_check, mixed, z_order)
        assert got == want
    if z_order > degree:
        with pytest.raises(BadParameterError, match="z order beyond the table bound"):
            generating_function_failures(sheffer, z_order)

    # the transport of the Sheffer table, and of each copy the source's
    # Sheffer table is replaced by
    args = (sheffer.q_series, target, [1, 1, Fraction(1, 2)], degree, sheffer.s_series)
    for table in tables[:2]:
        moved = dataclasses.replace(sheffer, table=table)
        with mock.patch.object(spectral, "sheffer_sequence", lambda *_: moved), \
                mock.patch.dict(globals(), {"sheffer_sequence": lambda *_: moved}):
            got = result_or_error(first_witness, conjugation_transport_failures, *args)
            want = result_or_error(transport_witness, old_verify_conjugation_transport, *args)
        assert got == want


# -- nothing built that no caller reads ---------------------------------------


def old_mutator_failures(basic, raiser, qhat):
    q_op = basic.q_op
    bracket = q_op.compose(raiser).subtract(qhat.compose(raiser.compose(q_op)))
    for n in range(basic.bound):
        got = bracket.apply(basic.table[n])
        if got != basic.table[n]:
            yield {"n": n, "got": got.to_text()}


def old_poisson_raising_route(ctx, lam, m_max):
    lam = Fraction(lam)
    out = []
    for m in range(m_max + 1):
        acc = Polynomial()
        power = ONE  # R^k 1 / k!
        for k in range(ctx.bound - m + 1):
            acc = acc + power.scale((-lam) ** k)
            if k < ctx.bound - m:
                power = ctx.raiser.apply(power).scale(Fraction(1, k + 1))
        vec = acc
        for i in range(m):
            vec = ctx.raiser.apply(vec)
        out.append(vec.scale(lam**m / math.factorial(m)))
    return out


@dataclasses.dataclass(frozen=True)
class OldIndicatorResult:
    coefficients: tuple
    routes_agree: bool


def old_indicator(t, q_op, truncation):
    expansion = expand_in_dual_pair(t, q_op, multiplication_x(t.bound))
    direct = tuple(expansion.coefficients[: truncation + 1])

    phis = eigen_series(q_op, truncation)
    t_phis = [t.apply(p) for p in phis]
    inv = [ONE]
    for r in range(1, truncation + 1):
        acc = Polynomial()
        for i in range(1, r + 1):
            acc = acc + phis[i] * inv[r - i]
        inv.append(-acc)
    conjugated = []
    for j in range(truncation + 1):
        acc = Polynomial()
        for i in range(j + 1):
            acc = acc + inv[i] * t_phis[j - i]
        conjugated.append(acc)
    return OldIndicatorResult(direct, list(direct) == conjugated)


@pytest.mark.parametrize("degree", [2, 5, 12])
def test_mutator_search_matches_the_bracket_matrix(degree):
    """The same witnesses in the same order, for the monomial and composite
    basic tables, the shift, dual and a random raiser, and the graded and
    literal qhat; the dual raiser and literal qhat fail on most families."""
    rng = random.Random(degree)
    for seq in conftest.family_roster(degree + 1):
        monomial = basic_sequence(psi_derivative(seq, degree), seq, degree)
        series = DeltaSeries.from_list(seq, [0, 1, 1], degree)
        for basic in (monomial, basic_sequence_from_series(series, degree)):
            raisers = (shift_raiser(basic), basic.raiser,
                       harness._random_triangular_operator(rng, degree))
            for raiser in raisers:
                for qhat in (qhat_operator(basic), qhat_operator(basic, one=1)):
                    got = list(mutator_failures(basic, raiser, qhat))
                    assert got == list(old_mutator_failures(basic, raiser, qhat)), seq.label


@pytest.mark.parametrize("degree", [2, 7, 12])
def test_poisson_raising_route_matches_the_raiser_power_loop(degree):
    for seq in conftest.family_roster(degree + 1):
        ctx = StarContext.create(seq, degree)
        for lam in (0, Fraction(1, 2), Fraction(-2, 3), 1):
            for m_max in (0, degree // 2, degree):
                got = poisson_raising_route(ctx, lam, m_max)
                assert got == old_poisson_raising_route(ctx, lam, m_max), (seq.label, lam)


@pytest.mark.parametrize("degree", [2, 8, 12])
def test_indicator_is_the_old_verdict(degree):
    """On the harness samples and random triangular operators, over the
    family lowering and the forward difference, and with a wrong eigenseries,
    whose verdicts fail."""
    rng = random.Random(degree)
    real = eigen_series

    def wrong_eigen_series(q_op, truncation):
        phis = real(q_op, truncation)
        return phis[:1] + [p.scale(2) for p in phis[1:]]

    for seq in conftest.family_roster(degree + 1):
        d = psi_derivative(seq, degree)
        samples = [
            realize_delta_series(DeltaSeries.from_list(seq, [0, 1, 1], degree), degree),
            xhat_psi(seq, degree).compose(d),
            harness._random_triangular_operator(rng, degree),
            harness._random_triangular_operator(rng, degree),
        ]
        for q_op in (d, forward_difference(degree)):
            for t in samples:
                for truncation in (0, min(8, degree)):
                    want = old_indicator(t, q_op, truncation).routes_agree
                    assert indicator(t, q_op, truncation) is want
                with mock.patch.object(operators, "eigen_series", wrong_eigen_series), \
                        mock.patch.dict(globals(), {"eigen_series": wrong_eigen_series}):
                    want = old_indicator(t, q_op, degree).routes_agree
                    assert indicator(t, q_op, degree) is want


# -- operators given by weights are weighted shifts ---------------------------------


def old_dual_operator(q_op, table, seq):
    """Raising companion of a lowering operator in its own basic basis.

    Sends entry n to ((n+1)/(n+1)_psi) entry n+1; the image of the top entry
    is lost to truncation. Raises BasisMismatchError if the table is not the
    basic sequence of the operator.
    """
    if table.bound != q_op.bound:
        raise BasisMismatchError("table bound differs from operator bound")
    for witness in lowering_failures(q_op, table, seq):
        raise BasisMismatchError(f"lowering recurrence fails at entry {witness['n']}")
    images = [
        table[i + 1].scale(Fraction(i + 1) / seq.n_psi(i + 1))
        for i in range(table.bound)
    ]
    return umbral_operator(table, images + [Polynomial()])


def old_shift_raiser(basic):
    """Unscaled basic shift p_n -> (1/1_psi) p_{n+1}, top entry truncated."""
    scale = 1 / basic.seq.n_psi(1)
    images = [p.scale(scale) for p in basic.table.entries[1:]]
    return umbral_operator(basic.table, images + [Polynomial()])


def old_qhat_eigenvalues(seq, bound, one):
    values = [Fraction(0)] * (bound + 1)
    for n in range(1, bound + 1):
        values[n] = (seq.n_psi(n + 1) - one) / seq.n_psi(n)
    values[0] = values[1]
    return values


def old_qhat_operator(basic, one=None):
    one = basic.seq.n_psi(1) if one is None else one
    values = old_qhat_eigenvalues(basic.seq, basic.bound, one)
    return umbral_operator(basic.table, [p.scale(v) for p, v in zip(basic.table, values)])


def old_definitional(table):
    """The definitional spectral operator: eigenvalue n on entry n."""
    return umbral_operator(table, [p.scale(n) for n, p in enumerate(table)])


def old_induced_lowering(seq, table, bound):
    """The lowering operator the reparameterization certificate induces."""
    lowered = [Polynomial()] + [table[n - 1].scale(seq.n_psi(n)) for n in range(1, bound + 1)]
    return umbral_operator(table, lowered)


def induced_lowering(seq, q_series, table, bound):
    """The operator `harness._reparameterization_certificate` detects."""
    seen = []
    with mock.patch.object(harness, "_round_trip", lambda op, candidate: seen.append(op)):
        harness._reparameterization_certificate(seq, q_series, table, bound)
    [op] = seen
    return op


def old_dilate(p, q):
    """Return p(q*x)."""
    q = fr(q)
    return _diagonal(p, Polynomial([q**j for j in range(len(p.nums))]))


def weighted_tables(seq, degree):
    """(label, Sheffer sequence): the monomial and the composite and random
    series-built basic tables, as Sheffer tables with S = 1, and the
    harness's appell, composite and random Sheffer tables."""
    rng = random.Random(degree)
    one = DeltaSeries.from_list(seq, [1], degree)
    series = [DeltaSeries.from_list(seq, [0, 1], degree), DeltaSeries.from_list(seq, [0, 1, 1], degree),
              harness._random_series(seq, rng, degree, [0, harness._nonzero(rng)])]
    out = [(label, sheffer_sequence(q, one, degree))
           for label, q in zip(("monomial", "composite", "random"), series)]
    labels = ("appell", "composite", "random")
    return out + [(f"sheffer-{label}", sheffer)
                  for label, sheffer in harness._sheffer_tables(seq, rng, degree, labels)]


@pytest.mark.parametrize("degree", range(2, 17))
def test_table_operators_are_the_old_image_lists(degree):
    """The dual raiser, the shift raiser, qhat (graded and literal), the
    definitional spectral operator and the certificate's induced lowering,
    each a weighted shift conjugated to a table, against the image lists
    they replaced; a Sheffer table stands in for a basic one where only its
    entries are read."""
    for seq in conftest.family_roster(degree + 1):
        for label, sheffer in weighted_tables(seq, degree):
            table, q_op = sheffer.table, sheffer.q_op
            as_basic = sequences.BasicSequence(seq, q_op, table)
            pairs = [
                (dual_operator(q_op, table, seq), old_dual_operator(q_op, table, seq)),
                (shift_raiser(as_basic), old_shift_raiser(as_basic)),
                (qhat_operator(as_basic), old_qhat_operator(as_basic)),
                (qhat_operator(as_basic, one=1), old_qhat_operator(as_basic, one=1)),
                (spectral_operator(sheffer).definitional, old_definitional(table)),
                (induced_lowering(seq, None, table, degree),
                 old_induced_lowering(seq, table, degree)),
            ]
            for i, (new, old) in enumerate(pairs):
                assert new.bound == old.bound == degree, (seq.label, label, i)
                for got, want in zip(new.columns, old.columns, strict=True):
                    same(got, want)


@pytest.mark.parametrize("q", [2, Fraction(1, 2), Fraction(-3, 2), 0, -1])
def test_dilation_and_identity_are_the_old_actions(q):
    for bound in range(17):
        new = dilation(q, bound)
        same_shift(new)
        assert new.step == 0
        for got, want in zip(new.columns, from_action(lambda p: old_dilate(p, q), bound).columns,
                             strict=True):
            same(got, want)
        ident = identity_operator(bound)
        same_shift(ident)
        assert ident.columns == from_action(lambda p: p, bound).columns


def random_lowering(rng, degree):
    """Column j of degree exactly j - 1: lead in {1, 2, 3, -1}, lower
    coefficients of denominator up to 3."""
    columns = [ZERO]
    for j in range(1, degree + 1):
        lower = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(j - 1)]
        columns.append(Polynomial(lower + [rng.choice([1, 2, 3, -1])]))
    return OperatorMatrix(tuple(columns))


@pytest.mark.parametrize("degree", [10, 24])
def test_a_lowering_is_the_graded_derivative_conjugated_to_its_basic_table(degree):
    """Q = Phi d_psi Phi^-1 with Phi: x^n -> p_n, the basic table of Q
    (Markowsky, 1978; Roman, 1984, ch. 2), for the forward difference, a
    random lowering and a series-built table's own Q."""
    rng = random.Random(degree)
    for seq in conftest.family_roster(degree + 1):
        d = psi_derivative(seq, degree)
        for q_op in (forward_difference(degree), random_lowering(rng, degree)):
            assert table_conjugate(basic_sequence(q_op, seq, degree).table, d) == q_op, seq.label
        series = harness._random_series(seq, rng, degree, [0, harness._nonzero(rng)])
        basic = basic_sequence_from_series(series, degree)
        assert table_conjugate(basic.table, d) == basic.q_op, seq.label


@settings(max_examples=100, deadline=None)
@given(case=table_row_cases())
def test_row_tables_form_the_eager_entries_on_first_read(case):
    """A table built from its rows forms no entry until one is read, and
    then the entries of the eager conversion; it equals, and hashes, reprs
    and writes as, the table of those entries."""
    seq, rows = case
    got = sequences._table_of_rows(seq, rows)
    assert (got.bound, len(got), got.divided) == (len(rows) - 1, len(rows), (seq, tuple(rows)))
    assert "entries" not in vars(got)
    want = old_eager_table_of_rows(seq, rows)
    for p, q in zip(got.entries, want.entries, strict=True):
        same(p, q)
    assert vars(got)["entries"] is got.entries
    # each on a fresh table, whose entries are not yet formed
    plain, fresh = SequenceTable(want.entries), lambda: sequences._table_of_rows(seq, rows)
    assert fresh() == plain and plain == fresh() and hash(fresh()) == hash(plain)
    assert repr(fresh()) == repr(plain) and fresh().to_json() == plain.to_json()


@settings(max_examples=40, deadline=None)
@given(case=row_table_cases())
def test_accepted_addition_checks_form_no_entries(case):
    """The basic and Sheffer tables of a series pass both addition checks on
    their rows: no entry is formed, no factorial table of the family, and
    no default shift samples."""
    seq, q_series, s_series, degree, _, _ = case
    s_series = DeltaSeries.from_list(seq, s_series.coeffs, degree)
    with mock.patch.object(psi, "_running_products", wraps=psi._running_products) as counted, \
            mock.patch.object(sequences, "default_shift_samples",
                              wraps=default_shift_samples) as sampled:
        sheffer = sheffer_sequence(q_series, s_series, degree)
        assert verify_binomial_type(sheffer.basic.table, seq).passed
        assert verify_sheffer_binomial(sheffer).passed
    assert counted.call_count == 0 and sampled.call_count == 0
    assert "_factorial_table" not in vars(seq) and "_inverse_factorial_table" not in vars(seq)
    for table in (sheffer.basic.table, sheffer.table):
        assert "entries" not in vars(table) and table.bound == degree
        # read, they are the entries of the eager conversion
        assert table.entries == old_eager_table_of_rows(seq, table.divided[1]).entries


def test_a_malformed_row_is_refused_when_the_table_is_built():
    seq = AdmissibleSequence.q_deformed(Fraction(2), 4)
    for rows, message in (([ONE, Polynomial([1])], "table entry 1 has degree 0, expected 1"),
                          ([X], "table entry 0 has degree 1, expected 0"),
                          ([ONE, X, ZERO], "table entry 2 has degree -1, expected 2")):
        with pytest.raises(BasisMismatchError) as info:
            sequences._table_of_rows(seq, rows)
        assert str(info.value) == message
    assert "_factorial_table" not in vars(seq)


def old_fr_text(value: str) -> Fraction:
    """`fr` on a string before plain integers and quotients were read with
    int(): Fraction parsed every string."""
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        pass
    raise BadParameterError(f"not an exact rational: {value!r}")


# strings of the plain grammar -?[0-9]+(/[0-9]+)?, strings near it (signs,
# spaces, underscores, exponents, non-ASCII digits), and any short text
near_plain_text = st.lists(
    st.sampled_from(list("0123456789-/+_ .e") + ["\t", "\n", "٣", "１", "²"]),
    max_size=8,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True) | near_plain_text
       | st.text(max_size=8) | st.sampled_from([
           "-0", "007/010", "1/0", "0/0", "-0/7", "+3", " 2/3 ", "3/-2", "1_0", "1/2_0",
           "٣/٤", "１２", "1e3", "1.5", "1/2/3", "-", "/", "", "1" * 5000,
           "1/" + "2" * 5000, "9" * 4300]))
def test_plain_rational_text_reads_as_fraction_did(text):
    got, want = result_or_error(fr, text), result_or_error(old_fr_text, text)
    assert got == want
    assert got[0] == "raises" or type(got[1]) is Fraction
