"""Linear operators on the degree-bounded polynomial space.

An operator is stored as its matrix in the monomial basis: column j is the
image of x^j, itself a polynomial of degree at most the bound N. Operators
that genuinely raise degree lose their top column to truncation; validity
windows downstream account for that. A `WeightedShift` x^j -> w_j x^(j + s)
keeps its step s and weights w_j as built, and a `SeriesOperator` its series
in the family lowering operator; operators compare by columns. Matrix powers
are built only where they are compared; elsewhere an orbit is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable

from .errors import (
    BadParameterError,
    BasisMismatchError,
    DegreeOverflowError,
    NotDegreeLoweringError,
    SingularOperatorError,
    WrongFamilyError,
)
from .poly import (
    ONE,
    ZERO,
    _ZERO,
    Polynomial,
    SequenceTable,
    _canonical,
    _combine,
    _convolve,
    _over_one_lcm,
    _raised_sum,
    _running_products,
    coordinates_in_table,
    fr,
)
from .psi import AdmissibleSequence
from .series import DeltaSeries

LOWERS_BY_ONE = "lowers_by_one"
RAISES_BY_ONE = "raises_by_one"
PRESERVES = "preserves"
UNGRADED = "ungraded"


@dataclass(frozen=True)
class OperatorMatrix:
    """Columns (images of the monomials) of an operator on degrees 0..bound."""

    columns: tuple

    def __post_init__(self):
        columns = tuple(self.columns)
        object.__setattr__(self, "columns", columns)
        bound = len(columns) - 1
        if bound < 0:
            raise BadParameterError("operator needs at least one column")
        for j, col in enumerate(columns):
            if col.degree > bound:
                raise DegreeOverflowError(
                    f"column {j} has degree {col.degree} above bound {bound}"
                )

    @property
    def bound(self) -> int:
        return len(self.columns) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorMatrix) and self.columns == other.columns

    def apply(self, p: Polynomial) -> Polynomial:
        if p.degree > self.bound:
            raise DegreeOverflowError(
                f"input degree {p.degree} exceeds operator bound {self.bound}"
            )
        return _combine(p, self.columns)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Matrix of self applied after other."""
        if other.bound != self.bound:
            raise BadParameterError("operator bounds differ")
        return OperatorMatrix(tuple([self.apply(col) for col in other.columns]))

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.bound != self.bound:
            raise BadParameterError("operator bounds differ")
        return OperatorMatrix(
            tuple([a + b for a, b in zip(self.columns, other.columns)])
        )

    def subtract(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.bound != self.bound:
            raise BadParameterError("operator bounds differ")
        return OperatorMatrix(
            tuple([a - b for a, b in zip(self.columns, other.columns)])
        )

    def scale(self, c) -> "OperatorMatrix":
        c = fr(c)
        return OperatorMatrix(tuple([col.scale(c) for col in self.columns]))

    def powers(self, count: int) -> list:
        """The ladder [I, M, ..., M^count]."""
        if count < 0:
            raise BadParameterError("negative operator power")
        out = [identity_operator(self.bound), self]
        for _ in range(count - 1):
            out.append(self.compose(out[-1]))
        return out[: count + 1]

    def orbit(self, v: Polynomial, count: int) -> list:
        """The vectors [v, M v, ..., M^count v], one apply each."""
        out = [v]
        for _ in range(count):
            out.append(self.apply(out[-1]))
        return out

    @property
    def grading(self) -> str:
        n = self.bound
        cols = self.columns
        if not cols[0] and all(cols[j].degree == j - 1 for j in range(1, n + 1)):
            return LOWERS_BY_ONE
        if all(cols[j].degree == j + 1 for j in range(n)):
            return RAISES_BY_ONE
        if all(not cols[j] or cols[j].degree == j for j in range(n + 1)):
            return PRESERVES
        return UNGRADED

    def agreement_window(self, other: "OperatorMatrix") -> int:
        """Largest d with columns 0..d identical (-1 if none agree)."""
        d = -1
        for j in range(min(self.bound, other.bound) + 1):
            if self.columns[j] != other.columns[j]:
                break
            d = j
        return d

    @staticmethod
    def from_json(data) -> "OperatorMatrix":
        return OperatorMatrix(tuple([Polynomial(col) for col in data]))


def from_action(action, bound: int) -> OperatorMatrix:
    """The matrix whose column j is action(x^j): a linear map on degrees
    0..bound is fixed by its images of the monomials."""
    return OperatorMatrix(tuple([action(Polynomial.monomial(j)) for j in range(bound + 1)]))


@dataclass(frozen=True, eq=False)
class WeightedShift(OperatorMatrix):
    """x^j -> weights[j] x^(j + step); weights[j] is 0 where the image would
    leave degrees 0..bound."""

    step: int
    weights: tuple


def weighted_shift(step: int, bound: int, weight) -> WeightedShift:
    """x^j -> weight(j) x^(j + step). `weight` is asked only for the columns
    whose image stays within degrees 0..bound, so a family just long enough
    for those columns is never read past its end; the others are zero."""
    weights = tuple([fr(weight(j)) if 0 <= j + step <= bound else _ZERO for j in range(bound + 1)])
    columns = [Polynomial.monomial(j + step, w) if w else ZERO for j, w in enumerate(weights)]
    return WeightedShift(tuple(columns), step, weights)


def identity_operator(bound: int) -> WeightedShift:
    return weighted_shift(0, bound, lambda j: 1)


def zero_operator(bound: int) -> OperatorMatrix:
    return OperatorMatrix(tuple([Polynomial() for _ in range(bound + 1)]))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a.compose(b).subtract(b.compose(a))


def require_lowers_by_one(op: OperatorMatrix) -> OperatorMatrix:
    if op.grading != LOWERS_BY_ONE:
        raise NotDegreeLoweringError(
            f"operator grading is {op.grading}, expected {LOWERS_BY_ONE}"
        )
    return op


# -- generators ------------------------------------------------------------


def psi_derivative(seq: AdmissibleSequence, bound: int) -> OperatorMatrix:
    """Lowering operator graded by the family: x^n -> n_psi x^{n-1}."""
    return weighted_shift(-1, bound, seq.n_psi)


def xhat_psi(seq: AdmissibleSequence, bound: int) -> OperatorMatrix:
    """Dual raising operator: x^n -> ((n+1)/(n+1)_psi) x^{n+1}, top truncated."""
    return weighted_shift(1, bound, lambda j: Fraction(j + 1) / seq.n_psi(j + 1))


def multiplication_x(bound: int) -> OperatorMatrix:
    """Multiplication by x with the top column truncated away."""
    return weighted_shift(1, bound, lambda j: 1)


def dilation(q, bound: int) -> WeightedShift:
    """Scale substitution p(x) -> p(q x): x^j -> q^j x^j."""
    q = fr(q)
    return weighted_shift(0, bound, lambda j: q**j)


def jackson_operator(q, bound: int) -> WeightedShift:
    """Jackson derivative (p(x) - p(qx)) / ((1-q) x): x^j -> [j]_q x^(j-1),
    [j]_q = (1 - q^j) / (1 - q)."""
    q = fr(q)
    if q == 1:
        raise BadParameterError("jackson derivative undefined at q = 1")
    return weighted_shift(-1, bound, lambda j: (1 - q**j) / (1 - q))


def divided_difference(bound: int) -> WeightedShift:
    """(p(x) - p(0)) / x: x^j -> x^(j-1)."""
    return weighted_shift(-1, bound, lambda j: 1)


def forward_difference(bound: int) -> OperatorMatrix:
    """p(x) -> p(x+1) - p(x)."""
    shifted = Polynomial([1, 1])
    return from_action(lambda p: p.compose(shifted) - p, bound)


def nhat_diagonal(seq: AdmissibleSequence, bound: int) -> OperatorMatrix:
    """Diagonal x^m -> (m+1)_psi x^m (needs the family valid to bound+1)."""
    return weighted_shift(0, bound, lambda j: seq.n_psi(j + 1))


def generalized_shift(seq: AdmissibleSequence, p: Polynomial, y) -> Polynomial:
    """E^y p = exp_psi(yQ) p = sum_j p_j sum_k binom_psi(j,k) y^k x^(j-k),
    since binom_psi(j,k) y^k x^(j-k) = (y^k / k_psi!) Q^k x^j."""
    y = fr(y)
    if p:
        seq.n_psi(p.degree)  # a family too short for p raises UndefinedIndexError
    exp_y = seq.exp_polynomial(y, p.degree)
    return apply_delta_series(DeltaSeries.from_polynomial(seq, exp_y, p.degree), p)


def apply_delta_series(s: DeltaSeries, p: Polynomial) -> Polynomial:
    """sum_k c_k Q^k p with Q the family lowering operator, no matrix built.

    Q^k x^j = (j)_k,psi x^(j-k) = (j_psi! / (j-k)_psi!) x^(j-k), so on the
    coordinates a_j = p_j j_psi! of p in the divided powers x^j / j_psi! the
    series acts as one integer convolution out_i = sum_k c_k a_(i+k): one
    product per pair of nonzero entries. The coordinates and the way back,
    out_i / i_psi!, read the family's integer factorial tables, so the whole
    action is one pass on integers ending in one canonical form.
    """
    seq = s.base
    if p.degree > seq.bound:  # the first nonzero coefficient past the family raises
        seq.factorial(next(j for j in range(seq.bound + 1, len(p.nums)) if p.nums[j]))
    f, g, c = seq._factorial_table, seq._inverse_factorial_table, s.polynomial
    out = _convolve(c.nums, [a * w for a, w in zip(p.nums, f.nums)])
    return _canonical([v * w for v, w in zip(out, g.nums)], p.den * f.den * c.den * g.den)


@dataclass(frozen=True, eq=False)
class SeriesOperator(OperatorMatrix):
    """sum_k c_k Q^k, Q the lowering operator of the family of `series`,
    which is read at the bound."""

    series: DeltaSeries


def realize_delta_series(s: DeltaSeries, bound: int) -> OperatorMatrix:
    """Matrix of sum_k c_k Q^k, for a series that is composed or reused;
    a single use is `apply_delta_series`. Within the family, c Q is the
    weighted shift x^j -> c j_psi x^(j-1); any other series is a
    `SeriesOperator` that keeps it."""
    if s.polynomial.degree == 1 and not s.coefficient(0) and bound <= s.base.bound:
        return weighted_shift(-1, bound, lambda j: s.coefficient(1) * s.base.n_psi(j))
    columns = from_action(lambda p: apply_delta_series(s, p), bound).columns
    return SeriesOperator(columns, s.at_order(bound))


def operator_polynomial(p: Polynomial, m: OperatorMatrix) -> OperatorMatrix:
    """Matrix of p(M) = sum_k p_k M^k."""
    return from_action(lambda v: operator_polynomial_applied(p, m, v), m.bound)


def operator_polynomial_applied(p: Polynomial, m: OperatorMatrix, start: Polynomial) -> Polynomial:
    """p(M) applied to `start` without building the matrix."""
    return _combine(p, m.orbit(start, max(p.degree, 0)))


# -- change of basis ----------------------------------------------------------


def umbral_operator(source: SequenceTable, images) -> OperatorMatrix:
    """The linear map sending source entry n to images[n]: column j
    combines the images by the coordinates of x^j in the source table.

    `images` holds bound + 1 polynomials, such as the entries of another
    table; a truncated top image is the zero polynomial.
    """
    if len(images) != len(source):
        raise WrongFamilyError(f"{len(images)} images for a table of {len(source)} entries")
    return OperatorMatrix(tuple([_combine(c, images) for c in source.inverse]))


def table_conjugate(table: SequenceTable, op: OperatorMatrix) -> OperatorMatrix:
    """Phi op Phi^-1, Phi: x^j -> table[j]: the operator that acts on the
    table's entries as `op` acts on the monomials (Roman, 1984, ch. 2)."""
    return umbral_operator(table, [_combine(col, table.entries) for col in op.columns])


# -- dual raising operator --------------------------------------------------


def lowering_failures(q_op: OperatorMatrix, entries, seq: AdmissibleSequence):
    """Witnesses {"n", "got", "expected"} where Q entries[n] is not
    n_psi entries[n-1], reading Q entries[0] = 0 at n = 0: the defining
    relation of a basic or Sheffer table (Roman, 1984, ch. 2)."""
    for n, entry in enumerate(entries):
        got = q_op.apply(entry)
        expected = entries[n - 1].scale(seq.n_psi(n)) if n else ZERO
        if got != expected:
            yield {"n": n, "got": got.to_text(), "expected": expected.to_text()}


def dual_operator(
    q_op: OperatorMatrix, table: SequenceTable, seq: AdmissibleSequence
) -> OperatorMatrix:
    """Raising companion of a lowering operator in its own basic basis: the
    shift xhat_psi, x^n -> ((n+1)/(n+1)_psi) x^(n+1), conjugated to the table,
    so the top entry goes to zero. Raises BasisMismatchError if the table is
    not the basic sequence of the operator.
    """
    if table.bound != q_op.bound:
        raise BasisMismatchError("table bound differs from operator bound")
    for witness in lowering_failures(q_op, table, seq):
        raise BasisMismatchError(f"lowering recurrence fails at entry {witness['n']}")
    return table_conjugate(table, xhat_psi(seq, table.bound))


# -- psi-form detection ------------------------------------------------------


@dataclass(frozen=True)
class PsiFormResult:
    """Outcome of reading a lowering operator as a graded series.

    `candidate` holds the diagonal-read generalized integers b_{n,1}; when all
    are nonzero, `series` gives the reconstruction data. `consistent`
    states whether every cross coefficient matches the graded-series pattern;
    `violation` holds the first (n, k, expected, found) mismatch otherwise.
    """

    candidate: tuple
    consistent: bool
    violation: tuple | None
    series: DeltaSeries | None


def detect_psi_form(q_op: OperatorMatrix) -> PsiFormResult:
    require_lowers_by_one(q_op)
    bound = q_op.bound
    b = {}
    for n in range(1, bound + 1):
        col = q_op.columns[n]
        for k in range(1, n + 1):
            b[(n, k)] = col.coefficient(n - k)
    candidate = tuple([b[(n, 1)] for n in range(1, bound + 1)])
    for n in range(1, bound + 1):
        if b[(n, 1)] == 0:
            return PsiFormResult(candidate, False, (n, 1, None, Fraction(0)), None)
    seq = AdmissibleSequence.custom(candidate, bound, label="detected")
    coeffs = [Fraction(0)] + [
        b[(k, k)] / seq.factorial(k) for k in range(1, bound + 1)
    ]
    series = DeltaSeries.from_list(seq, coeffs, bound)
    for n in range(1, bound + 1):
        for k in range(1, n + 1):
            expected = seq.binomial(n, k) * b[(k, k)]
            if b[(n, k)] != expected:
                return PsiFormResult(candidate, False, (n, k, expected, b[(n, k)]), series)
    return PsiFormResult(candidate, True, None, series)


# -- expansion in a dual pair -------------------------------------------------


@dataclass(frozen=True)
class ExpansionResult:
    """T = sum_n q_n(raiser) Q^n, solved degree by degree; the sum itself,
    `reassembled`, is built by `reassemble` on first read, since most callers
    read the coefficients alone."""

    coefficients: tuple  # Polynomial q_n, n = 0..bound
    reassemble: Callable[[], OperatorMatrix] = field(repr=False, compare=False)

    @cached_property
    def reassembled(self) -> OperatorMatrix:
        return self.reassemble()

    def __eq__(self, other):
        """Equal coefficients and an equal reassembly."""
        if not isinstance(other, ExpansionResult):
            return NotImplemented
        return self.coefficients == other.coefficients and self.reassembled == other.reassembled


def _expand_over_shifts(t: OperatorMatrix, u: list, r: list, series=None) -> ExpansionResult:
    """Q x^j = u_j x^(j-1), raiser x^j = r_j x^(j+1): with U_n = u_1 ... u_n,
    R_n = r_0 ... r_(n-1), S_n = U_n R_n, D: x^n -> x^n / R_n makes the raiser
    multiplication by x, so T^_c = D(T x^c) / U_c = sum_d x^d q_(c-d) / S_d and
    q(y) = T^(y) / E(xy), E(z) = sum_d z^d / S_d: one division per column.
    Column c, T^_c less the raised sum over d >= 1, is one pass on integers.

    Given a delta `series` q over the Q of these u_j, the expansion is over
    q(Q) instead. With g = q^<-1>, Q = g(q(Q)) (Rota, Kahaner and Odlyzko,
    1973), so sum_k a_k(raiser) Q^k = sum_m c_m(raiser) q(Q)^m with
    c = `_recompose`(a, g); the reassembly maps c back through the powers of
    q, reading the published c alone."""
    bound = t.bound
    rs, us = r[:bound], u[1 : bound + 1]
    if 0 in rs:  # raiser^i 1 = 0, as the ladder would find
        i = rs.index(0) + 1
        raise SingularOperatorError(f"raiser power {i} applied to 1 has degree -1, not {i}")
    inverse_lead = _over_one_lcm(_running_products(rs, inverse=True))
    minus_e = -_over_one_lcm(_running_products(rs, us, inverse=True))
    coefficients = []
    for col, (a, b) in zip(t.columns, _running_products(us, inverse=True)):
        start = [v * w * a for v, w in zip(col.nums, inverse_lead.nums)]  # T^_c
        polys = [ZERO] + coefficients[::-1]  # q_(c-d) for d >= 1
        out, den = _raised_sum(minus_e, polys, bound, start, col.den * inverse_lead.den * b)
        coefficients.append(_canonical(out, den))
    if series is not None:
        coefficients = _recompose(coefficients, series.compositional_inverse())
    published = tuple(coefficients)

    def reassemble():
        back = published if series is None else _recompose(published, series)
        return _reassemble_over_shifts(back, u, r)

    return ExpansionResult(published, reassemble)


def _recompose(coefficients: list, s: DeltaSeries) -> list:
    """c_m = sum_(k<=m) [t^m] s^k a_k, m = 0..N, for a_k = coefficients[k]:
    sum_k a_k X^k = sum_m c_m Y^m when X = s(Y). The weights of each c_m,
    column m of the powers of s, are integers over one lcm."""
    powers = [p.polynomial for p in s.powers(len(coefficients) - 1)]
    out = []
    for m in range(len(coefficients)):
        column = powers[: m + 1]
        den = lcm(*[p.den for p in column])
        weights = [p.nums[m] * (den // p.den) if m < len(p.nums) else 0 for p in column]
        out.append(_combine(_canonical(weights, den), coefficients))
    return out


def _reassemble_over_shifts(coefficients: list, u: list, r: list) -> OperatorMatrix:
    """sum_n q_n(raiser) Q^n from the coefficients and weights alone, with no
    residual or weight of the solve: Q^n x^c = (U_c / U_(c-n)) x^(c-n) and raiser^i x^m =
    (R_(m+i) / R_m) x^(m+i), zero past the bound (r_N = 0), so column c is
    U_c diag(R) sum_m x^m q_(c-m) / (U_m R_m) cut at the bound: one raised sum."""
    bound = len(coefficients) - 1
    lead = _over_one_lcm(_running_products(r[:bound]))
    weights = _over_one_lcm(_running_products(r, u[1:], inverse=True))
    columns = []
    for c, (a, b) in enumerate(_running_products(u[1:])):
        out, den = _raised_sum(weights, coefficients[c::-1], bound)
        out = [v * w * a for v, w in zip(out, lead.nums)]
        columns.append(_canonical(out, den * lead.den * b))
    return OperatorMatrix(tuple(columns))


def _expand_over_ladder(
    t: OperatorMatrix, q_op: OperatorMatrix, raiser: OperatorMatrix
) -> ExpansionResult:
    """Any raiser whose ladder raiser^i 1 has degree i: q_j is the ladder
    coordinates of column j of T, less the reassembly so far, over Q^j x^j,
    read from the orbits raised[m][i] = raiser^i x^m and lowered[k][j] = Q^j x^k."""
    bound = t.bound
    raised = [raiser.orbit(Polynomial.monomial(m), bound) for m in range(bound + 1)]
    lowered = [q_op.orbit(Polynomial.monomial(k), k) for k in range(bound + 1)]
    for i, entry in enumerate(raised[0]):
        if entry.degree != i:
            raise SingularOperatorError(
                f"raiser power {i} applied to 1 has degree {entry.degree}, not {i}"
            )
    ladder = SequenceTable(tuple(raised[0]))
    # acc[k] is column k of the running reassembly. Q^j x^k is zero for
    # k < j, so step j adds q_j(raiser) Q^j x^k to the columns k >= j only.
    acc = [ZERO] * (bound + 1)
    coefficients = []
    for j in range(bound + 1):
        u = coordinates_in_table(ladder, t.columns[j] - acc[j])
        q_j = Polynomial(u).scale(1 / lowered[j][j].constant_term)
        coefficients.append(q_j)
        if not q_j:
            continue
        # column m of q_j(raiser); Q^j x^k has degree k - j <= bound - j
        step = [_combine(q_j, raised[m]) for m in range(bound - j + 1)]
        for k in range(j, bound + 1):
            acc[k] = _combine(lowered[k][j], step, acc[k])
    return ExpansionResult(tuple(coefficients), lambda: OperatorMatrix(tuple(acc)))


def expand_in_dual_pair(
    t: OperatorMatrix, q_op: OperatorMatrix, raiser: OperatorMatrix
) -> ExpansionResult:
    """With a weighted-shift raiser stepping up, a series division over a
    weighted-shift Q, recomposed for a series in the family Q; else over the
    raiser ladder."""
    require_lowers_by_one(q_op)
    bound = t.bound
    if q_op.bound != bound or raiser.bound != bound:
        raise BadParameterError("operator bounds differ")
    if isinstance(raiser, WeightedShift) and raiser.step == 1:
        if isinstance(q_op, WeightedShift):
            return _expand_over_shifts(t, q_op.weights, raiser.weights)
        if isinstance(q_op, SeriesOperator) and bound:  # q read at bound 0 is 0, no delta series
            q = q_op.series
            return _expand_over_shifts(t, psi_derivative(q.base, bound).weights, raiser.weights, q)
    return _expand_over_ladder(t, q_op, raiser)


# -- eigenseries and indicator ------------------------------------------------


def eigen_series(q_op: OperatorMatrix, truncation: int) -> list:
    """Graded ladder phi_0 = 1, Q phi_n = phi_{n-1}, phi_n(0) = 0.

    These are the coefficients of the normalized eigenfunction expansion of
    the lowering operator; existence needs every subdiagonal pivot nonzero.
    """
    require_lowers_by_one(q_op)
    if truncation > q_op.bound:
        raise DegreeOverflowError("eigenseries truncation beyond operator bound")
    # column n has degree n - 1; phi_n reads the columns up to n
    lowered = SequenceTable(q_op.columns[1 : truncation + 1])
    phis = [ONE]
    for _ in range(truncation):
        phis.append(Polynomial([0] + coordinates_in_table(lowered, phis[-1])))
    return phis


def indicator(t: OperatorMatrix, q_op: OperatorMatrix, truncation: int) -> bool:
    """Whether the lambda-expansion of T over Q, read from the expansion over
    multiplication by x, agrees on orders 0..truncation with the route that
    conjugates T by the eigenseries of Q."""
    expansion = expand_in_dual_pair(t, q_op, multiplication_x(t.bound))
    direct = list(expansion.coefficients[: truncation + 1])

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
    return direct == conjugated
