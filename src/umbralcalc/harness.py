"""Cross-family identity harness: one uniform record per verified identity.

Each suite checks a group of operator identities on one family and writes
its IdentityReport records through a `Records` recorder; `run_suites` runs
it once per roster family, after the suite's family-free checks, if it has
any. A record is either asserted (its failure fails the run) or
informational (a printed form whose validity depends on the family; the
record stores what actually holds, and never changes the exit status).
Windowed identities pass when the two sides agree at least up to the stated
truncation window. A kernel fault inside one family's checks, or inside the
family-free ones, becomes one failed `kernel-fault` record for that family
(or `shared`), and the suite goes on with the next family.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import mul

from .errors import BadParameterError, UmbralError
from .integration import IntegralOperator, right_inverse_failures
from .operators import (
    OperatorMatrix,
    commutator,
    detect_psi_form,
    dilation,
    divided_difference,
    expand_in_dual_pair,
    from_action,
    identity_operator,
    indicator,
    jackson_operator,
    lowering_failures,
    multiplication_x,
    nhat_diagonal,
    operator_polynomial,
    operator_polynomial_applied,
    psi_derivative,
    realize_delta_series,
    table_conjugate,
    xhat_psi,
)
from .poly import ONE, Polynomial, SequenceTable
from .psi import AdmissibleSequence, Q_DEFORMED
from .sequences import (
    addition_rule_failure,
    appell_sequence,
    basic_sequence,
    basic_sequence_from_series,
    closed_form_routes,
    expansion_coordinates,
    generating_function_failures,
    inverse_reconstruction_failures,
    sheffer_sequence,
    verify_binomial_type,
    verify_sheffer_binomial,
)
from .series import DeltaSeries
from .spectral import (
    appell_telescope_windows,
    conjugation_transport_failures,
    factorization_windows,
    gram_failures,
    mutator_failures,
    orthogonality_failures,
    q_parameter,
    qhat_operator,
    qplane_commutation,
    qplane_substitution_failures,
    shift_raiser,
    spectral_operator,
    transport_pincherle_window,
)
from .star import (
    StarContext,
    poisson_psi_polynomials,
    poisson_raising_route,
    star_power,
    star_product,
    star_product_truncated,
)

HOLDS = "holds"
FAILS = "fails"
WINDOWED = "holds_up_to_window"

SHARED = "shared"  # family slot for identities that do not involve the weights


@dataclass(frozen=True)
class IdentityReport:
    """One identity, one family, one degree bound."""

    suite: str
    identity_id: str
    family: str
    degree: int
    window: int | None
    status: str
    asserted: bool
    witness: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status == FAILS

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "identity_id": self.identity_id,
            "family": self.family,
            "N": self.degree,
            "window": self.window,
            "status": self.status,
            "asserted": self.asserted,
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Polynomial):
        return value.to_text()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Records(list):
    """The records of one suite at one degree bound.

    `exact` and `windowed` are the only place a verdict becomes a status, a
    window and a witness: a record that holds carries no witness, and a
    failed record always carries one. Every counterexample search is a lazy
    stream of witnesses, read by `first_failure`: `exact` on its first
    witness, or `holds` when it yields none.
    """

    def __init__(self, suite: str, degree: int):
        super().__init__()
        self.suite = suite
        self.degree = degree

    def _add(self, ident, family, window, status, asserted, witness, degree=None):
        degree = self.degree if degree is None else degree
        self.append(
            IdentityReport(self.suite, ident, family, degree, window, status, asserted, witness)
        )

    def exact(self, ident, family, ok, witness=None, asserted=True, window=None, degree=None):
        """`holds`, or `holds_up_to_window` at `window` when one is given; a
        failure has no window and the witness `witness or {}`. `degree`
        overrides the suite's bound for a record checked at another bound."""
        if ok:
            status = HOLDS if window is None else WINDOWED
            self._add(ident, family, window, status, asserted, None, degree)
        else:
            self._add(ident, family, None, FAILS, asserted, witness or {}, degree)

    def windowed(self, ident, family, found, required):
        """`holds_up_to_window` at `required` when the two sides agree up to
        it (`found >= required`); otherwise `fails` at `found`, with the
        witness {"found_window": found, "required_window": required}."""
        if found >= required:
            self._add(ident, family, required, WINDOWED, True, None)
        else:
            witness = {"found_window": found, "required_window": required}
            self._add(ident, family, found, FAILS, True, witness)

    def first_failure(self, ident, family, failures, asserted=True, window=None, degree=None):
        """`exact` on the first witness the lazy iterable `failures` yields,
        `holds` if it yields none. Nothing past the first witness is drawn,
        so a search stops, and samples no further, at its first failure."""
        witness = next(iter(failures), None)
        self.exact(ident, family, witness is None, witness, asserted, window, degree)

    @contextmanager
    def guard(self, family):
        """Run one family's checks, or a suite's family-free ones with
        `family` SHARED: a kernel fault among them ends them and is one
        failed `kernel-fault` record for `family`; `run_suites` goes on with
        the next family. Input is checked before any suite runs, so a fault
        here is the package's, not the caller's."""
        try:
            yield
        except UmbralError as exc:
            self.exact("kernel-fault", family, False, {"error": f"{type(exc).__name__}: {exc}"})


# -- seeded sampling helpers ---------------------------------------------------


def _nonzero(rng, lo=-4, hi=4) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, 3))


def _random_polynomial(rng, max_degree: int) -> Polynomial:
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(max_degree)]
    coeffs.append(_nonzero(rng))
    return Polynomial(coeffs)


def _random_series(seq, rng, order: int, lead: list) -> DeltaSeries:
    """The leading coefficients `lead`, then random ones up to `order`: a
    delta series for lead [0, 1] or [0, _nonzero(rng)], an invertible one
    for [_nonzero(rng)]."""
    coeffs = list(lead)
    for _ in range(len(lead), order + 1):
        coeffs.append(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return DeltaSeries.from_list(seq, coeffs, order)


def _pair_failures(rng, count, deg_f, deg_g, holds):
    """Witnesses {"f", "g"} of the sampled pairs on which `holds(f, g)` is
    false; each pair is drawn only once the previous one has held."""
    for _ in range(count):
        f = _random_polynomial(rng, deg_f)
        g = _random_polynomial(rng, deg_g)
        if not holds(f, g):
            yield {"f": f, "g": g}


def _random_triangular_operator(rng, bound: int) -> OperatorMatrix:
    cols = []
    for j in range(bound + 1):
        cols.append(Polynomial([rng.randint(-3, 3) for _ in range(j + 1)]))
    return OperatorMatrix(tuple(cols))


_R_SHAPE, _R_Q = (2, -2), Fraction(1, 3)  # the series-shape family r_series(q=1/3)

_SHEFFER_PAIRS = {  # label: (q, s) coefficients of the fixed Sheffer pairs
    "appell": ([0, 1], [1, 1]),
    "composite": ([0, 1, 1], [1, 1, Fraction(1, 2)]),
}


def _sheffer_tables(seq, rng, degree, labels) -> list:
    """(label, Sheffer sequence of (q, s)) for each label: a fixed pair of
    `_SHEFFER_PAIRS`, or for "random" a delta series q and then an
    invertible s drawn from `rng`."""
    tables = []
    for label in labels:
        if label == "random":
            q = _random_series(seq, rng, degree, [0, _nonzero(rng)])
            s = _random_series(seq, rng, degree, [_nonzero(rng)])
        else:
            q, s = (DeltaSeries.from_list(seq, c, degree) for c in _SHEFFER_PAIRS[label])
        tables.append((label, sheffer_sequence(q, s, degree)))
    return tables


def _round_trip(op: OperatorMatrix, candidate: tuple):
    """The detection result of `op` when it reads as a consistent graded
    series with these generalized integers that realizes back to `op`;
    None otherwise."""
    result = detect_psi_form(op)
    if (
        result.consistent
        and result.candidate == candidate
        and realize_delta_series(result.series, op.bound).columns == op.columns
    ):
        return result
    return None


def _reparameterization_certificate(seq, q_series, table, bound: int) -> bool:
    """Certify that a table is the basic table of a series differing from
    q_series only in the top coefficient: the lowering operator induced by
    the table, which sends entry n to n_psi times entry n - 1, must detect as
    a consistent graded series over the same family weights, realize back to
    itself, and match q_series below the top."""
    induced = table_conjugate(table, psi_derivative(seq, bound))
    result = _round_trip(induced, seq.values[1 : bound + 1])
    if result is None:
        return False
    got = result.series.coeffs
    want = q_series.coeffs
    return got[:bound] == want[:bound] and got[bound] != want[bound]


def _normal_order(d: OperatorMatrix, r: OperatorMatrix):
    """`window(n, m, required)`: the agreement window, exact up to `required`,
    of d^n r^m against its normal order sum_k C(n,k) C(m,k) k! r^(m-k) d^(n-k).
    With u_j, v_j the weights of d and r at x^j, the basis e_j = x^j / (u_1 ...
    u_j) has d e_j = e_(j-1) and r e_j = s_j e_(j+1), s_j = v_j u_(j+1). This
    diagonal change of basis keeps every window, and column j of each side is
    one multiple of e_(j+m-n): a sum of products of the s_j, over den^m here."""
    bound = d.bound
    s = [v * u for v, u in zip(r.weights, d.weights[1:])]
    den = math.lcm(*[v.denominator for v in s])
    # s_N = 0 as r x^N is truncated away; the zeros past it pad every run
    ints = [v.numerator * (den // v.denominator) for v in s] + [0] * (bound + 1)
    # run[a][b] = ints[a] * ... * ints[a + b - 1]
    run = [list(accumulate(ints[a : a + bound], mul, initial=1)) for a in range(bound + 1)]

    def window(n, m, required):
        cs = [math.comb(n, k) * math.perm(m, k) * den**k for k in range(min(n, m) + 1)]
        for j in range(max(n - m, 0), required + 1):  # both sides vanish below
            if run[j][m] != sum(c * run[j - n + k][m - k] for k, c in enumerate(cs) if j >= n - k):
                return j - 1
        return required

    return window


# -- suites --------------------------------------------------------------------


def suite_ghw(seq, degree, rng, out):
    """The lowering/raising pair has identity commutator below the edge."""
    got = commutator(psi_derivative(seq, degree), xhat_psi(seq, degree))
    window = got.agreement_window(identity_operator(degree))
    out.windowed("commutator-identity", seq.label, window, degree - 1)


def suite_weyl(seq, degree, rng, out):
    """Reordering rules for powers of the lowering/raising pair."""
    window = _normal_order(psi_derivative(seq, degree), xhat_psi(seq, degree))
    for n, m in product(range(min(4, degree) + 1), repeat=2):
        if n or m:
            w = window(n, m, degree - max(n, m))
            out.windowed(f"power-reorder(n={n},m={m})", seq.label, w, degree - max(n, m))
    # two-parameter exponential exchange, checked order by order: the (i, j)
    # coefficient of exp(t d) exp(a r) = exp(at) exp(a r) exp(t d) is the
    # normal order of d^j r^i, both sides scaled by 1/(i! j!)
    failures = ({"raise_power": i, "lower_power": j, "found_window": w,
                 "required_window": degree - i}
                for i in range(degree + 1) for j in range(degree + 1 - i)
                if (i or j) and (w := window(j, i, degree - i)) < degree - i)
    out.first_failure("exponential-exchange-orders", seq.label, failures)


def shared_leibnitz(degree, rng, out):
    """Product rule and derivative series of the divided difference, and the
    scale-factor factorization of the series-shape family."""
    d0 = divided_difference(degree)

    def dd_product_rule(f, g):
        return d0.apply(f * g) == d0.apply(f) * g + d0.apply(g).scale(f.constant_term)

    half = degree // 2
    failures = _pair_failures(rng, 5, half, degree - half, dd_product_rule)
    out.first_failure("divided-difference-product-rule", SHARED, failures)

    # alternating series sum_n (-1)^(n+1) x^(n-1) D^n / n! for the divided
    # difference, applied to each monomial
    d = psi_derivative(AdmissibleSequence.classical(degree + 1), degree)
    fronts = [Polynomial.monomial(n - 1, Fraction((-1) ** (n + 1), math.factorial(n)))
              for n in range(1, degree + 1)]
    series = from_action(lambda p: sum(map(mul, fronts, d.orbit(p, degree)[1:]), Polynomial()),
                         degree)
    out.exact("divided-difference-derivative-series", SHARED, series.columns == d0.columns)

    # the factorization of the q lowering, for a weight family read off a series shape
    seq_r = AdmissibleSequence.r_series(_R_SHAPE, _R_Q, degree + 1)
    diag = operator_polynomial(Polynomial(_R_SHAPE), dilation(_R_Q, degree).scale(_R_Q))
    ok = diag.compose(d0).columns == psi_derivative(seq_r, degree).columns
    out.exact("series-scale-factor", seq_r.label, ok)


def suite_leibnitz(seq, degree, rng, out):
    """Product rules and the scale-factor factorizations of the lowerings."""
    # every lowering factors through the diagonal weight operator
    d0 = divided_difference(degree)
    ok = psi_derivative(seq, degree).columns == nhat_diagonal(seq, degree).compose(d0).columns
    out.exact("lowering-factors-through-weights", seq.label, ok)
    if seq.family != Q_DEFORMED:
        return
    q = q_parameter(seq)
    jq, dq = jackson_operator(q, degree), dilation(q, degree)

    def q_product_rule(f, g):
        return jq.apply(f * g) == jq.apply(f) * g + dq.apply(f) * jq.apply(g)

    half = degree // 2
    failures = _pair_failures(rng, 5, half, degree - half, q_product_rule)
    out.first_failure("q-product-rule", seq.label, failures)

    # the q lowering is a dilation polynomial times the divided difference
    shape = Polynomial([1 / (1 - q), -1 / (1 - q)])
    diag = operator_polynomial(shape, dq.scale(q))
    out.exact("q-scale-factor", seq.label, diag.compose(d0).columns == jq.columns)


def shared_binomial(degree, rng, out):
    """Binomial integrality of the growth family."""
    fib = AdmissibleSequence.fibonacci(16)
    failures = ({"n": n, "k": k, "value": value} for n in range(17) for k in range(n + 1)
                if (value := fib.binomial(n, k)).denominator != 1)
    out.first_failure("growth-family-integrality", fib.label, failures, degree=16)


def suite_binomial(seq, degree, rng, out):
    """Addition rule of basic tables, its rejection of perturbed tables, and
    the scalar addition laws of the graded exponential."""
    composite = DeltaSeries.from_list(seq, [0, 1, 1], degree)
    random_series = _random_series(seq, rng, degree, [0, _nonzero(rng)])
    for label, series in (("composite", composite), ("random", random_series)):
        check = verify_binomial_type(basic_sequence_from_series(series, degree).table, seq)
        out.exact(f"addition-rule({label})", seq.label, check.passed, check.witness)

    # Every single-coefficient perturbation must be rejected, except the
    # top entry's linear coefficient: that one lands on the basic table
    # of a series whose top coefficient absorbed the shift, so a correct
    # checker accepts it. For that cell we demand the positive
    # certificate instead of a rejection.
    perturb_degree = min(degree, 8)
    small_series = DeltaSeries.from_list(seq, [0, 1, 1], perturb_degree)
    small = basic_sequence_from_series(small_series, perturb_degree).table

    def perturbation_failures():
        for n in range(perturb_degree + 1):
            for j in range(n + 1):
                coeffs = list(small[n].coeffs)
                coeffs[j] += 1
                if j == n and coeffs[j] == 0:
                    coeffs[j] += 1
                entries = list(small)
                entries[n] = Polynomial(coeffs)
                ptable = SequenceTable(tuple(entries))
                # only the verdict is read, so no witness is formed
                passed = addition_rule_failure(ptable, ptable, seq) is None
                if n == perturb_degree and j == 1:
                    ok = passed and _reparameterization_certificate(
                        seq, small_series, ptable, perturb_degree
                    )
                    if not ok:
                        yield {"entry": n, "coefficient": j, "expected": "reparameterization"}
                elif passed:
                    yield {"entry": n, "coefficient": j, "expected": "rejection"}

    out.first_failure(
        "perturbation-rejection", seq.label, perturbation_failures(), degree=perturb_degree
    )

    # bigraded addition law of the exponential coefficients
    failures = ({"a": a, "b": b, "lhs": lhs, "rhs": rhs}
                for a in range(degree + 1) for b in range(degree + 1 - a)
                if (lhs := seq.binomial(a + b, b) / seq.factorial(a + b))
                != (rhs := 1 / (seq.factorial(a) * seq.factorial(b))))
    out.first_failure("exponential-addition-bigraded", seq.label, failures)

    # index-congruence sectors partition the truncated exponential
    for m in (2, 3):
        total = Polynomial()
        for j in range(m):
            total = total + seq.hyperbolic_component(j, m, 1, degree)
        ok = total == seq.exp_polynomial(1, degree)
        out.exact(f"exponential-sector-partition(m={m})", seq.label, ok)

    # informational: alternating binomial sums need not vanish at even
    # order for every family, although the printed claim says they do
    failures = ({"order": m, "value": v} for m in range(2, degree + 1, 2)
                if (v := sum(((-1) ** k) * seq.binomial(m, k) for k in range(m + 1))) != 0)
    out.first_failure("alternating-even-sums-vanish", seq.label, failures, asserted=False)


def suite_routes(seq, degree, rng, out):
    """Closed-form constructions agree with the solved basic table."""
    labeled = [
        ("derivative", DeltaSeries.from_list(seq, [0, 1], degree)),
        ("composite", DeltaSeries.from_list(seq, [0, 1, 1], degree)),
        ("random-1", _random_series(seq, rng, degree, [0, _nonzero(rng)])),
        ("random-2", _random_series(seq, rng, degree, [0, _nonzero(rng)])),
    ]
    for label, q_series in labeled:
        direct = basic_sequence_from_series(q_series, degree).table
        for route_name, table in closed_form_routes(q_series, degree).items():
            out.exact(f"{route_name}({label})", seq.label, table.entries == direct.entries)


def shared_detect(degree, rng, out):
    """Sandwiched classical operators read back with their own weights."""
    d = psi_derivative(AdmissibleSequence.classical(degree + 1), degree)
    sandwich = d.compose(multiplication_x(degree)).compose(d)

    squares = tuple([Fraction(n * n) for n in range(1, degree + 1)])
    out.exact("squared-weights-operator", SHARED, _round_trip(sandwich, squares) is not None)

    split = sandwich.scale(Fraction(1, 2)).subtract(d.powers(3)[3].scale(Fraction(1, 3)))
    result = detect_psi_form(split)
    # the cubic term only shows up from degree 4 on; below that the
    # truncated operator genuinely carries graded weights
    expect_break = degree >= 4
    ok = (
        result.consistent != expect_break
        and result.candidate == tuple([Fraction(n * n, 2) for n in range(1, degree + 1)])
    )
    out.exact("split-operator-candidate", SHARED, ok, {"violation": result.violation})
    # informational record of where the graded pattern first breaks; the
    # violation is None exactly when the pattern is consistent
    out.exact(
        "split-operator-consistency",
        SHARED,
        result.consistent,
        {"violation": _jsonable(result.violation)},
        asserted=False,
    )

    doubled = sandwich.scale(4).subtract(d.scale(2))
    weights = tuple([Fraction(2 * n * (2 * n - 1)) for n in range(1, degree + 1)])
    out.exact("doubled-index-operator", SHARED, _round_trip(doubled, weights) is not None)


def suite_detect(seq, degree, rng, out):
    """Lowering operators are read back as graded series, exactly."""
    for label, unit in (("unit-slope", True), ("scaled", False)):
        series = _random_series(seq, rng, degree, [0, 1] if unit else [0, _nonzero(rng)])
        op = realize_delta_series(series, degree)
        result = detect_psi_form(op)
        ok = result.consistent and realize_delta_series(result.series, degree).columns == op.columns
        if unit:
            ok = (
                ok
                and result.candidate == seq.values[1 : degree + 1]
                and result.series.coeffs == series.coeffs[: degree + 1]
            )
        out.exact(f"round-trip({label})", seq.label, ok, {"violation": result.violation})


def suite_sheffer(seq, degree, rng, out):
    """Lowered-by-one tables with invertible prefactors: definition,
    reconstruction, mixed addition rule, generating function, and the
    constant-coefficient expansion conventions."""
    z_order = min(8, degree)
    for label, sheffer in _sheffer_tables(seq, rng, degree, ("composite", "random")):
        failures = lowering_failures(sheffer.q_op, sheffer.table, seq)
        out.first_failure(f"definition({label})", seq.label, failures)
        failures = inverse_reconstruction_failures(sheffer)
        out.first_failure(f"inverse-reconstruction({label})", seq.label, failures)
        check = verify_sheffer_binomial(sheffer)
        out.exact(f"mixed-addition({label})", seq.label, check.passed, check.witness)
        failures = generating_function_failures(sheffer, z_order)
        out.first_failure(f"generating-function({label})", seq.label, failures)
        rows = expansion_coordinates(sheffer, [1, 1, Fraction(1, 2), Fraction(1, 3)])
        failures = _convention_failures(rows, seq.binomial)
        out.first_failure(f"expansion-constants-graded({label})", seq.label, failures)
        plain = next(_convention_failures(rows, math.comb), None) is None
        out.exact(f"expansion-constants-plain({label})", seq.label, plain, asserted=False)


def _convention_failures(rows, binom):
    """Witnesses {"n", "j"}, 0 < j < n, where row n, coordinate n - j, of the
    expansion coordinates `rows` is not binom(n, j) times row j, coordinate 0;
    j = n compares a coordinate with itself and j = 0 reads a_0 on both sides."""
    return ({"n": n, "j": j} for n, row in enumerate(rows) for j in range(1, n)
            if row[n - j] != binom(n, j) * rows[j][0])


def suite_expansion(seq, degree, rng, out):
    """Every operator expands uniquely over powers of a lowering operator
    with coefficients in either raiser, and reassembles exactly."""
    d = psi_derivative(seq, degree)
    for mode, raiser in (("graded-raiser", xhat_psi(seq, degree)),
                         ("multiplication", multiplication_x(degree))):
        samples = (_random_triangular_operator(rng, degree) for _ in range(5))
        failures = ({"instance": i} for i, t in enumerate(samples)
                    if expand_in_dual_pair(t, d, raiser).reassembled.columns != t.columns)
        out.first_failure(f"reassembly({mode})", seq.label, failures)

    samples = [
        ("series", realize_delta_series(DeltaSeries.from_list(seq, [0, 1, 1], degree), degree)),
        ("mixed", xhat_psi(seq, degree).compose(d)),
    ]
    for label, t in samples:
        out.exact(f"indicator-conjugation({label})", seq.label, indicator(t, d, min(8, degree)))


def suite_orthogonality(seq, degree, rng, out):
    """The pairing attached to (Q, S) is diagonal with graded factorial
    weights; positive families give positive squared norms."""
    [(_, sheffer)] = _sheffer_tables(seq, rng, degree, ("composite",))
    out.first_failure("diagonal-pairing", seq.label, orthogonality_failures(sheffer, degree))
    if all(seq.n_psi(n) > 0 for n in range(1, degree + 1)):
        out.first_failure("gram-positivity", seq.label, gram_failures(sheffer, rng, 4))


def suite_spectral(seq, degree, rng, out):
    """Index operators diagonal on a Sheffer table: the definitional and
    conjugation routes agree; the printed coefficient formula is recorded."""
    eigen_max = min(10, degree)
    for label, sheffer in _sheffer_tables(seq, rng, degree, ("appell", "composite", "random")):
        result = spectral_operator(sheffer)
        failures = ({"n": n} for n in range(eigen_max + 1)
                    if result.definitional.apply(sheffer.table[n]) != sheffer.table[n].scale(n))
        out.first_failure(f"eigen-relation({label})", seq.label, failures)
        out.exact(f"conjugation-route({label})", seq.label, result.composition_agrees)
        divergence = result.printed_divergence
        out.exact(
            f"printed-coefficient-formula({label})",
            seq.label,
            divergence is None,
            {"first_disagreeing_order": divergence},
            asserted=False,
        )


def shared_integration(degree, rng, out):
    """The right inverse of the series-shape family and its partner."""
    seq_r = AdmissibleSequence.r_series(_R_SHAPE, _R_Q, degree + 1)
    r_int = IntegralOperator.r_integral(_R_SHAPE, _R_Q, degree)
    out.first_failure("series-right-inverse", seq_r.label, right_inverse_failures(r_int))
    out.exact(
        "series-partner-is-lowering",
        seq_r.label,
        r_int.partner.columns == psi_derivative(seq_r, degree).columns,
    )


def suite_integration(seq, degree, rng, out):
    """Monomial-diagonal right inverses pair with their lowerings."""
    op = IntegralOperator.psi_integral(seq, degree)
    out.first_failure("graded-right-inverse", seq.label, right_inverse_failures(op))
    if seq.family == Q_DEFORMED:
        q = q_parameter(seq)
        q_int = IntegralOperator.q_integral(q, degree)
        out.first_failure("q-right-inverse", seq.label, right_inverse_failures(q_int))
        out.exact("q-matches-graded-integral", seq.label, q_int.weights == op.weights)


def suite_star(seq, degree, rng, out):
    """Substitution products of the raising operator and the weighted
    exponential family they generate."""
    pow_max = min(3, degree // 2)
    m_max = min(4, degree - 2)
    ctx = StarContext.create(seq, degree)
    d, raiser = psi_derivative(seq, degree), ctx.raiser

    failures = ({"n": n, "k": k} for n in range(pow_max + 1) for k in range(pow_max + 1)
                if star_product(ctx, star_power(ctx, n), star_power(ctx, k))
                != star_power(ctx, n + k).scale(Fraction(math.factorial(n)) / seq.factorial(n)))
    out.first_failure("power-products", seq.label, failures)

    failures = ({"n": n} for n in range(1, degree + 1)
                if d.apply(star_power(ctx, n)) != star_power(ctx, n - 1).scale(n)
                or raiser.apply(star_power(ctx, n - 1)) != star_power(ctx, n))
    out.first_failure("lowering-steps-powers", seq.label, failures)

    def product_rule(f, g):
        lhs = d.apply(star_product_truncated(ctx, f, g))
        rhs = star_product_truncated(ctx, f.derivative(), g) + star_product_truncated(
            ctx, f, d.apply(g)
        )
        return lhs.truncate(degree - 1) == rhs.truncate(degree - 1)

    failures = _pair_failures(rng, 3, min(3, degree - 1), min(4, degree), product_rule)
    out.first_failure("product-rule", seq.label, failures, window=degree - 1)

    def splits(alpha, beta):
        plain = Polynomial([alpha**k / math.factorial(k) for k in range(degree + 1)])
        got = star_product_truncated(ctx, plain, seq.exp_polynomial(beta, degree))
        return got == seq.exp_polynomial(alpha + beta, degree)

    pairs = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(-1)),
             (Fraction(2), Fraction(1, 2)))
    failures = ({"alpha": a, "beta": b} for a, b in pairs if not splits(a, b))
    out.first_failure("exponential-splitting", seq.label, failures)

    def substitution_is_star(f, g):
        g_tilde = operator_polynomial_applied(g, raiser, ONE)
        substituted = operator_polynomial_applied(f, raiser, g_tilde)
        return substituted == star_product(ctx, f, g_tilde)

    failures = _pair_failures(rng, 3, pow_max, pow_max, substitution_is_star)
    out.first_failure("operator-product-vs-star", seq.label, failures)

    # commutation with a raiser power lowers it by one step, the normal order of d r^n
    window = _normal_order(d, raiser)
    for n in range(1, min(4, degree) + 1):
        out.windowed(f"raiser-power-lowering(n={n})", seq.label, window(1, n, degree - n),
                     degree - n)

    # informational: replacing the substituted entry by the literal
    # polynomial only survives for unit-ratio weight families
    f = Polynomial([1] * (min(3, degree) + 1))
    f_tilde = operator_polynomial_applied(f, raiser, ONE)
    literal_ok = d.apply(f_tilde) == d.apply(f)
    out.exact("literal-substitution-lowering", seq.label, literal_ok, asserted=False)

    for lam in (Fraction(1), Fraction(1, 2)):
        ps = poisson_psi_polynomials(ctx, lam, m_max)
        alt = poisson_raising_route(ctx, lam, m_max)
        ok = all(p == a for p, a in zip(ps, alt))
        out.exact(f"weighted-family-routes(lam={lam})", seq.label, ok)
        # d p_m + lam p_m = lam p_(m-1) up to degree N - m - 1, with p_(-1) = 0
        failures = ({"m": m} for m in range(m_max + 1)
                    if (d.apply(ps[m]) + ps[m].scale(lam)).truncate(degree - m - 1)
                    != (ps[m - 1].scale(lam) if m else Polynomial()).truncate(degree - m - 1))
        ident = f"weighted-family-system(lam={lam})"
        out.first_failure(ident, seq.label, failures, window=degree - m_max - 1)


def suite_qplane(seq, degree, rng, out):
    """Exchange rule of multiplication and dilation, and the substitution
    form of the shift for deformation families."""
    if seq.family != Q_DEFORMED:
        return
    ys = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-2), Fraction(3), Fraction(1, 3), Fraction(-1, 2), Fraction(5)]
    q = q_parameter(seq)
    out.exact("exchange-rule", seq.label, qplane_commutation(q, degree))
    # the substitution holds for every entry once it holds on the monomials;
    # each record composes it with the sum form of its table
    substitution = next(qplane_substitution_failures(seq, degree, ys), None)
    [(_, sheffer)] = _sheffer_tables(seq, rng, degree, ("appell",))
    for ident, sums in (
        ("shift-substitution-basic", verify_binomial_type(sheffer.basic.table, seq, ys)),
        ("shift-substitution-sheffer", verify_sheffer_binomial(sheffer, ys)),
    ):
        ok = substitution is None and sums.passed
        out.exact(ident, seq.label, ok, substitution or sums.witness)


def suite_mutator(seq, degree, rng, out):
    """Deformed bracket of a lowering operator with its shift raiser."""
    monomial = basic_sequence(psi_derivative(seq, degree), seq, degree)
    composite = basic_sequence_from_series(DeltaSeries.from_list(seq, [0, 1, 1], degree), degree)
    raiser, qhat = shift_raiser(monomial), qhat_operator(monomial)
    failures = mutator_failures(monomial, raiser, qhat)
    out.first_failure("bracket-identity(monomial)", seq.label, failures, window=degree - 1)
    failures = mutator_failures(composite, shift_raiser(composite), qhat_operator(composite))
    out.first_failure("bracket-identity(composite)", seq.label, failures, window=degree - 1)

    literal = mutator_failures(monomial, raiser, qhat_operator(monomial, one=1))
    out.first_failure("literal-unit-weights", seq.label, literal, asserted=False)
    dual = mutator_failures(monomial, monomial.raiser, qhat)
    out.first_failure("dual-raiser-variant", seq.label, dual, asserted=False)
    if seq.family == Q_DEFORMED:
        same = qhat.columns == dilation(q_parameter(seq), degree).columns
        out.exact("deformation-is-dilation", seq.label, same, asserted=False)


def suite_factorization(seq, degree, rng, out):
    """Power factorizations of sandwiched lowering/raising words. A number
    step (n, f) is checked only where its window, degree - deg f - n, is not
    negative, and its graded variant only when some f is checked."""
    fs = [Polynomial([1, 1]), Polynomial([0, 0, 1]), Polynomial([2, 0, Fraction(1, 2)])]
    ns = (1, 2, 3)
    basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
    for n, (first, second, windows) in zip(ns, factorization_windows(basic, ns, fs)):
        ok = first == degree and second >= degree - n
        witness = {"first_window": first, "second_window": second, "required_window": degree - n}
        out.exact(f"sandwich-powers(n={n})", seq.label, ok, witness)
        graded_matches = []
        for i, (f, (plain, graded)) in enumerate(zip(fs, windows)):
            required = degree - max(f.degree, 0) - n
            if required >= 0:
                out.windowed(f"number-steps(n={n},f={i})", seq.label, plain, required)
                graded_matches.append(graded >= required)
        if graded_matches:
            out.exact(f"number-steps-graded(n={n})", seq.label, all(graded_matches),
                      asserted=False)

    appell = appell_sequence(DeltaSeries.from_list(seq, [1, 1, Fraction(1, 2)], degree), degree)
    printed, step = appell_telescope_windows(basic, appell.table, 2)
    ladder = appell.table[2].derivative() == appell.table[1].scale(seq.n_psi(2))
    witness = {"step_holds": step >= degree - 3, "derivative_ladder_holds": ladder}
    out.exact("appell-telescope-printed", seq.label, printed >= degree - 3, witness,
              asserted=False)


def suite_transport(seq, degree, rng, out):
    """Conjugation between basic bases and the commutator law of the
    transport to monomials."""
    failures = conjugation_transport_failures(
        DeltaSeries.from_list(seq, [0, 1, 1], degree),
        DeltaSeries.from_list(seq, [0, 1, 0, Fraction(-1, 3)], degree),
        [1, 1, Fraction(1, 2)],
        degree,
        sheffer_s=DeltaSeries.from_list(seq, [1, 1], degree),
    )
    out.first_failure("basis-conjugation", seq.label, failures)
    for label, coeffs in (
        ("derivative", [0, 1]),
        ("composite", [0, 1, 1]),
        ("cubic", [0, 1, 0, Fraction(1, 3)]),
    ):
        window = transport_pincherle_window(DeltaSeries.from_list(seq, coeffs, degree), degree)
        out.windowed(f"monomial-map-commutator({label})", seq.label, window, degree - 1)


SUITES = {
    "ghw": suite_ghw,
    "weyl": suite_weyl,
    "leibnitz": suite_leibnitz,
    "binomial": suite_binomial,
    "routes": suite_routes,
    "detect": suite_detect,
    "sheffer": suite_sheffer,
    "expansion": suite_expansion,
    "orthogonality": suite_orthogonality,
    "spectral": suite_spectral,
    "integration": suite_integration,
    "star": suite_star,
    "qplane": suite_qplane,
    "mutator": suite_mutator,
    "factorization": suite_factorization,
    "transport": suite_transport,
}

FAMILY_FREE = {  # suite name: its checks that involve no roster family
    "leibnitz": shared_leibnitz,
    "binomial": shared_binomial,
    "detect": shared_detect,
    "integration": shared_integration,
}

DEFAULT_SEED = 20240811


def run_suites(names, families, degree: int, seed: int = DEFAULT_SEED) -> list:
    """Run the named suites over the roster; records come back sorted by
    (suite, family, identity). Each suite draws from one rng stream: its
    family-free checks first, then each family in roster order, each under
    its own `Records.guard`."""
    if degree < 2:
        raise BadParameterError("degree bound must be at least 2")
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise BadParameterError(f"unknown suite names: {', '.join(unknown)}")
    for seq in families:
        if seq.bound <= degree:
            raise BadParameterError(
                f"{seq.label}: family bound {seq.bound} leaves no spare index above {degree}"
            )
    reports = []
    for name in SUITES:
        if name not in names:
            continue
        out = Records(name, degree)
        rng = random.Random(f"{seed}:{name}")
        if name in FAMILY_FREE:
            with out.guard(SHARED):
                FAMILY_FREE[name](degree, rng, out)
        for seq in families:
            with out.guard(seq.label):
                SUITES[name](seq, degree, rng, out)
        reports.extend(out)
    return sorted(reports, key=lambda r: (r.suite, r.family, r.identity_id))


def run_all(families, degree: int, seed: int = DEFAULT_SEED) -> list:
    return run_suites(list(SUITES), families, degree, seed)


def exit_status(reports) -> int:
    """0 iff no asserted record failed; informational records never count."""
    return 0 if not any(r.asserted and r.failed for r in reports) else 1


def summarize(reports) -> dict:
    asserted = [r for r in reports if r.asserted]
    info = [r for r in reports if not r.asserted]
    return {
        "asserted": len(asserted),
        "asserted_failed": sum(1 for r in asserted if r.failed),
        "informational": len(info),
        "informational_failed": sum(1 for r in info if r.failed),
        "exit_status": exit_status(reports),
    }


def render_text(reports) -> str:
    lines = []
    for r in reports:
        tag = "assert" if r.asserted else "info"
        line = f"[{tag}] {r.suite}/{r.identity_id} | {r.family} | N={r.degree} | {r.status}"
        if r.window is not None:
            line += f" | window={r.window}"
        if r.witness:
            line += f" | witness={json.dumps(_jsonable(r.witness), sort_keys=True)}"
        lines.append(line)
    s = summarize(reports)
    lines.append(
        "asserted: {} checked, {} failed; informational: {} recorded, {} diverge".format(
            s["asserted"], s["asserted_failed"], s["informational"], s["informational_failed"]
        )
    )
    lines.append("exit status: {}".format(s["exit_status"]))
    return "\n".join(lines) + "\n"


def render_json(reports, degree: int, seed: int) -> dict:
    return {
        "degree": degree,
        "seed": seed,
        "reports": [r.to_json() for r in reports],
        "summary": summarize(reports),
    }
