"""Acceptance gate: fourteen exactness properties checked on the standard
roster (classical, q=2, q=1/2, fibonacci, hyperbolic, seeded custom) at
working degree 12, entirely in rational arithmetic. Each test prints a
single pass/fail line; informational findings are printed but never gate."""

import math
import random
from fractions import Fraction

from umbralcalc import (
    AdmissibleSequence,
    DeltaSeries,
    IntegralOperator,
    Polynomial,
    SequenceTable,
    StarContext,
    basic_sequence,
    basic_sequence_from_series,
    closed_form_routes,
    commutator,
    detect_psi_form,
    divided_difference,
    generating_function_failures,
    identity_operator,
    indicator,
    jackson_operator,
    multiplication_x,
    operator_polynomial,
    orthogonality_failures,
    poisson_psi_polynomials,
    psi_derivative,
    realize_delta_series,
    sheffer_sequence,
    spectral_operator,
    star_power,
    star_product,
    umbral_operator,
    expand_in_dual_pair,
    verify_binomial_type,
    inverse_reconstruction_failures,
    lowering_failures,
    right_inverse_failures,
    verify_sheffer_binomial,
    xhat_psi,
    zero_operator,
)
from umbralcalc.operators import weighted_shift
from umbralcalc.poly import ONE
from umbralcalc.psi import Q_DEFORMED
from umbralcalc.sequences import default_shift_samples
from umbralcalc.spectral import (
    appell_telescope_windows,
    factorization_windows,
    gram_failures,
    mutator_failures,
    qhat_operator,
    qplane_commutation,
    qplane_substitution_failures,
    shift_raiser,
)
from umbralcalc.star import poisson_raising_route, star_product_truncated

from conftest import SEED, random_custom_family

SMALL = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)]


def _conclude(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _finding(num: int, text: str):
    print(f"criterion {num:02d} finding: {text}")


def _rng(tag: str) -> random.Random:
    return random.Random(f"{SEED}:acceptance:{tag}")


def _nonzero(rng):
    return rng.choice(SMALL)


def _sparse(rng):
    return rng.choice(SMALL + [Fraction(0)] * 6)


def _rand_delta(seq, rng, order, unit_slope=False):
    coeffs = [Fraction(0), Fraction(1) if unit_slope else _nonzero(rng)]
    coeffs += [_sparse(rng) for _ in range(2, order + 1)]
    return DeltaSeries.from_list(seq, coeffs, order)


def _rand_invertible(seq, rng, order):
    coeffs = [_nonzero(rng)] + [_sparse(rng) for _ in range(1, order + 1)]
    return DeltaSeries.from_list(seq, coeffs, order)


def _rand_triangular(rng, bound):
    cols = []
    for j in range(bound + 1):
        cols.append(Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(j + 1)]))
    from umbralcalc import OperatorMatrix

    return OperatorMatrix(tuple(cols))


def test_criterion_01_commutator_is_identity(families, degree):
    ident = identity_operator(degree)
    ok = True
    for seq in families:
        got = commutator(psi_derivative(seq, degree), xhat_psi(seq, degree))
        ok = ok and got.agreement_window(ident) >= degree - 1
    _conclude(1, ok)


def test_criterion_02_power_reordering_and_exponential_exchange(families, degree):
    ok = True
    for seq in families:
        d = psi_derivative(seq, degree)
        r = xhat_psi(seq, degree)
        dp = [identity_operator(degree)]
        rp = [identity_operator(degree)]
        for _ in range(degree):
            dp.append(d.compose(dp[-1]))
            rp.append(r.compose(rp[-1]))

        for n in range(5):
            for m in range(5):
                if n == 0 and m == 0:
                    continue
                lhs = dp[n].compose(rp[m])
                rhs = zero_operator(degree)
                for k in range(min(n, m) + 1):
                    c = Fraction(
                        math.comb(n, k) * math.comb(m, k) * math.factorial(k)
                    )
                    rhs = rhs.add(rp[m - k].compose(dp[n - k]).scale(c))
                ok = ok and lhs.agreement_window(rhs) >= degree - m

        # order-(i, j) coefficients of the exponential exchange identity,
        # to combined order 12
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                if i == 0 and j == 0:
                    continue
                lhs = dp[j].compose(rp[i]).scale(
                    Fraction(1, math.factorial(j) * math.factorial(i))
                )
                rhs = zero_operator(degree)
                for k in range(min(i, j) + 1):
                    c = Fraction(
                        1,
                        math.factorial(k)
                        * math.factorial(i - k)
                        * math.factorial(j - k),
                    )
                    rhs = rhs.add(rp[i - k].compose(dp[j - k]).scale(c))
                ok = ok and lhs.agreement_window(rhs) >= degree - i
    _conclude(2, ok)


def test_criterion_03_closed_form_routes_agree(families, degree):
    rng = _rng("c03")
    ok = True
    for seq in families:
        series_list = [
            DeltaSeries.from_list(seq, [0, 1], degree),
            DeltaSeries.from_list(seq, [0, 1, 1], degree),
        ]
        series_list += [_rand_delta(seq, rng, degree) for _ in range(4)]
        for q_series in series_list:
            direct = basic_sequence_from_series(q_series, degree).table
            for table in closed_form_routes(q_series, degree).values():
                ok = ok and table.entries == direct.entries
    _conclude(3, ok)


def test_criterion_04_detection_round_trip(degree):
    rng = _rng("c04")
    ok = True
    for _ in range(20):
        seq = random_custom_family(rng, degree + 1)
        series = _rand_delta(seq, rng, degree, unit_slope=True)
        op = realize_delta_series(series, degree)
        result = detect_psi_form(op)
        ok = (
            ok
            and result.consistent
            and result.candidate == seq.values[1 : degree + 1]
            and result.series.coeffs == series.coeffs[: degree + 1]
            and realize_delta_series(result.series, degree).columns == op.columns
        )

    classical = AdmissibleSequence.classical(degree + 1)
    d = psi_derivative(classical, degree)
    sandwich = d.compose(multiplication_x(degree)).compose(d)

    result = detect_psi_form(sandwich)
    ok = (
        ok
        and result.consistent
        and result.candidate == tuple(Fraction(n * n) for n in range(1, degree + 1))
        and realize_delta_series(result.series, degree).columns == sandwich.columns
    )

    split = sandwich.scale(Fraction(1, 2)).subtract(d.powers(3)[3].scale(Fraction(1, 3)))
    result = detect_psi_form(split)
    ok = (
        ok
        and not result.consistent
        and result.candidate
        == tuple(Fraction(n * n, 2) for n in range(1, degree + 1))
    )

    doubled = sandwich.scale(4).subtract(d.scale(2))
    result = detect_psi_form(doubled)
    ok = (
        ok
        and result.consistent
        and result.candidate
        == tuple(Fraction(2 * n * (2 * n - 1)) for n in range(1, degree + 1))
        and realize_delta_series(result.series, degree).columns == doubled.columns
    )
    _conclude(4, ok)


def _top_shift_certificate(seq, q_series, table, bound):
    """The one perturbation that stays additive: the linear coefficient of
    the top entry. The perturbed table must be the basic table of a series
    that differs from the original only in its top coefficient."""
    monomials = SequenceTable(tuple(Polynomial.monomial(i) for i in range(bound + 1)))
    induced = (
        umbral_operator(monomials, table)
        .compose(psi_derivative(seq, bound))
        .compose(umbral_operator(table, monomials))
    )
    result = detect_psi_form(induced)
    if not (result.consistent and result.candidate == seq.values[1 : bound + 1]):
        return False
    if realize_delta_series(result.series, bound).columns != induced.columns:
        return False
    got, want = result.series.coeffs, q_series.coeffs
    return got[:bound] == want[:bound] and got[bound] != want[bound]


def test_criterion_05_addition_rule_and_perturbation_rejection(families):
    small_degree = 8
    shifts = default_shift_samples(10)
    rng = _rng("c05")
    ok = True
    for seq in families:
        q_series = DeltaSeries.from_list(seq, [0, 1, 1], small_degree)
        table = basic_sequence_from_series(q_series, small_degree).table
        ok = ok and verify_binomial_type(table, seq, shifts).passed
        random_series = _rand_delta(seq, rng, small_degree)
        random_table = basic_sequence_from_series(random_series, small_degree).table
        ok = ok and verify_binomial_type(random_table, seq, shifts).passed

        for n in range(small_degree + 1):
            for j in range(n + 1):
                coeffs = list(table[n].coeffs)
                coeffs[j] += 1
                if j == n and coeffs[j] == 0:
                    coeffs[j] += 1
                entries = list(table)
                entries[n] = Polynomial(coeffs)
                perturbed = SequenceTable(tuple(entries))
                check = verify_binomial_type(perturbed, seq, shifts)
                if n == small_degree and j == 1:
                    ok = (
                        ok
                        and check.passed
                        and _top_shift_certificate(seq, q_series, perturbed, small_degree)
                    )
                else:
                    ok = ok and not check.passed
    _conclude(5, ok)


def test_criterion_06_prefactored_tables_both_directions(families, degree):
    rng = _rng("c06")
    ok = True
    for seq in families:
        for _ in range(4):
            q_series = _rand_delta(seq, rng, degree)
            s_series = _rand_invertible(seq, rng, degree)
            sheffer = sheffer_sequence(q_series, s_series, degree)
            ok = ok and next(lowering_failures(sheffer.q_op, sheffer.table, seq), None) is None
            ok = ok and next(inverse_reconstruction_failures(sheffer), None) is None
            ok = ok and verify_sheffer_binomial(sheffer).passed
    _conclude(6, ok)


def test_criterion_07_generating_function(families, degree):
    rng = _rng("c07")
    ok = True
    for seq in families:
        pairs = [
            (
                DeltaSeries.from_list(seq, [0, 1], degree),
                DeltaSeries.from_list(seq, [1, 1], degree),
            ),
            (
                DeltaSeries.from_list(seq, [0, 1, 1], degree),
                DeltaSeries.from_list(seq, [1, 1, Fraction(1, 2)], degree),
            ),
            (_rand_delta(seq, rng, degree), _rand_invertible(seq, rng, degree)),
        ]
        for q_series, s_series in pairs:
            sheffer = sheffer_sequence(q_series, s_series, degree)
            ok = ok and next(generating_function_failures(sheffer, 8), None) is None
    _conclude(7, ok)


def test_criterion_08_expansion_reassembles(families, degree):
    rng = _rng("c08")
    ok = True
    for seq in families:
        d = psi_derivative(seq, degree)
        operators = [_rand_triangular(rng, degree) for _ in range(10)]
        for raiser in (xhat_psi(seq, degree), multiplication_x(degree)):
            for t in operators:
                result = expand_in_dual_pair(t, d, raiser)
                ok = ok and result.reassembled.columns == t.columns

        for t in (
            realize_delta_series(DeltaSeries.from_list(seq, [0, 1, 1], degree), degree),
            xhat_psi(seq, degree).compose(d),
        ):
            ok = ok and indicator(t, d, 8)
    _conclude(8, ok)


def test_criterion_09_diagonal_pairing(families, degree):
    rng = _rng("c09")
    ok = True
    for seq in families:
        sheffer = sheffer_sequence(
            DeltaSeries.from_list(seq, [0, 1, 1], degree),
            DeltaSeries.from_list(seq, [1, 1, Fraction(1, 2)], degree),
            degree,
        )
        ok = ok and next(orthogonality_failures(sheffer, degree), None) is None
        if all(seq.n_psi(n) > 0 for n in range(1, degree + 1)):
            ok = ok and next(gram_failures(sheffer, rng, 4), None) is None
    _conclude(9, ok)


def test_criterion_10_index_operator_eigenrelation(families, degree):
    rng = _rng("c10")
    ok = True
    findings = []
    for seq in families:
        pairs = [
            (
                DeltaSeries.from_list(seq, [0, 1], degree),
                DeltaSeries.from_list(seq, [1, 1], degree),
            ),
            (
                DeltaSeries.from_list(seq, [0, 1, 1], degree),
                DeltaSeries.from_list(seq, [1, 1, Fraction(1, 2)], degree),
            ),
            (_rand_delta(seq, rng, degree), _rand_invertible(seq, rng, degree)),
        ]
        for q_series, s_series in pairs:
            sheffer = sheffer_sequence(q_series, s_series, degree)
            result = spectral_operator(sheffer)
            for n in range(min(10, degree) + 1):
                ok = ok and result.definitional.apply(
                    sheffer.table[n]
                ) == sheffer.table[n].scale(n)
        # printed coefficient formula recorded per family on the middle pair
        sheffer = sheffer_sequence(pairs[1][0], pairs[1][1], degree)
        result = spectral_operator(sheffer)
        divergence = result.printed_divergence
        findings.append(
            f"{seq.label}: printed coefficient formula "
            + ("agrees" if divergence is None else f"diverges at order {divergence}")
        )
    for text in findings:
        _finding(10, text)
    _conclude(10, ok)


def test_criterion_11_right_inverses(families, degree):
    ok = True
    for seq in families:
        op = IntegralOperator.psi_integral(seq, degree)
        ok = ok and op.partner == psi_derivative(seq, degree)
        ok = ok and next(right_inverse_failures(op), None) is None
        if seq.family == Q_DEFORMED:
            q = dict(seq.params)["q"]
            q_int = IntegralOperator.q_integral(q, degree)
            ok = ok and q_int.partner == jackson_operator(q, degree)
            ok = ok and next(right_inverse_failures(q_int), None) is None
            ok = ok and q_int.weights == op.weights

    shape = [Fraction(2), Fraction(-2)]
    q_r = Fraction(1, 3)
    r_int = IntegralOperator.r_integral(shape, q_r, degree)
    ok = ok and next(right_inverse_failures(r_int), None) is None
    seq_r = AdmissibleSequence.r_series(shape, q_r, degree + 1)
    ok = ok and r_int.partner.columns == psi_derivative(seq_r, degree).columns

    # the divided difference as an alternating derivative series, exact on
    # every polynomial of degree <= 12
    classical = AdmissibleSequence.classical(degree + 1)
    d_cl = psi_derivative(classical, degree)
    acc = zero_operator(degree)
    d_power = identity_operator(degree)
    for n in range(1, degree + 1):
        d_power = d_cl.compose(d_power)
        c = Fraction((-1) ** (n + 1), math.factorial(n))
        front = weighted_shift(n - 1, degree, lambda j: c)  # c x^(n-1) times, truncated
        acc = acc.add(front.compose(d_power))
    ok = ok and acc.columns == divided_difference(degree).columns
    _conclude(11, ok)


def test_criterion_12_deformed_bracket_calculus(families, degree):
    ys = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-2), Fraction(3), Fraction(1, 3), Fraction(-1, 2), Fraction(5)]
    fs = [Polynomial([1, 1]), Polynomial([0, 0, 1]), Polynomial([2, 0, Fraction(1, 2)])]
    ok = True
    for seq in families:
        basic = basic_sequence(psi_derivative(seq, degree), seq, degree)
        bracket = mutator_failures(basic, shift_raiser(basic), qhat_operator(basic))
        ok = ok and next(bracket, None) is None

        if seq.family == Q_DEFORMED:
            q = dict(seq.params)["q"]
            ok = ok and qplane_commutation(q, degree)
            ok = ok and next(qplane_substitution_failures(seq, degree, ys), None) is None
            ok = ok and verify_binomial_type(basic.table, seq, ys).passed
            sheffer = sheffer_sequence(
                DeltaSeries.from_list(seq, [0, 1], degree),
                DeltaSeries.from_list(seq, [1, 1], degree),
                degree,
            )
            ok = ok and verify_sheffer_binomial(sheffer, ys).passed

        laws = factorization_windows(basic, (1, 2, 3), fs)
        for n, (first, second, windows) in zip((1, 2, 3), laws):
            ok = ok and first == degree and second >= degree - n
            for f, (plain, _) in zip(fs, windows):
                ok = ok and plain >= degree - f.degree - n

        # findings: the printed telescoped raising step and the even-order
        # alternating sums, neither of which gates
        from umbralcalc import appell_sequence

        appell = appell_sequence(
            DeltaSeries.from_list(seq, [1, 1, Fraction(1, 2)], degree), degree
        )
        printed, _ = appell_telescope_windows(basic, appell.table, 2)
        _finding(
            12,
            f"{seq.label}: telescoped raising step as printed: "
            f"{'holds' if printed >= degree - 3 else 'diverges'}",
        )
        even = None
        for m in range(2, degree + 1, 2):
            v = sum(((-1) ** k) * seq.binomial(m, k) for k in range(m + 1))
            if v != 0:
                even = (m, v)
                break
        _finding(
            12,
            f"{seq.label}: even-order alternating sums "
            + ("all vanish" if even is None else f"first nonzero at order {even[0]}"),
        )
    _conclude(12, ok)


def test_criterion_13_growth_family_integrality():
    fib = AdmissibleSequence.fibonacci(16)
    ok = True
    for n in range(17):
        for k in range(n + 1):
            ok = ok and fib.binomial(n, k).denominator == 1
    _conclude(13, ok)


def test_criterion_14_substitution_product_calculus(families, degree):
    rng = _rng("c14")
    ok = True
    for seq in families:
        ctx = StarContext.create(seq, degree)
        d = psi_derivative(seq, degree)
        raiser = ctx.raiser

        # a) the lowering steps down the substitution powers
        for n in range(1, degree + 1):
            ok = ok and d.apply(star_power(ctx, n)) == star_power(ctx, n - 1).scale(n)

        # b) the raiser exponential applied to 1 is the graded exponential
        for alpha in (Fraction(1), Fraction(1, 2)):
            total = Polynomial()
            for n in range(degree + 1):
                total = total + star_power(ctx, n).scale(
                    alpha**n / math.factorial(n)
                )
            ok = ok and total == seq.exp_polynomial(alpha, degree)

        # c) plain/graded exponential splitting
        for alpha, beta in (
            (Fraction(1), Fraction(1)),
            (Fraction(1, 2), Fraction(-1)),
            (Fraction(2), Fraction(1, 2)),
        ):
            plain = Polynomial(
                [alpha**k / math.factorial(k) for k in range(degree + 1)]
            )
            got = star_product_truncated(ctx, plain, seq.exp_polynomial(beta, degree))
            ok = ok and got == seq.exp_polynomial(alpha + beta, degree)

        # d) product rule on monomial-by-power products, exact when the
        # total degree stays inside the bound
        for k in range(4):
            for n in range(4):
                f = Polynomial.monomial(k)
                g = star_power(ctx, n)
                lhs = d.apply(star_product(ctx, f, g))
                rhs = star_product(ctx, f.derivative(), g) + star_product(
                    ctx, f, d.apply(g)
                )
                ok = ok and lhs == rhs

        # e) product rule for sampled polynomials on the window
        for _ in range(3):
            f = Polynomial([_sparse(rng) for _ in range(4)])
            g = Polynomial([_sparse(rng) for _ in range(5)])
            lhs = d.apply(star_product_truncated(ctx, f, g))
            rhs = star_product_truncated(
                ctx, f.derivative(), g
            ) + star_product_truncated(ctx, f, d.apply(g))
            ok = ok and lhs.truncate(degree - 1) == rhs.truncate(degree - 1)

        # f) operator products of the raiser against substitution products
        for _ in range(3):
            f = Polynomial([_sparse(rng) for _ in range(4)])
            g = Polynomial([_sparse(rng) for _ in range(4)])
            g_tilde = operator_polynomial(g, raiser).apply(ONE)
            ok = ok and operator_polynomial(f, raiser).apply(g_tilde) == star_product(
                ctx, f, g_tilde
            )

        # bracketing against raiser powers formally differentiates them
        for n in range(1, 5):
            got = commutator(d, raiser.powers(n)[-1])
            ok = ok and got.agreement_window(raiser.powers(n - 1)[-1].scale(n)) >= degree - n

        # the weighted family: both construction routes and the recurrence
        # system on its stated window
        for lam in (Fraction(1), Fraction(1, 2)):
            ps = poisson_psi_polynomials(ctx, lam, 4)
            alt = poisson_raising_route(ctx, lam, 4)
            ok = ok and all(p == a for p, a in zip(ps, alt))
            residual0 = d.apply(ps[0]) + ps[0].scale(lam)
            ok = ok and residual0.truncate(degree - 1) == Polynomial()
            for m in range(1, 5):
                window = degree - m - 1
                lhs = d.apply(ps[m]) + ps[m].scale(lam)
                rhs = ps[m - 1].scale(lam)
                ok = ok and lhs.truncate(window) == rhs.truncate(window)
    _conclude(14, ok)
