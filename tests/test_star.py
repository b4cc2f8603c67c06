"""Star products, powers, and the weighted exponential family."""

from fractions import Fraction
import math
import random
from unittest import mock

import pytest

from umbralcalc import star
from umbralcalc.errors import DegreeOverflowError
from umbralcalc.harness import exit_status, run_suites
from umbralcalc.operators import psi_derivative, weighted_shift
from umbralcalc.poly import ONE, Polynomial
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.star import (
    StarContext,
    poisson_psi_polynomials,
    poisson_raising_route,
    star_power,
    star_product,
    star_product_truncated,
)

N = 10
Q2 = AdmissibleSequence.q_deformed(2, N + 1)
FIB = AdmissibleSequence.fibonacci(N + 1)


def ctx_for(seq):
    return StarContext.create(seq, N)


def test_star_power_frozen_values():
    assert star_power(ctx_for(Q2), 2) == Polynomial.monomial(2, Fraction(2, 3))
    assert star_power(ctx_for(FIB), 4) == Polynomial.monomial(4, 4)
    classical = ctx_for(AdmissibleSequence.classical(N + 1))
    for n in range(N + 1):
        assert star_power(classical, n) == Polynomial.monomial(n)


def test_star_power_products_add_degrees(families):
    # x^{n*} * x^{k*} = (n!/n_psi!) x^{(n+k)*}
    for seq in families:
        ctx = StarContext.create(seq, 10)
        for n in range(4):
            for k in range(4):
                left = star_power(ctx, n)
                right = star_power(ctx, k)
                got = star_product(ctx, left, right)
                expected = star_power(ctx, n + k).scale(
                    Fraction(math.factorial(n)) / seq.factorial(n)
                )
                assert got == expected, (seq.label, n, k)


def test_star_overflow_guard():
    ctx = ctx_for(Q2)
    with pytest.raises(DegreeOverflowError):
        star_product(ctx, Polynomial.monomial(6), Polynomial.monomial(5))
    # the truncated variant keeps the in-bound part
    got = star_product_truncated(ctx, Polynomial.monomial(6), Polynomial.monomial(5))
    assert not got  # the whole product lives above the bound


def test_lowering_acts_as_plain_derivative_on_star_powers(families):
    for seq in families:
        ctx = StarContext.create(seq, 10)
        d = psi_derivative(seq, 10)
        for n in range(1, 8):
            xn = star_power(ctx, n)
            got = d.apply(xn)
            assert got == star_power(ctx, n - 1).scale(n), (seq.label, n)


def test_product_rule(families):
    rng = random.Random(3)
    for seq in families:
        ctx = StarContext.create(seq, 10)
        d = psi_derivative(seq, 10)
        for _ in range(3):
            f = Polynomial([rng.randint(-3, 3) for _ in range(4)])
            g = Polynomial([rng.randint(-3, 3) for _ in range(5)])
            lhs = d.apply(star_product_truncated(ctx, f, g))
            rhs = star_product_truncated(ctx, f.derivative(), g) + star_product_truncated(
                ctx, f, d.apply(g)
            )
            # compare on the window untouched by truncation
            w = 10 - 1
            assert lhs.truncate(w) == rhs.truncate(w), seq.label


def test_poisson_family_shapes(families):
    lam = Fraction(1, 2)
    for seq in families:
        ctx = StarContext.create(seq, 10)
        ps = poisson_psi_polynomials(ctx, lam, 4)
        alt = poisson_raising_route(ctx, lam, 4)
        for m, (p, a) in enumerate(zip(ps, alt)):
            assert p == a, (seq.label, m)


def test_poisson_lowering_system(families):
    lam = Fraction(1, 2)
    for seq in families:
        bound = 10
        ctx = StarContext.create(seq, bound)
        d = psi_derivative(seq, bound)
        ps = poisson_psi_polynomials(ctx, lam, 4)
        # base case: (lowering + lam) p_0 = 0 below the truncation edge
        residual0 = d.apply(ps[0]) + ps[0].scale(lam)
        assert residual0.truncate(bound - 1) == Polynomial(), seq.label
        for m in range(1, 5):
            window = bound - m - 1
            lhs = d.apply(ps[m]) + ps[m].scale(lam)
            rhs = ps[m - 1].scale(lam)
            assert lhs.truncate(window) == rhs.truncate(window), (seq.label, m)


def test_a_broken_raiser_fails_the_star_suite_without_a_traceback(families):
    # a raiser whose column 2 is doubled: star powers no longer follow from it
    real = star.xhat_psi

    def doubled(seq, bound):
        weights = real(seq, bound).weights
        return weighted_shift(1, bound, lambda j: weights[j] * (2 if j == 2 else 1))

    with mock.patch.object(star, "xhat_psi", doubled):
        records = run_suites(["star"], families, 8)
    assert exit_status(records) == 1
    failing = [r for r in records if r.status == "fails"]
    assert any(r.identity_id == "lowering-steps-powers" for r in failing)
