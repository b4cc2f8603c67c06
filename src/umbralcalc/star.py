"""Star multiplication: substitute the raising operator into the left factor.

f *_psi g = f(xhat_psi) g. On the bounded space this is exact as long as the
combined degree stays within the bound; the relaxed variant keeps every
coefficient that never leaves the bound (raising-only paths cannot fold back
down, so low coefficients of a truncated product are still exact).
A `StarContext` holds the one operator every star function reads, the
raiser; the weighted family p_m is built from the family's exponential and
again from the raiser alone, and the two routes are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DegreeOverflowError
from .operators import OperatorMatrix, operator_polynomial_applied, xhat_psi
from .poly import ONE, Polynomial
from .psi import AdmissibleSequence


@dataclass(frozen=True)
class StarContext:
    """Caches the raising operator for one family and bound."""

    seq: AdmissibleSequence
    bound: int
    raiser: OperatorMatrix

    @staticmethod
    def create(seq: AdmissibleSequence, bound: int) -> "StarContext":
        return StarContext(seq, bound, xhat_psi(seq, bound))


def star_product(ctx: StarContext, f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact star product; requires deg f + deg g within the bound."""
    if f.degree + g.degree > ctx.bound:
        raise DegreeOverflowError(
            f"star product degree {f.degree + g.degree} exceeds bound {ctx.bound}"
        )
    return operator_polynomial_applied(f, ctx.raiser, g)


def star_product_truncated(ctx: StarContext, f: Polynomial, g: Polynomial) -> Polynomial:
    """Star product with overflow silently dropped; exact below the bound."""
    return operator_polynomial_applied(f, ctx.raiser, g)


def star_power(ctx: StarContext, n: int) -> Polynomial:
    """n-th star power of x, (n!/n_psi!) x^n; `suite_star` checks the raiser."""
    if n > ctx.bound:
        raise DegreeOverflowError(f"star power {n} exceeds bound {ctx.bound}")
    return Polynomial.monomial(n, Fraction(factorial(n)) / ctx.seq.factorial(n))


def poisson_psi_polynomials(
    ctx: StarContext, lam, m_max: int
) -> list:
    """Weighted star family p_m = ((lam x)^m / m!) * exp_psi[-lam x].

    The exponential factor is truncated to degree bound - m so each product
    stays inside the space; identities involving p_m are valid on degrees
    up to bound - m - 1.
    """
    lam = Fraction(lam)
    out = []
    for m in range(m_max + 1):
        if m > ctx.bound:
            raise DegreeOverflowError(f"index {m} exceeds bound {ctx.bound}")
        left = Polynomial.monomial(m, lam**m / factorial(m))
        right = ctx.seq.exp_polynomial(-lam, ctx.bound - m)
        out.append(star_product(ctx, left, right))
    return out


def poisson_raising_route(ctx: StarContext, lam, m_max: int) -> list:
    """Same family built as ((lam R)^m / m!) exp(-lam R) 1 with R the raiser,
    the exponential cut at R^(bound - m)."""
    lam = Fraction(lam)
    out = []
    for m in range(m_max + 1):
        exp = Polynomial([(-lam) ** k / factorial(k) for k in range(ctx.bound - m + 1)])
        vec = operator_polynomial_applied(exp, ctx.raiser, ONE)  # exp(-lam R) 1
        power = Polynomial.monomial(m, lam**m / factorial(m))  # (lam R)^m / m!
        out.append(operator_polynomial_applied(power, ctx.raiser, vec))
    return out
