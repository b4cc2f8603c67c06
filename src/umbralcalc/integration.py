"""Right inverses of the lowering operators, exact per monomial.

Each integral kind holds the one difference operator it pairs with, its
`partner`; the pairing is part of the contract and verified, not assumed.
The integral's weights are its own, not read off the partner: they are the
independent route the pairing checks. Weights read off the partner would
follow a doubled weight in the family lowering or the Jackson derivative,
and `graded-right-inverse` and `q-right-inverse` could no longer fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadParameterError, DegenerateFamilyError, DegreeOverflowError
from .operators import OperatorMatrix, jackson_operator, psi_derivative, weighted_shift
from .poly import Polynomial, fr
from .psi import AdmissibleSequence

@dataclass(frozen=True)
class IntegralOperator:
    """Monomial-diagonal right inverse: x^n -> x^{n+1} / w(n+1)."""

    bound: int
    weights: tuple  # w(n) for n = 1..bound, the divisor attached to x^n
    partner: OperatorMatrix  # the difference operator it inverts

    @staticmethod
    def psi_integral(seq: AdmissibleSequence, bound: int) -> "IntegralOperator":
        weights = tuple([seq.n_psi(n) for n in range(1, bound + 1)])
        return IntegralOperator(bound, weights, psi_derivative(seq, bound))

    @staticmethod
    def q_integral(q, bound: int) -> "IntegralOperator":
        q = fr(q)
        if q == 1:
            raise BadParameterError("q integral undefined at q = 1")
        weights = []
        for n in range(1, bound + 1):
            denom = 1 - q**n
            if denom == 0:
                raise DegenerateFamilyError(f"q^{n} = 1 degenerates the q integral")
            weights.append(denom / (1 - q))
        return IntegralOperator(bound, tuple(weights), jackson_operator(q, bound))

    @staticmethod
    def r_integral(coefficients, q, bound: int) -> "IntegralOperator":
        coeffs = [fr(c) for c in coefficients]
        q = fr(q)
        shape = Polynomial(coeffs)
        weights = []
        for n in range(1, bound + 1):
            w = shape(q**n)
            if w == 0:
                raise DegenerateFamilyError(
                    f"series weight vanishes at index {n}"
                )
            weights.append(w)
        # the matching difference operator scales x^n -> w(n) x^{n-1}
        partner = weighted_shift(-1, bound, lambda n: weights[n - 1])
        return IntegralOperator(bound, tuple(weights), partner)

    def integrate(self, p: Polynomial) -> Polynomial:
        if p.degree > self.bound - 1:
            raise DegreeOverflowError(
                f"input degree {p.degree} leaves no room below bound {self.bound}"
            )
        return self.shift.apply(p)

    @cached_property
    def shift(self) -> OperatorMatrix:
        """The weighted shift x^n -> x^{n+1} / w(n+1), top column truncated."""
        return weighted_shift(1, self.bound, lambda j: 1 / self.weights[j])


def right_inverse_failures(op: IntegralOperator):
    """Witnesses {"side", "degree"} of the pairing with `op.partner`: on the
    right side, monomials of degree below the bound on which partner o
    integral is not the identity; on the left, monomials whose difference
    image has room below the bound and on which integral o partner is not
    id - evaluation at 0."""
    bound, partner = op.bound, op.partner
    for j in range(bound):
        xj = Polynomial.monomial(j)
        if partner.apply(op.integrate(xj)) != xj:
            yield {"side": "right", "degree": j}
    for j in range(bound + 1):
        xj = Polynomial.monomial(j)
        image = partner.apply(xj)
        if image.degree > bound - 1:
            continue
        expected = xj if j >= 1 else Polynomial()
        if op.integrate(image) != expected:
            yield {"side": "left", "degree": j}
