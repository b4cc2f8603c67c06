"""Truncated formal power series with exact rational coefficients.

A DeltaSeries is one `Polynomial` in t, truncated at an explicit `order`,
together with the generalized-integer family whose lowering operator the
series is read in. Every operation is written once on the integer kernel of
`poly`: the product is a polynomial product cut at the order as it is
formed (as in every step below), the multiplicative inverse is Newton's
iteration b <- b (2 - a b), which doubles the number of correct terms per
step (Brent and Kung, J. ACM 1978), composition is Horner's rule, the compositional inverse is Lagrange's
g_k = [t^(k-1)] (t / a(t))^k / k, and the formal derivative is the
polynomial one. `coeffs` is the zero-padded view c_0..c_order. Realization
as an operator lives in `operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NotDeltaError, NotInvertibleError
from .poly import ONE, ZERO, Polynomial, _product, _shift_down
from .psi import AdmissibleSequence

_TWO = Polynomial([2])


@dataclass(frozen=True, init=False)
class DeltaSeries:
    """Coefficients c_0..c_order of a series read in a lowering operator.

    The family only matters when the series is realized as an operator or
    graded by generalized factorials; the coefficient algebra is family free.
    """

    base: AdmissibleSequence
    polynomial: Polynomial  # no term above t^order
    order: int

    @staticmethod
    def from_list(base: AdmissibleSequence, coeffs, order: int | None = None) -> "DeltaSeries":
        order = base.bound if order is None else order
        return _new(base, Polynomial(coeffs[: order + 1]), order)

    @cached_property
    def coeffs(self) -> tuple:
        """c_0..c_order as Fractions, zero-padded to the order."""
        cs = self.polynomial.coeffs
        return cs + (Fraction(0),) * (self.order + 1 - len(cs))

    def coefficient(self, k: int) -> Fraction:
        return self.polynomial.coefficient(k)

    @property
    def is_delta(self) -> bool:
        nums = self.polynomial.nums
        return len(nums) > 1 and not nums[0] and nums[1] != 0

    @property
    def is_invertible(self) -> bool:
        return self.polynomial.constant_term != 0

    def require_delta(self) -> "DeltaSeries":
        if not self.is_delta:
            raise NotDeltaError("series needs c0 = 0 and c1 != 0")
        return self

    def require_invertible(self) -> "DeltaSeries":
        if not self.is_invertible:
            raise NotInvertibleError("series needs c0 != 0")
        return self

    def _wrap(self, p: Polynomial) -> "DeltaSeries":
        return _new(self.base, p.truncate(self.order), self.order)

    def multiply(self, other: "DeltaSeries") -> "DeltaSeries":
        return self._wrap(_product(self.polynomial, other.polynomial, self.order))

    def multiplicative_inverse(self) -> "DeltaSeries":
        self.require_invertible()
        a = self.polynomial
        inverse, known = Polynomial([1 / a.constant_term]), 1  # terms below t^known
        while known <= self.order:
            top = min(2 * known, self.order + 1) - 1
            inverse = _product(inverse, _TWO - _product(a, inverse, top), top)
            known = top + 1
        return self._wrap(inverse)

    def powers(self, count: int) -> list:
        """[1, self, ..., self^count], each truncated at the order."""
        out = [_new(self.base, ONE.truncate(self.order), self.order)]
        for _ in range(count):
            out.append(out[-1].multiply(self))
        return out

    def compose(self, inner: "DeltaSeries") -> "DeltaSeries":
        """self(inner(t)); needs inner to have a zero constant term, so the
        truncation is well defined."""
        g = inner.polynomial.truncate(self.order)
        if g.constant_term != 0:
            raise NotDeltaError("inner series must have zero constant term")
        out = self.polynomial
        acc = ZERO
        for v in reversed(out.nums):
            acc = _product(acc, g, self.order) + Polynomial([v])
        return self._wrap(acc.scale(Fraction(1, out.den)))

    def compositional_inverse(self) -> "DeltaSeries":
        """g with self(g(t)) = t + O(t^(order+1)), by Lagrange inversion."""
        self.require_delta()
        top = self.order - 1
        h = self.shift_down().multiplicative_inverse().polynomial  # t / a(t)
        g, power = [Fraction(0)], ONE
        for k in range(1, self.order + 1):
            power = _product(power, h, top)
            g.append(power.coefficient(k - 1) / k)
        return self._wrap(Polynomial(g))

    def formal_derivative(self) -> "DeltaSeries":
        return self._wrap(self.polynomial.derivative())

    def shift_down(self) -> "DeltaSeries":
        """Divide a delta series by t (drop the c_0 = 0 term)."""
        if self.polynomial.constant_term != 0:
            raise NotDeltaError("shift_down needs a zero constant term")
        return self._wrap(_shift_down(self.polynomial, 1))


def _new(base: AdmissibleSequence, p: Polynomial, order: int) -> DeltaSeries:
    """The series with this polynomial, which has no term above t^order."""
    s = object.__new__(DeltaSeries)
    object.__setattr__(s, "base", base)
    object.__setattr__(s, "polynomial", p)
    object.__setattr__(s, "order", order)
    return s
