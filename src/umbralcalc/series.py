"""Truncated formal power series with exact rational coefficients.

A DeltaSeries is one `Polynomial` in t, truncated at an explicit `order`,
together with the generalized-integer family whose lowering operator the
series is read in. Every operation is written once on the integer kernel of
`poly`: the product is a polynomial product cut at the order as it is
formed (as in every step below), the multiplicative inverse is the
fraction-free recurrence on the numerators (Knuth, TAOCP vol. 2, sec. 4.7),
one integer pass ending in one canonical form, composition is Horner's
rule, the compositional inverse is Lagrange's g_k = [t^(k-1)] (t / a(t))^k / k,
and the formal derivative is the polynomial one. A series is read at
another order, cut or zero-padded, on its polynomial (`at_order`), and
built from a polynomial without a list of Fractions (`from_polynomial`).
`coeffs` is the zero-padded view c_0..c_order. Realization as an operator
lives in `operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NotDeltaError, NotInvertibleError
from .poly import ONE, ZERO, Polynomial, _canonical, _product, _shift_down
from .psi import AdmissibleSequence


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

    @staticmethod
    def from_polynomial(base: AdmissibleSequence, p: Polynomial, order: int) -> "DeltaSeries":
        """The series of p, cut at t^order."""
        return _new(base, p.truncate(order), order)

    def at_order(self, order: int) -> "DeltaSeries":
        """This series read at another order: cut, or zero-padded."""
        return DeltaSeries.from_polynomial(self.base, self.polynomial, order)

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

    def multiply(self, other: "DeltaSeries") -> "DeltaSeries":
        return _new(self.base, _product(self.polynomial, other.polynomial, self.order), self.order)

    def multiplicative_inverse(self) -> "DeltaSeries":
        """With a = sum_k alpha_k t^k / A on integers, beta_0 = 1 and beta_n =
        -sum_(k=1..n) alpha_k alpha_0^(k-1) beta_(n-k) are integers, and
        1 / a = A sum_n beta_n alpha_0^(order-n) t^n / alpha_0^(order+1)."""
        self.require_invertible()
        order, alphas = self.order, self.polynomial.nums
        a0 = alphas[0]
        powers = [1]  # alpha_0^k, k = 0..order
        for _ in range(order):
            powers.append(powers[-1] * a0)
        weights = [(k, v * powers[k - 1]) for k, v in enumerate(alphas[1:], 1) if v]
        betas = [1]
        for n in range(1, order + 1):
            acc = 0
            for k, w in weights:
                if k > n:
                    break
                acc -= w * betas[n - k]
            betas.append(acc)
        sign = 1 if a0 > 0 or order % 2 else -1  # keeps alpha_0^(order+1) positive
        num = sign * self.polynomial.den
        out = [num * b * w for b, w in zip(betas, reversed(powers))]
        return _new(self.base, _canonical(out, sign * powers[-1] * a0), order)

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
        return _new(self.base, acc.scale(Fraction(1, out.den)), self.order)

    def compositional_inverse(self) -> "DeltaSeries":
        """g with self(g(t)) = t + O(t^(order+1)), by Lagrange inversion."""
        self.require_delta()
        top = self.order - 1
        h = self.shift_down().multiplicative_inverse().polynomial  # t / a(t)
        g, power = [Fraction(0)], ONE
        for k in range(1, self.order + 1):
            power = _product(power, h, top)
            g.append(power.coefficient(k - 1) / k)
        return _new(self.base, Polynomial(g), self.order)

    def formal_derivative(self) -> "DeltaSeries":
        return _new(self.base, self.polynomial.derivative(), self.order)

    def shift_down(self) -> "DeltaSeries":
        """Divide a delta series by t (drop the c_0 = 0 term)."""
        if self.polynomial.constant_term != 0:
            raise NotDeltaError("shift_down needs a zero constant term")
        return _new(self.base, _shift_down(self.polynomial, 1), self.order)


def _new(base: AdmissibleSequence, p: Polynomial, order: int) -> DeltaSeries:
    """The series with this polynomial, which has no term above t^order."""
    s = object.__new__(DeltaSeries)
    object.__setattr__(s, "base", base)
    object.__setattr__(s, "polynomial", p)
    object.__setattr__(s, "order", order)
    return s
