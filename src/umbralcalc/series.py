"""Truncated formal power series with exact rational coefficients.

The list kernels below work on plain coefficient lists c[0..order] (low order
first, always padded to full length). DeltaSeries wraps a coefficient list
together with the generalized-integer family whose lowering operator the
series is read in; realization as an operator matrix lives in `operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDeltaError, NotInvertibleError
from .poly import fr
from .psi import AdmissibleSequence


def series_pad(coeffs, order: int) -> list:
    out = [fr(c) for c in coeffs[: order + 1]]
    out += [Fraction(0)] * (order + 1 - len(out))
    return out


def series_mul(a, b, order: int) -> list:
    a, b = series_pad(a, order), series_pad(b, order)
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def series_power(a, n: int, order: int) -> list:
    out = series_pad([1], order)
    for _ in range(n):
        out = series_mul(out, a, order)
    return out


def series_inverse(a, order: int) -> list:
    """Multiplicative inverse; requires a[0] != 0."""
    a = series_pad(a, order)
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


def series_compose(outer, inner, order: int) -> list:
    """outer(inner(t)); requires inner[0] == 0 for a well defined truncation."""
    inner = series_pad(inner, order)
    if inner[0] != 0:
        raise NotDeltaError("inner series must have zero constant term")
    out = [Fraction(0)] * (order + 1)
    power = series_pad([1], order)
    for k, c in enumerate(series_pad(outer, order)):
        if c != 0:
            for i in range(order + 1):
                if power[i]:
                    out[i] += c * power[i]
        if k < order:
            power = series_mul(power, inner, order)
    return out


def series_derivative(a, order: int) -> list:
    a = series_pad(a, order)
    return series_pad([i * a[i] for i in range(1, order + 1)], order)


def series_compositional_inverse(a, order: int) -> list:
    """Series g with a(g(t)) = t + O(t^{order+1}); needs a delta shape."""
    a = series_pad(a, order)
    if a[0] != 0 or len(a) < 2 or a[1] == 0:
        raise NotDeltaError("compositional inverse needs c0 = 0 and c1 != 0")
    g = [Fraction(0)] * (order + 1)
    if order >= 1:
        g[1] = 1 / a[1]
    for k in range(2, order + 1):
        # coefficient of t^k in a(g) with g[k] unknown is a[1]*g[k] + known
        partial = series_compose(a, g, k)
        g[k] = -partial[k] / a[1]
    return g


def series_log_reduced(a, order: int) -> list:
    """log(a / a[0]) as a zero-constant series; requires a[0] != 0."""
    a = series_pad(a, order)
    if a[0] == 0:
        raise NotInvertibleError("logarithm needs a nonzero constant term")
    rest = [Fraction(0)] + [c / a[0] for c in a[1:]]
    out = [Fraction(0)] * (order + 1)
    power = series_pad([1], order)
    for k in range(1, order + 1):
        power = series_mul(power, rest, order)
        sign = Fraction(1 if k % 2 == 1 else -1, k)
        for i in range(order + 1):
            if power[i]:
                out[i] += sign * power[i]
    return out


def series_exp_reduced(a, order: int) -> list:
    """exp(a) for a zero-constant series a."""
    a = series_pad(a, order)
    if a[0] != 0:
        raise NotDeltaError("exponential defined here for zero constant term only")
    out = series_pad([1], order)
    power = series_pad([1], order)
    factorial = 1
    for k in range(1, order + 1):
        power = series_mul(power, a, order)
        factorial *= k
        for i in range(order + 1):
            if power[i]:
                out[i] += power[i] / factorial
    return out


@dataclass(frozen=True)
class DeltaSeries:
    """Coefficients c_0..c_order of a series read in a lowering operator.

    The family only matters when the series is realized as an operator or
    graded by generalized factorials; the coefficient algebra is family free.
    """

    base: AdmissibleSequence
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple([fr(c) for c in self.coeffs]))

    @staticmethod
    def from_list(base: AdmissibleSequence, coeffs, order: int | None = None) -> "DeltaSeries":
        order = base.bound if order is None else order
        return DeltaSeries(base, tuple(series_pad(coeffs, order)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    @property
    def is_delta(self) -> bool:
        return self.coeffs[0] == 0 and self.order >= 1 and self.coeffs[1] != 0

    @property
    def is_invertible(self) -> bool:
        return self.coeffs[0] != 0

    def require_delta(self) -> "DeltaSeries":
        if not self.is_delta:
            raise NotDeltaError("series needs c0 = 0 and c1 != 0")
        return self

    def require_invertible(self) -> "DeltaSeries":
        if not self.is_invertible:
            raise NotInvertibleError("series needs c0 != 0")
        return self

    def _wrap(self, coeffs) -> "DeltaSeries":
        return DeltaSeries(self.base, tuple(series_pad(coeffs, self.order)))

    def multiply(self, other: "DeltaSeries") -> "DeltaSeries":
        return self._wrap(series_mul(self.coeffs, other.coeffs, self.order))

    def power(self, n: int) -> "DeltaSeries":
        return self._wrap(series_power(self.coeffs, n, self.order))

    def multiplicative_inverse(self) -> "DeltaSeries":
        self.require_invertible()
        return self._wrap(series_inverse(self.coeffs, self.order))

    def compose(self, inner: "DeltaSeries") -> "DeltaSeries":
        return self._wrap(series_compose(self.coeffs, inner.coeffs, self.order))

    def compositional_inverse(self) -> "DeltaSeries":
        self.require_delta()
        return self._wrap(series_compositional_inverse(self.coeffs, self.order))

    def formal_derivative(self) -> "DeltaSeries":
        return self._wrap(series_derivative(self.coeffs, self.order))

    def formal_log_reduced(self) -> "DeltaSeries":
        """log(s / c_0); the dropped log c_0 is irrelevant to commutators."""
        return self._wrap(series_log_reduced(self.coeffs, self.order))

    def shift_down(self) -> "DeltaSeries":
        """Divide a delta series by t (drop the c_0 = 0 term)."""
        if self.coeffs[0] != 0:
            raise NotDeltaError("shift_down needs a zero constant term")
        return self._wrap(list(self.coeffs[1:]))
