"""Generalized integer families and their scalar combinatorics.

An admissible family assigns to every index n >= 1 a nonzero rational n_psi
(with 0_psi = 0). Factorials, binomials, exponential coefficients and the
index-congruence sector decomposition of the exponential are all derived
from these values, and every downstream operator is graded by them.

Families are validated eagerly at construction: each n_psi for 1 <= n <= bound
must be nonzero, so later arithmetic never divides by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    BadModulusError,
    BadParameterError,
    DegenerateFamilyError,
    IndexOrderError,
    UmbralError,
    UndefinedIndexError,
    naming,
)
from .poly import Polynomial, _over_one_lcm, _reciprocals, _running_products, fr

CLASSICAL = "classical"
Q_DEFORMED = "q_deformed"
FIBONACCI = "fibonacci"
RECURRENCE = "recurrence"
R_SERIES = "r_series"
HYPERBOLIC = "hyperbolic"
CUSTOM = "custom"


@dataclass(frozen=True)
class AdmissibleSequence:
    """A validated family of generalized integers n_psi, n = 0..bound. Its
    factorials n_psi! and their reciprocals are kept as integers over one lcm
    each, which every monomial <-> e_j = x^j / j_psi! conversion reads;
    `factorial` and `binomial` read n_psi! from the same table."""

    family: str
    label: str
    bound: int
    values: tuple = field(repr=False)
    params: tuple = ()

    def __post_init__(self):
        if self.bound < 1:
            raise BadParameterError("degree bound must be at least 1")
        if len(self.values) != self.bound + 1 or self.values[0] != 0:
            raise BadParameterError("values must list n_psi for n = 0..bound")
        for n in range(1, self.bound + 1):
            if self.values[n] == 0:
                raise DegenerateFamilyError(
                    f"{self.label}: generalized integer at n = {n} is zero"
                )

    # -- constructors -----------------------------------------------------

    @staticmethod
    def classical(bound: int) -> "AdmissibleSequence":
        values = tuple([Fraction(n) for n in range(bound + 1)])
        return AdmissibleSequence(CLASSICAL, "classical", bound, values)

    @staticmethod
    def q_deformed(q, bound: int) -> "AdmissibleSequence":
        q = fr(q)
        if q == 1:
            raise DegenerateFamilyError("q = 1 -- use the classical family")
        values = tuple([(1 - q**n) / (1 - q) for n in range(bound + 1)])
        return AdmissibleSequence(
            Q_DEFORMED, f"q_deformed(q={q})", bound, values, (("q", str(q)),)
        )

    @staticmethod
    def fibonacci(bound: int) -> "AdmissibleSequence":
        values = [Fraction(0), Fraction(1)]
        while len(values) <= bound:
            values.append(values[-1] + values[-2])
        return AdmissibleSequence(FIBONACCI, "fibonacci", bound, tuple(values))

    @staticmethod
    def recurrence(alphas, betas, bound: int) -> "AdmissibleSequence":
        alphas = tuple([fr(a) for a in alphas])
        betas = tuple([fr(b) for b in betas])
        if len(alphas) != len(betas) or not alphas:
            raise BadParameterError("alphas and betas must have equal length >= 1")
        if sum(betas) != 0:
            raise BadParameterError("recurrence weights must sum to zero")
        if sum(b * a for a, b in zip(alphas, betas)) != 1:
            raise BadParameterError("weighted roots must sum to one")
        values = tuple([
            sum((b * a**n for a, b in zip(alphas, betas)), Fraction(0))
            for n in range(bound + 1)
        ])
        params = (
            ("alphas", tuple([str(a) for a in alphas])),
            ("betas", tuple([str(b) for b in betas])),
        )
        return AdmissibleSequence(
            RECURRENCE, f"recurrence(r={len(alphas)})", bound, values, params
        )

    @staticmethod
    def r_series(coefficients, q, bound: int) -> "AdmissibleSequence":
        coeffs = tuple([fr(c) for c in coefficients])
        q = fr(q)
        shape = Polynomial(coeffs)
        values = tuple([shape(q**n) for n in range(bound + 1)])
        if values[0] != 0:
            raise BadParameterError("series map must send 1 to 0 (zero constant sum)")
        params = (("coefficients", tuple([str(c) for c in coeffs])), ("q", str(q)))
        return AdmissibleSequence(
            R_SERIES, f"r_series(q={q})", bound, values, params
        )

    @staticmethod
    def hyperbolic(bound: int) -> "AdmissibleSequence":
        values = tuple([Fraction(2 * n * (2 * n - 1)) for n in range(bound + 1)])
        return AdmissibleSequence(HYPERBOLIC, "hyperbolic", bound, values)

    @staticmethod
    def custom(values, bound: int, label: str = "custom") -> "AdmissibleSequence":
        vals = [fr(v) for v in values]
        if len(vals) < bound:
            raise BadParameterError(
                f"need n_psi for n = 1..{bound}, got {len(vals)} values"
            )
        return AdmissibleSequence(
            CUSTOM,
            label,
            bound,
            tuple([Fraction(0)] + vals[:bound]),
            (("values", tuple([str(v) for v in vals[:bound]])),),
        )

    # -- scalar combinatorics ---------------------------------------------

    def n_psi(self, n: int) -> Fraction:
        if not 0 <= n <= self.bound:
            raise UndefinedIndexError(
                f"{self.label}: index {n} outside validated range 0..{self.bound}"
            )
        return self.values[n]

    @cached_property
    def _factorial_table(self) -> Polynomial:
        """n_psi! = F[n] / F_den, n = 0..bound, as `nums` over `den`."""
        return _over_one_lcm(_running_products(self.values[1:]))

    @cached_property
    def _inverse_factorial_table(self) -> Polynomial:
        """1 / n_psi! = G[n] / G_den, n = 0..bound, likewise."""
        return _over_one_lcm(_reciprocals(_running_products(self.values[1:])))

    @cached_property
    def _binomials(self) -> dict:
        """Rows n -> (n_psi! / (k_psi! (n-k)_psi!), k = 0..n), built on first use."""
        return {}

    def factorial(self, n: int) -> Fraction:
        if not 0 <= n <= self.bound:
            raise UndefinedIndexError(
                f"{self.label}: factorial index {n} outside 0..{self.bound}"
            )
        return self._factorial_table.coeffs[n]

    def binomial(self, n: int, k: int) -> Fraction:
        if k < 0 or k > n:
            raise IndexOrderError(f"binomial needs 0 <= k <= n, got ({n}, {k})")
        if k == 0:
            return Fraction(1)
        self.n_psi(n)
        row = self._binomials.get(n)
        if row is None:
            t = self._factorial_table.coeffs
            row = self._binomials[n] = tuple([t[n] / (t[j] * t[n - j]) for j in range(n + 1)])
        return row[k]

    def exp_polynomial(self, x_coefficient, truncation: int) -> Polynomial:
        """Truncated exponential sum_k (a^k / k_psi!) x^k."""
        a = fr(x_coefficient)
        return Polynomial(
            [a**k / self.factorial(k) for k in range(truncation + 1)]
        )

    def hyperbolic_component(
        self, j: int, m: int, x_coefficient, truncation: int
    ) -> Polynomial:
        """Sector j mod m of the truncated exponential.

        Keeps exactly the terms whose index is congruent to j modulo m; the m
        sectors partition the truncated exponential.
        """
        if m < 2:
            raise BadModulusError(f"sector modulus must be >= 2, got {m}")
        if not 0 <= j < m:
            raise BadParameterError(f"sector index must satisfy 0 <= j < {m}")
        a = fr(x_coefficient)
        coeffs = [Fraction(0)] * (truncation + 1)
        for k in range(j, truncation + 1, m):
            coeffs[k] = a**k / self.factorial(k)
        return Polynomial(coeffs)

    # -- serialization ----------------------------------------------------

    def descriptor(self) -> dict:
        out = {"family": self.family}
        for key, value in self.params:
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @staticmethod
    def from_descriptor(data: dict, bound: int) -> "AdmissibleSequence":
        if not isinstance(data, dict):
            raise BadParameterError(f"family descriptor must be an object, got {data!r}")
        family = data.get("family")

        def need(keys, listed=(), build=lambda value: value):
            """build(*values) of the rationals under `keys`, one key or a tuple,
            lists of them under the keys `listed`; a bad value names its key, and
            a value that `build` refuses keeps its error type and names every key."""
            keys = keys if isinstance(keys, tuple) else (keys,)
            values = []
            for key in keys:
                if key not in data:
                    raise BadParameterError(f"{family} family descriptor needs key {key!r}")
                if key in listed and not isinstance(data[key], list):
                    raise BadParameterError(f"{family} family descriptor key {key!r} must be a list")
                try:
                    values.append([fr(v) for v in data[key]] if key in listed else fr(data[key]))
                except BadParameterError as exc:
                    raise naming(exc, f"{family} family descriptor", key) from None
            try:
                return build(*values)
            except UmbralError as exc:
                raise naming(exc, f"{family} family descriptor", keys) from None

        if family == CLASSICAL:
            return AdmissibleSequence.classical(bound)
        if family == Q_DEFORMED:
            return need("q", build=lambda q: AdmissibleSequence.q_deformed(q, bound))
        if family == FIBONACCI:
            return AdmissibleSequence.fibonacci(bound)
        if family == RECURRENCE:
            return need(("alphas", "betas"), ("alphas", "betas"),
                        lambda alphas, betas: AdmissibleSequence.recurrence(alphas, betas, bound))
        if family == R_SERIES:
            return need(("coefficients", "q"), ("coefficients",),
                        lambda coeffs, q: AdmissibleSequence.r_series(coeffs, q, bound))
        if family == HYPERBOLIC:
            return AdmissibleSequence.hyperbolic(bound)
        if family == CUSTOM:
            return need("values", ("values",),
                        lambda values: AdmissibleSequence.custom(values, bound))
        known = ", ".join([CLASSICAL, Q_DEFORMED, FIBONACCI, RECURRENCE, R_SERIES, HYPERBOLIC, CUSTOM])
        raise naming(BadParameterError(f"unknown family {family!r}; known: {known}"),
                     "family descriptor", "family")
