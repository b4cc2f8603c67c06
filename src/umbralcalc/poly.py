"""Dense exact-rational polynomials and degree-indexed tables.

Coefficients are `fractions.Fraction`, stored low degree first with trailing
zeros trimmed, so the zero polynomial has an empty coefficient tuple and
degree -1 (the sentinel used throughout the package). Arithmetic skips zero
coefficients: the package's operators are mostly weighted shifts, so most
entries it touches are zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameterError, BasisMismatchError, DegreeOverflowError

ZERO_DEGREE = -1
_ZERO = Fraction(0)


def fr(value) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction.

    Anything else (floats, booleans, malformed or zero-denominator strings)
    raises BadParameterError naming the value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise BadParameterError(f"not an exact rational: {value!r}")


class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [fr(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, cs: list) -> "Polynomial":
        """Wrap a list of Fractions, trimming its trailing zeros in place.

        No coercion: callers pass values produced by Fraction arithmetic.
        """
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def monomial(n: int, c=1) -> "Polynomial":
        if n < 0:
            raise BadParameterError("monomial degree must be nonnegative")
        return Polynomial([0] * n + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:
                o = out[i]
                out[i] = o + c if o else c
        return Polynomial._trusted(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted([-c if c else c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = fr(c)
        if not c:
            return ZERO
        return Polynomial._trusted([c * a if a else a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return ZERO
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs, i):
                    if b:
                        o = out[j]
                        out[j] = o + a * b if o else a * b
            return Polynomial._trusted(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise BadParameterError("negative polynomial power")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, value) -> Fraction:
        value = fr(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def dilate(self, q) -> "Polynomial":
        """Return p(q*x)."""
        q = fr(q)
        out, power = [], Fraction(1)
        for c in self.coeffs:
            out.append(c * power)
            power *= q
        return Polynomial(out)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial([c])
        return acc

    def truncate(self, bound: int) -> "Polynomial":
        """Drop all terms of degree above `bound`."""
        return Polynomial(self.coeffs[: bound + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return " + ".join(terms)

    def to_json_list(self) -> list:
        return [str(c) for c in self.coeffs]


ZERO = Polynomial()
ONE = Polynomial([1])
X = Polynomial([0, 1])


def _accumulate(out: list, c: Fraction, coeffs) -> None:
    """out += c * coeffs in place, skipping zero entries; out is long enough."""
    for i, a in enumerate(coeffs):
        if a:
            o = out[i]
            out[i] = o + c * a if o else c * a


def _combine(coeffs, polys) -> Polynomial:
    """sum_i coeffs[i] * polys[i], skipping zero coefficients and entries."""
    out = []
    for c, p in zip(coeffs, polys):
        if c and p.coeffs:
            if len(out) < len(p.coeffs):
                out += [_ZERO] * (len(p.coeffs) - len(out))
            _accumulate(out, c, p.coeffs)
    return Polynomial._trusted(out)


# at most four exponent digits, so the dense coefficient list below stays small
_TERM_RE = re.compile(
    r"^(?P<sign>-)?(?P<num>\d+(?:/\d+)?)?(?:\*?(?P<x>x)(?:\^(?P<exp>\d{1,4}))?)?$"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse 'c0 + c1*x + c2*x^2' style text (also accepts '-', bare 'x')."""
    compact = text.replace(" ", "")
    if not compact:
        raise BadParameterError("empty polynomial text")
    compact = compact.replace("-", "+-").replace("++", "+").lstrip("+")
    coeffs: dict[int, Fraction] = {}
    for term in compact.split("+"):
        m = _TERM_RE.match(term) if term else None
        if not m or (m.group("num") is None and m.group("x") is None):
            raise BadParameterError(f"bad term {term!r} in polynomial text {text!r}")
        coeff = fr(m.group("num")) if m.group("num") else Fraction(1)
        if m.group("sign"):
            coeff = -coeff
        if m.group("x") is None:
            exp = 0
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    return Polynomial(out)


def polynomial_from_json(data) -> Polynomial:
    return Polynomial([fr(c) for c in data])


def multiply_capped(a: Polynomial, b: Polynomial, cap: int) -> Polynomial:
    """Multiply, raising if the true product degree exceeds `cap`."""
    product = a * b
    if product.degree > cap:
        raise DegreeOverflowError(
            f"product degree {product.degree} exceeds bound {cap}"
        )
    return product


@dataclass(frozen=True)
class SequenceTable:
    """Degree-graded table: entry n is a polynomial of degree exactly n."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for n, p in enumerate(entries):
            if p.degree != n:
                raise BasisMismatchError(
                    f"table entry {n} has degree {p.degree}, expected {n}"
                )

    @property
    def bound(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, n: int) -> Polynomial:
        return self.entries[n]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> list:
        return [p.to_json_list() for p in self.entries]

    @staticmethod
    def from_json(data) -> "SequenceTable":
        return SequenceTable(tuple(polynomial_from_json(row) for row in data))


def coordinates_in_table(table: SequenceTable, p: Polynomial) -> list:
    """Coordinates of p in the degree-graded basis given by `table`.

    Solved top degree down; exact because entry n has degree exactly n.
    """
    if p.degree > table.bound:
        raise DegreeOverflowError(
            f"degree {p.degree} exceeds table bound {table.bound}"
        )
    coords = [_ZERO] * (table.bound + 1)
    residue = list(p.coeffs)
    for n in range(p.degree, -1, -1):
        c = residue[n]
        if c:
            entry = table[n].coeffs
            coords[n] = c / entry[n]
            _accumulate(residue, -coords[n], entry)
    if any(residue):
        raise AssertionError("triangular reduction left a residue")
    return coords
