"""Dense exact-rational polynomials and degree-indexed tables.

A polynomial is stored as integer numerators `nums`, low degree first, over
one shared denominator `den`, in one canonical form: `den > 0`, `den` and
the numerators have no common factor, and there is no trailing zero
numerator. So the zero polynomial is `((), 1)` with degree -1 (the sentinel
used throughout the package), and equal polynomials have equal `(nums, den)`.
Arithmetic runs on the integers and divides out one gcd per result, not one
per coefficient operation; `coeffs`, the coefficients as canonical Fractions,
is built on first use. `*` multiplies two polynomials, and `scale` is the
one product with a scalar. Loops skip zero numerators: the package's operators
are mostly weighted shifts, so most entries they touch are zero. A family's
n_psi! and 1 / n_psi! are two such integer tables over one lcm each, kept on
the `psi.AdmissibleSequence`; every conversion between monomials and the
divided powers e_j = x^j / j_psi! is one integer pass over them. A table
built from its divided-power rows (the basic and Sheffer tables of a series)
holds those rows and forms its monomial entries on first read.

The package builds tuples from lists, `tuple([...])`, never from generators:
CPython sizes a tuple built from a generator at 10 and then resizes it, so
when it is freed it goes to the free list of another size, and those free
lists fill until a full garbage collection, which integer arithmetic, making
few tracked objects, rarely triggers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import BadParameterError, BasisMismatchError, DegreeOverflowError

_ZERO = Fraction(0)
# the strings most inputs are, read with int() alone; Fraction parses the rest
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


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
            plain = _PLAIN_RATIONAL.fullmatch(value)
            if plain is None:
                return Fraction(value.strip())
            num, den = plain.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            pass
    raise BadParameterError(f"not an exact rational: {value!r}")


class Polynomial:
    """Immutable polynomial with exact rational coefficients, held as the
    integer numerators `nums` over the denominator `den`."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if all(type(c) is int for c in cs):  # bools and int subclasses go through fr
            while cs and not cs[-1]:
                cs.pop()
            _init(self, tuple(cs), 1, None)  # integers over 1 are canonical
            return
        cs = [fr(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        # canonical Fractions over the lcm of their denominators share no
        # factor with it, so no gcd is needed
        den = lcm(*[c.denominator for c in cs])
        nums = tuple([c.numerator * (den // c.denominator) for c in cs])
        _init(self, nums, den, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return _new, (self.nums, self.den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as canonical Fractions, low degree first."""
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = tuple([Fraction(a, den) for a in self.nums])
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @staticmethod
    def monomial(n: int, c=1) -> "Polynomial":
        if n < 0:
            raise BadParameterError("monomial degree must be nonnegative")
        c = fr(c)
        if not c:
            return ZERO
        return _new((0,) * n + (c.numerator,), c.denominator)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g  # da * ma == db * mb == lcm(da, db)
        den = da * ma
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [v * ma for v in a] if ma != 1 else list(a)
        for i, v in enumerate(b):
            if v:
                out[i] += v * mb
        return _canonical(out, den)

    def __neg__(self) -> "Polynomial":
        return _new(tuple([-v for v in self.nums]), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = fr(c)
        if not c:
            return ZERO
        cn = c.numerator
        return _canonical([v * cn for v in self.nums], self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return _product(self, other, len(self.nums) + len(other.nums))
        return NotImplemented

    def __call__(self, value) -> Fraction:
        value = fr(value)
        if not self.nums:
            return Fraction(0)
        # Horner on sum_i nums[i] p^i q^(degree - i), over den q^degree
        p, q = value.numerator, value.denominator
        acc, power = 0, 1
        for v in reversed(self.nums):
            acc = acc * p + v * power
            power *= q
        return Fraction(acc, self.den * (power // q))

    def derivative(self) -> "Polynomial":
        return _canonical([i * v for i, v in enumerate(self.nums)][1:], self.den)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial([c])
        return acc

    def truncate(self, bound: int) -> "Polynomial":
        """Drop all terms of degree above `bound`."""
        if bound + 1 >= len(self.nums):
            return self
        return _canonical(list(self.nums[: bound + 1]), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        if not self:
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
        """The coefficients as `str(Fraction)` writes them, one gcd each."""
        den = self.den
        return [str(a // g) if (g := gcd(a, den)) == den else f"{a // g}/{den // g}"
                for a in self.nums]


def _init(p: Polynomial, nums: tuple, den: int, coeffs) -> None:
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "_coeffs", coeffs)


def _new(nums: tuple, den: int) -> Polynomial:
    """The polynomial with these numerators and denominator, which are
    already in canonical form."""
    p = object.__new__(Polynomial)
    _init(p, nums, den, None)
    return p


def _canonical(nums: list, den: int) -> Polynomial:
    """sum_i nums[i] x^i / den, for a den > 0, in canonical form: trailing
    zeros trimmed (in place) and the content divided out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return ZERO
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [v // g for v in nums]
    return _new(tuple(nums), den)


ZERO = Polynomial()
ONE = Polynomial([1])
X = Polynomial([0, 1])


def _product(a: Polynomial, b: Polynomial, bound: int) -> Polynomial:
    """a * b cut at degree `bound`; no term above it is formed."""
    a, b, den = a.nums[: bound + 1], b.nums[: bound + 1], a.den * b.den
    if not a or not b:
        return ZERO
    out = [0] * min(len(a) + len(b) - 1, bound + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: bound + 1 - i], i):
                if y:
                    out[j] += x * y
    return _canonical(out, den)


def _combine(weights: Polynomial, polys, start: Polynomial = ZERO) -> Polynomial:
    """start + sum_i weights[i] * polys[i]: each polynomial with a nonzero
    weight is brought to the lcm of their denominators and its numerators
    accumulated, skipping zeros."""
    terms = [(w, p) for w, p in zip(weights.nums, polys) if w and p.nums]
    if start.nums:
        terms.append((weights.den, start))
    if not terms:
        return ZERO
    if len(terms) == 1:
        w, p = terms[0]
        return _canonical([w * a for a in p.nums], p.den * weights.den)
    den = lcm(*[p.den for _, p in terms])
    out = [0] * max([len(p.nums) for _, p in terms])
    for w, p in terms:
        w *= den // p.den
        for i, a in enumerate(p.nums):
            if a:
                out[i] += w * a
    return _canonical(out, den * weights.den)


def _diagonal(p: Polynomial, weights: Polynomial, c: int = 1, den: int = 1) -> Polynomial:
    """sum_i (c / den) w_i p_i x^i, w_i the coefficients of `weights`: one
    pass on the integers, one canonical form."""
    return _canonical([c * w * a for a, w in zip(p.nums, weights.nums)],
                      p.den * weights.den * den)


def _running_products(values) -> list:
    """(n, d), d > 0, for 1 and each running product of the Fractions
    `values`, kept reduced on integers."""
    n, d, pairs = 1, 1, [(1, 1)]
    for v in values:  # two small gcds keep n / d reduced, as in Fraction
        g, h = gcd(n, v.denominator), gcd(v.numerator, d)
        n, d = (n // g) * (v.numerator // h), (d // h) * (v.denominator // g)
        pairs.append((n, d))
    return pairs


def _reciprocals(pairs: list) -> list:
    """d / n for each nonzero reduced n / d, as a reduced pair with d > 0."""
    return [(d, n) if n > 0 else (-d, -n) for n, d in pairs]


def _over_one_lcm(pairs: list) -> Polynomial:
    """Nonzero reduced fractions n / d as integers over the lcm of the d."""
    den = lcm(*[d for _, d in pairs])
    return _new(tuple([n * (den // d) for n, d in pairs]), den)


def _convolve(c: tuple, a: tuple) -> list:
    """out_i = sum_k c_k a_(i+k), i < len(a), on integers, skipping zeros: a
    series with numerators `c` in an operator Q with Q e_j = e_(j-1), acting
    on the numerators `a` of the e_j-coordinates of a polynomial."""
    out = [0] * len(a)
    for k, ck in enumerate(c[: len(a)]):
        if ck:
            for i, v in enumerate(a[k:]):
                if v:
                    out[i] += ck * v
    return out


def _shift_down(p: Polynomial, k: int) -> Polynomial:
    """(p - its terms below degree k) / x^k."""
    return _canonical(list(p.nums[k:]), p.den)


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


@dataclass(frozen=True)
class SequenceTable:
    """Degree-graded table: entry n is a polynomial of degree exactly n.

    `divided` is None, or the pair (family, rows) when the table was built
    from its rows: row n is entry n over n_psi! read in the divided powers
    e_j = x^j / j_psi! of that family object. The basic and Sheffer tables of
    a series hold their rows and form their entries on first read, p_n[j] =
    n_psi! T_n[j] / j_psi!, one integer pass per entry; the degrees are
    checked on the rows when the table is built. The addition rule reads the
    rows when it is asked about that same family object. Equality, hashing,
    repr and JSON see the entries alone, and a table made by the constructor
    or `dataclasses.replace` carries no rows.
    """

    entries: tuple
    divided: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_graded(self.entries)

    def __getattr__(self, name):
        # reached only for an attribute not set: a row table's entries
        if name != "entries" or self.divided is None:
            raise AttributeError(name)
        family, rows = self.divided
        f, g = family._factorial_table, family._inverse_factorial_table
        entries = tuple([_diagonal(t, g, c, f.den) for t, c in zip(rows, f.nums)])
        object.__setattr__(self, "entries", entries)
        return entries

    @property
    def bound(self) -> int:
        return len(self.entries if self.divided is None else self.divided[1]) - 1

    def __getitem__(self, n: int) -> Polynomial:
        return self.entries[n]

    def __len__(self) -> int:
        return self.bound + 1

    def __iter__(self):
        return iter(self.entries)

    @cached_property
    def inverse(self) -> tuple:
        """The coordinates c_j of x^j in this table, j = 0..bound, each a
        polynomial in the entry index; every change of basis reads them.

        Built once, by forward substitution on the integers: entry j, with
        numerators a_i over d and lead a_j, gives a_j c_j = d e_j - sum_(i<j)
        a_i c_i, one combination and one canonical form per column.
        """
        out = []
        for j, entry in enumerate(self.entries):
            a = entry.nums
            sign = 1 if a[j] > 0 else -1  # dividing by |a_j| keeps the den positive
            rest = _combine(Polynomial([-sign * v for v in a[:j]]), out)
            nums = list(rest.nums) + [0] * (j - len(rest.nums)) + [sign * entry.den * rest.den]
            out.append(_canonical(nums, rest.den * abs(a[j])))
        return tuple(out)

    def to_json(self) -> list:
        return [p.to_json_list() for p in self.entries]

    @staticmethod
    def from_json(data) -> "SequenceTable":
        return SequenceTable(tuple([Polynomial(row) for row in data]))


def _check_graded(polys) -> None:
    for n, p in enumerate(polys):
        if p.degree != n:
            raise BasisMismatchError(f"table entry {n} has degree {p.degree}, expected {n}")


def coordinates_in_table(table: SequenceTable, p: Polynomial) -> list:
    """Coordinates of p in the degree-graded basis given by `table`, as
    bound + 1 Fractions: one combination of the table's `inverse`."""
    if p.degree > table.bound:
        raise DegreeOverflowError(
            f"degree {p.degree} exceeds table bound {table.bound}"
        )
    coords = _combine(p, table.inverse).coeffs
    return list(coords) + [_ZERO] * (table.bound + 1 - len(coords))
