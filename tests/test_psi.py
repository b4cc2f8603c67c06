"""Scalar combinatorics of the generalized integer families.

Oracles here are independent of the implementation: brute-force products,
explicit recurrences, and term-by-term sums.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.errors import (
    BadModulusError,
    BadParameterError,
    DegenerateFamilyError,
    IndexOrderError,
    UndefinedIndexError,
)
from umbralcalc.poly import Polynomial
from umbralcalc.psi import AdmissibleSequence


# -- oracles ----------------------------------------------------------------


def oracle_q_integer(q: Fraction, n: int) -> Fraction:
    return sum((q**i for i in range(n)), Fraction(0))


def oracle_fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def oracle_factorial(seq, n):
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= seq.n_psi(i)
    return out


def oracle_binomial(seq, n, k):
    return oracle_factorial(seq, n) / (
        oracle_factorial(seq, k) * oracle_factorial(seq, n - k)
    )


# -- frozen values -----------------------------------------------------------


def test_classical_values():
    seq = AdmissibleSequence.classical(8)
    assert seq.n_psi(5) == 5
    assert seq.factorial(4) == 24
    assert seq.binomial(4, 2) == 6
    assert seq.exp_polynomial(1, 3).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6))


def test_q2_values():
    seq = AdmissibleSequence.q_deformed(2, 8)
    assert seq.n_psi(4) == 15 == oracle_q_integer(Fraction(2), 4)
    assert seq.factorial(3) == 21 == 1 * 3 * 7
    assert seq.binomial(4, 2) == 35
    assert seq.exp_polynomial(1, 3).coeffs == (1, 1, Fraction(1, 3), Fraction(1, 21))


def test_q_half_values():
    seq = AdmissibleSequence.q_deformed(Fraction(1, 2), 8)
    for n in range(9):
        assert seq.n_psi(n) == oracle_q_integer(Fraction(1, 2), n)


def test_fibonacci_values():
    seq = AdmissibleSequence.fibonacci(8)
    assert [seq.n_psi(n) for n in range(1, 7)] == [1, 1, 2, 3, 5, 8]
    assert seq.n_psi(5) == 5
    assert seq.factorial(5) == 30
    assert seq.binomial(5, 2) == 15
    assert seq.exp_polynomial(1, 4).coeffs == (
        1,
        1,
        1,
        Fraction(1, 2),
        Fraction(1, 6),
    )
    for n in range(9):
        assert seq.n_psi(n) == oracle_fibonacci(n)


def test_hyperbolic_values():
    seq = AdmissibleSequence.hyperbolic(8)
    assert seq.n_psi(1) == 2
    assert seq.n_psi(3) == 30
    for n in range(1, 9):
        assert seq.n_psi(n) == 2 * n * (2 * n - 1)
    # factorial telescopes to the plain (2n)!
    import math

    for n in range(9):
        assert seq.factorial(n) == math.factorial(2 * n)


def test_recurrence_reproduces_q_family():
    q = Fraction(3)
    seq = AdmissibleSequence.recurrence(
        alphas=[q, 1],
        betas=[Fraction(1, q - 1), Fraction(-1, q - 1)],
        bound=10,
    )
    q_seq = AdmissibleSequence.q_deformed(q, 10)
    for n in range(11):
        assert seq.n_psi(n) == q_seq.n_psi(n)


def test_r_series_family():
    # coefficients of R(t) = (1 - t)/(1 - q) give back the q-integers
    q = Fraction(1, 3)
    seq = AdmissibleSequence.r_series(
        coefficients=[Fraction(1, 1 - q), Fraction(-1, 1 - q)], q=q, bound=8
    )
    q_seq = AdmissibleSequence.q_deformed(q, 8)
    for n in range(9):
        assert seq.n_psi(n) == q_seq.n_psi(n)


def test_custom_family_round_trip():
    values = [Fraction(3, 2), Fraction(-1), Fraction(5)]
    seq = AdmissibleSequence.custom(values, 3)
    assert seq.n_psi(0) == 0
    assert [seq.n_psi(n) for n in (1, 2, 3)] == values
    desc = seq.descriptor()
    again = AdmissibleSequence.from_descriptor(desc, 3)
    assert again.values == seq.values


# -- guards -------------------------------------------------------------------


def test_degenerate_rejections():
    with pytest.raises(DegenerateFamilyError):
        AdmissibleSequence.q_deformed(1, 5)
    with pytest.raises(DegenerateFamilyError):
        AdmissibleSequence.q_deformed(-1, 5)  # 2_q = 0
    with pytest.raises(DegenerateFamilyError):
        AdmissibleSequence.custom([1, 0, 3], 3)


def test_recurrence_constraint_guards():
    with pytest.raises(BadParameterError):
        AdmissibleSequence.recurrence([2, 1], [1, 1], 5)  # weights don't cancel
    with pytest.raises(BadParameterError):
        AdmissibleSequence.recurrence([3, 1], [1, -1], 5)  # normalization off


def test_index_guards():
    seq = AdmissibleSequence.classical(6)
    with pytest.raises(UndefinedIndexError):
        seq.n_psi(7)
    with pytest.raises(UndefinedIndexError):
        seq.factorial(9)
    with pytest.raises(IndexOrderError):
        seq.binomial(3, 4)
    with pytest.raises(IndexOrderError):
        seq.binomial(3, -1)


def test_index_guard_messages():
    seq = AdmissibleSequence.classical(6)
    cases = [
        (lambda: seq.factorial(9), UndefinedIndexError, "classical: factorial index 9 outside 0..6"),
        (lambda: seq.factorial(-1), UndefinedIndexError, "classical: factorial index -1 outside 0..6"),
        (lambda: seq.binomial(8, 2), UndefinedIndexError, "classical: index 8 outside validated range 0..6"),
        (lambda: seq.binomial(3, 4), IndexOrderError, "binomial needs 0 <= k <= n, got (3, 4)"),
        (lambda: seq.binomial(-1, 0), IndexOrderError, "binomial needs 0 <= k <= n, got (-1, 0)"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    # the empty product never needed an index in range
    assert seq.binomial(8, 0) == 1


def test_tables_keep_equality_and_hash():
    a = AdmissibleSequence.q_deformed(Fraction(2, 3), 8)
    b = AdmissibleSequence.q_deformed(Fraction(2, 3), 8)
    assert a.binomial(8, 3) == oracle_binomial(b, 8, 3)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert {a: 1}[b] == 1


def test_sector_guards():
    seq = AdmissibleSequence.classical(6)
    with pytest.raises(BadModulusError):
        seq.hyperbolic_component(0, 1, 1, 4)
    with pytest.raises(BadParameterError):
        seq.hyperbolic_component(3, 2, 1, 4)


# -- sector decomposition ------------------------------------------------------


def test_classical_even_sector_is_cosh():
    seq = AdmissibleSequence.classical(8)
    got = seq.hyperbolic_component(0, 2, 1, 4)
    assert got == Polynomial([1, 0, Fraction(1, 2), 0, Fraction(1, 24)])


def test_q2_sector_example():
    seq = AdmissibleSequence.q_deformed(2, 8)
    got = seq.hyperbolic_component(1, 3, 1, 4)
    # indices 1 and 4 survive; 4_q! = 1*3*7*15 = 315
    assert got == Polynomial([0, 1, 0, 0, Fraction(1, 315)])


def test_sectors_partition_exponential(families):
    for seq in families:
        full = seq.exp_polynomial(Fraction(2, 3), 9)
        for m in (2, 3, 5):
            total = Polynomial()
            for j in range(m):
                total = total + seq.hyperbolic_component(j, m, Fraction(2, 3), 9)
            assert total == full, seq.label


# -- invariants ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10), k=st.integers(0, 10))
def test_binomial_symmetry_and_product(n, k):
    for seq in (
        AdmissibleSequence.q_deformed(2, 10),
        AdmissibleSequence.fibonacci(10),
        AdmissibleSequence.hyperbolic(10),
    ):
        if k > n:
            with pytest.raises(IndexOrderError):
                seq.binomial(n, k)
            continue
        b = seq.binomial(n, k)
        assert b == seq.binomial(n, n - k)
        assert b * seq.factorial(k) * seq.factorial(n - k) == seq.factorial(n)
        assert b == oracle_binomial(seq, n, k)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(lambda v: v != 0),
        min_size=1,
        max_size=16,
    ),
    q=st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(
        lambda v: v not in (1, -1)
    ),
)
def test_scalar_tables_match_product_loops(values, q):
    bound = len(values)
    for seq in (
        AdmissibleSequence.custom(values, bound),
        AdmissibleSequence.q_deformed(q, bound),
    ):
        for n in range(bound + 1):
            assert seq.factorial(n) == oracle_factorial(seq, n)
            for k in range(n + 1):
                assert seq.binomial(n, k) == oracle_binomial(seq, n, k)


def test_fibonomial_integrality():
    seq = AdmissibleSequence.fibonacci(16)
    for n in range(17):
        for k in range(n + 1):
            value = seq.binomial(n, k)
            assert value.denominator == 1, (n, k, value)


def test_exp_coefficients_match_factorials(families):
    for seq in families:
        coeffs = seq.exp_polynomial(1, 8).coeffs
        for k, c in enumerate(coeffs):
            assert c == 1 / oracle_factorial(seq, k)
