"""Mutation census of the identity harness.

Each catalogue entry breaks one kernel function, one at a time, with
`unittest.mock.patch` in every module that imported it, or on its class
(no file is edited).
Under every mutation `run_all` must return, not raise, and fail the run;
every asserted identity of the unmutated run must be failed by some
mutation, or be listed in `UNFLIPPED` with the reason none of these faults
reaches it. Under each mutation the verdict that `perturbation-rejection`
reads must also be what `verify_binomial_type` reports.
"""

import json
import sys
from contextlib import ExitStack
from fractions import Fraction
from functools import cache, cached_property
from unittest import mock

import pytest

import conftest
from umbralcalc import cli, harness, operators, sequences, spectral, star
from umbralcalc.harness import exit_status, run_all
from umbralcalc.integration import IntegralOperator
from umbralcalc.operators import OperatorMatrix, umbral_operator, weighted_shift
from umbralcalc.poly import ONE, Polynomial, SequenceTable, _new
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import (
    addition_rule_failure,
    basic_sequence_from_series,
    verify_binomial_type,
)
from umbralcalc.series import DeltaSeries

DEGREE = 8


def doubled_second_coefficient(table_of_rows):
    """1/2_psi! doubled in the conversion: coefficient 2 of every entry
    doubles, and the table keeps its rows."""

    def wrong(seq, rows):
        table = table_of_rows(seq, rows)
        out = SequenceTable(tuple([p + Polynomial.monomial(2, p.coefficient(2)) for p in table]))
        object.__setattr__(out, "divided", table.divided)
        return out

    return wrong


def wrong_coordinate(inverse):
    """Coordinate 1 of x^j one too large for every j >= 2 in each table's
    inverse, which every change of basis reads; cached per table, as the
    original, for the tables built under the patch."""

    def wrong(table):
        coords = inverse.func(table)
        return coords[:2] + tuple([c + Polynomial.monomial(1) for c in coords[2:]])

    prop = cached_property(wrong)
    prop.__set_name__(SequenceTable, "inverse")
    return prop


def scaled_column(dual_operator):
    """Column 1 of the dual raiser doubled."""

    def wrong(q_op, table, seq):
        columns = list(dual_operator(q_op, table, seq).columns)
        columns[1] = columns[1].scale(2)
        return OperatorMatrix(tuple(columns))

    return wrong


def zeroed_weight(xhat_psi):
    """The weight of x -> x^2 in the dual raising operator set to 0."""

    def wrong(seq, bound):
        weights = xhat_psi(seq, bound).weights
        return weighted_shift(1, bound, lambda j: 0 if j == 1 else weights[j])

    return wrong


def wrong_top_term(apply_delta_series):
    """The top coefficient of every image of degree 4 or more one too large."""

    def wrong(s, p):
        out = apply_delta_series(s, p)
        return out + Polynomial.monomial(out.degree) if out.degree >= 4 else out

    return wrong


def mixed_row_terms(convolve):
    """In the row recurrences of basic and Sheffer tables, term 2 of every
    convolution also added to term 1."""

    def wrong(c, a):
        out = convolve(c, a)
        if len(out) > 2:
            out[1] += out[2]
        return out

    return wrong


def doubled_weight(shift, j):
    """`shift` rebuilt with the weight of its column j doubled."""
    w = shift.weights
    return weighted_shift(shift.step, shift.bound, lambda i: 2 * w[i] if i == j else w[i])


def doubled_lowering_weight(psi_derivative):
    """The weight of x^4 -> x^3 in the family lowering operator doubled."""
    return lambda seq, bound: doubled_weight(psi_derivative(seq, bound), 4)


def doubled_jackson_weight(jackson_operator):
    """The weight of x^3 -> x^2 in the Jackson operator doubled."""
    return lambda q, bound: doubled_weight(jackson_operator(q, bound), 3)


def doubled_divided_difference_weight(divided_difference):
    """The weight of x^3 -> x^2 in the divided difference doubled."""
    return lambda bound: doubled_weight(divided_difference(bound), 3)


def squared_dilation(dilation):
    """p(x) -> p(q^2 x) in place of p(q x)."""
    return lambda q, bound: dilation(q * q, bound)


def unscaled_certificate(_reparameterization_certificate):
    """`harness._reparameterization_certificate` verbatim, with the n_psi
    scale of the induced lowering operator dropped."""

    def wrong(seq, q_series, table, bound: int) -> bool:
        lowered = [Polynomial()] + [table[n - 1] for n in range(1, bound + 1)]
        result = harness._round_trip(umbral_operator(table, lowered), seq.values[1 : bound + 1])
        if result is None:
            return False
        got = result.series.coeffs
        want = q_series.coeffs
        return got[:bound] == want[:bound] and got[bound] != want[bound]

    return wrong


def doubled_inverse_table_entry(inverse_factorial_table):
    """G[2] doubled in the family's table 1 / n_psi! = G[n] / G_den, so that
    every monomial <-> e_j conversion reads 2 / 2_psi!; cached per family,
    as the original, for the families built under the patch."""

    def wrong(seq):
        g = inverse_factorial_table.func(seq)
        return _new(g.nums[:2] + (2 * g.nums[2],) + g.nums[3:], g.den)

    table = cached_property(wrong)
    table.__set_name__(AdmissibleSequence, "_inverse_factorial_table")
    return table


def raised_power_column(powers):
    """1 added to column 0 of every power from the second on: in the ladder
    [I, M, M^2, ...] each M^k with k >= 2 also sends x^0 to M^k x^0 + 1."""

    def wrong(self, count):
        ladder = powers(self, count)
        return ladder[:2] + [OperatorMatrix((m.columns[0] + ONE,) + m.columns[1:])
                             for m in ladder[2:]]

    return wrong


def identity_inverse(compositional_inverse):
    """q in place of g = q^<-1>: the compositional inverse returns its input."""
    return lambda self: self


def doubled_integral_weight(shift):
    """The weight of x^2 -> x^3 in every integral's shift doubled; cached per
    integral, as the original, for the integrals built under the patch."""
    prop = cached_property(lambda self: doubled_weight(shift.func(self), 2))
    prop.__set_name__(IntegralOperator, "shift")
    return prop


def doubled_q_integral_weight(q_integral):
    """The q integral's divisor of x^3, weights[2], doubled; its partner, the
    Jackson operator, untouched."""

    def wrong(q, bound):
        op = q_integral(q, bound)
        weights = op.weights[:2] + (2 * op.weights[2],) + op.weights[3:]
        return IntegralOperator(op.bound, weights, op.partner)

    return staticmethod(wrong)


def half_off_binomial(binomial):
    """The graded binomial (4, 2) of every family 1/2 too large."""
    return lambda self, n, k: binomial(self, n, k) + (Fraction(1, 2) if (n, k) == (4, 2) else 0)


def dropped_sector_term(hyperbolic_component):
    """Each exponential sector j >= 1 loses its first term, coefficient j."""

    def wrong(self, j, m, x_coefficient, truncation):
        out = hyperbolic_component(self, j, m, x_coefficient, truncation)
        return out - Polynomial.monomial(j, out.coefficient(j)) if j else out

    return wrong


def scaled_reassembly(_reassemble_over_shifts):
    """Column 1 of the reassembled sum over weighted shifts doubled."""

    def wrong(coefficients, u, r):
        columns = list(_reassemble_over_shifts(coefficients, u, r).columns)
        columns[1] = columns[1].scale(2)
        return OperatorMatrix(tuple(columns))

    return wrong


def dropped_star_top(star_product):
    """Every star product of degree 2 or more loses its top term."""

    def wrong(ctx, f, g):
        out = star_product(ctx, f, g)
        return out.truncate(out.degree - 1) if out.degree >= 2 else out

    return wrong


# label: (module or class, kernel name, wrapper of the original, modules or
# classes patched, or None for every umbralcalc module that imported the name)
MUTATIONS = {
    "doubled-inverse-factorial": (sequences, "_table_of_rows", doubled_second_coefficient, None),
    "wrong-coordinate": (SequenceTable, "inverse", wrong_coordinate, (SequenceTable,)),
    "scaled-dual-column": (operators, "dual_operator", scaled_column, None),
    "zeroed-xhat-weight": (operators, "xhat_psi", zeroed_weight, None),
    "wrong-delta-series-top": (operators, "apply_delta_series", wrong_top_term, None),
    "squared-dilation": (spectral, "dilation", squared_dilation, (spectral,)),
    "mixed-row-terms": (sequences, "_convolve", mixed_row_terms, (sequences,)),
    "doubled-lowering-weight": (operators, "psi_derivative", doubled_lowering_weight, None),
    "doubled-jackson-weight": (operators, "jackson_operator", doubled_jackson_weight, None),
    "doubled-divided-difference-weight": (operators, "divided_difference",
                                          doubled_divided_difference_weight, None),
    "unscaled-certificate": (harness, "_reparameterization_certificate", unscaled_certificate,
                             (harness,)),
    "raised-power-column": (OperatorMatrix, "powers", raised_power_column, (OperatorMatrix,)),
    "identity-inverse": (DeltaSeries, "compositional_inverse", identity_inverse, (DeltaSeries,)),
    "doubled-inverse-table-entry": (AdmissibleSequence, "_inverse_factorial_table",
                                    doubled_inverse_table_entry, (AdmissibleSequence,)),
    "doubled-integral-weight": (IntegralOperator, "shift", doubled_integral_weight,
                                (IntegralOperator,)),
    "doubled-q-integral-weight": (IntegralOperator, "q_integral", doubled_q_integral_weight,
                                  (IntegralOperator,)),
    "half-off-binomial": (AdmissibleSequence, "binomial", half_off_binomial,
                          (AdmissibleSequence,)),
    "dropped-sector-term": (AdmissibleSequence, "hyperbolic_component", dropped_sector_term,
                            (AdmissibleSequence,)),
    "scaled-reassembly": (operators, "_reassemble_over_shifts", scaled_reassembly, None),
    "dropped-star-top": (star, "star_product", dropped_star_top, None),
}

_FIRST_POWER = ("at n = 1 both sides are the same product of the lowering/raiser pair, "
                "so a fault in the pair or in its powers moves both alike")

# suite/identity: why no catalogue mutation fails it; each names one object
# on both sides, so no fault can tell the sides apart
UNFLIPPED = {
    "factorization/number-steps(n=1,f=0)": _FIRST_POWER,
    "factorization/number-steps(n=1,f=1)": _FIRST_POWER,
    "factorization/number-steps(n=1,f=2)": _FIRST_POWER,
    "factorization/sandwich-powers(n=1)": _FIRST_POWER,
}
UNFLIPPED.update({  # d^n alone or r^m alone is its own normal order, for any pair
    f"weyl/power-reorder(n={n},m={m})": "a power of one operator is its own normal order"
    for n in range(5) for m in range(5) if (n or m) and not (n and m)
})


def mutated(label) -> ExitStack:
    module, name, make, targets = MUTATIONS[label]
    original = getattr(module, name)
    if targets is None:
        targets = [m for key, m in sorted(sys.modules.items())
                   if key.split(".")[0] == "umbralcalc" and getattr(m, name, None) is original]
    stack = ExitStack()
    for target in targets:
        stack.enter_context(mock.patch.object(target, name, make(original)))
    return stack


@cache
def census(label=None) -> tuple:
    """The records of `run_all` on the standard roster, under one mutation
    or none."""
    with mutated(label) if label else ExitStack():
        return tuple(run_all(conftest.family_roster(DEGREE + 1), DEGREE))


def asserted_failures(reports) -> set:
    return {f"{r.suite}/{r.identity_id}" for r in reports if r.asserted and r.failed}


@pytest.mark.parametrize("label", sorted(MUTATIONS))
def test_each_mutation_fails_the_run_and_raises_nothing(label):
    reports = census(label)
    assert exit_status(reports) == 1
    assert asserted_failures(reports)


def test_every_asserted_identity_is_failed_by_some_mutation():
    clean = census()
    assert exit_status(clean) == 0
    identities = {f"{r.suite}/{r.identity_id}" for r in clean if r.asserted}
    flipped = set().union(*(asserted_failures(census(label)) for label in MUTATIONS))
    assert sorted(identities - flipped - set(UNFLIPPED)) == []
    assert sorted(set(UNFLIPPED) & flipped) == []
    assert set(UNFLIPPED) <= identities


def test_a_wrong_inverse_reaches_every_basis_change():
    """Umbral operators, coordinates and the transport to monomials all read
    a table's inverse, so a wrong one fails the eigen relations of the
    definitional spectral operator, the expansion constants and the
    transport law."""
    failed = asserted_failures(census("wrong-coordinate"))
    assert {f"spectral/eigen-relation({label})"
            for label in ("appell", "composite", "random")} <= failed
    assert "sheffer/expansion-constants-graded(composite)" in failed
    assert "transport/monomial-map-commutator(derivative)" in failed


def test_a_raised_power_column_fails_the_sandwich_and_step_records():
    """Every power from the second on gets 1 added to column 0, so at n >= 2
    the powers of the sandwiched words and the products of powers disagree
    from column 0 on; at n = 1 no power past the first is read."""
    reports = census("raised-power-column")
    failed = {r.identity_id: r.witness for r in reports if r.suite == "factorization"
              and r.family == "classical" and r.asserted and r.failed}
    assert failed == {
        "sandwich-powers(n=2)": {"first_window": -1, "second_window": -1, "required_window": 6},
        "sandwich-powers(n=3)": {"first_window": -1, "second_window": -1, "required_window": 5},
        "number-steps(n=2,f=0)": {"found_window": -1, "required_window": 5},
        "number-steps(n=2,f=1)": {"found_window": -1, "required_window": 4},
        "number-steps(n=2,f=2)": {"found_window": -1, "required_window": 4},
        "number-steps(n=3,f=0)": {"found_window": -1, "required_window": 4},
        "number-steps(n=3,f=1)": {"found_window": 0, "required_window": 3},
        "number-steps(n=3,f=2)": {"found_window": -1, "required_window": 3},
    }
    flipped = {r.identity_id for r in reports
               if r.suite == "factorization" and r.asserted and r.failed}
    assert not {ident for ident in flipped if "n=1" in ident}


def test_the_derivative_series_is_failed_by_both_doubled_lowerings():
    """The family-free divided-difference series builds no power ladder, so
    `raised-power-column` cannot reach it; a doubled weight in the classical
    lowering it expands in, or in the divided difference it must equal,
    fails it."""
    for label in ("doubled-lowering-weight", "doubled-divided-difference-weight"):
        failed = asserted_failures(census(label))
        assert "leibnitz/divided-difference-derivative-series" in failed, label


def test_the_conjugation_route_is_failed_by_both_dual_raiser_faults():
    """The dual raiser is x-hat conjugated to the basic table, so a zeroed
    x-hat weight reaches it as a doubled dual column does, and both fail the
    route S^-1 xhat_Q Q S against the definitional spectral operator."""
    routes = {f"spectral/conjugation-route({label})" for label in ("appell", "composite", "random")}
    for label in ("zeroed-xhat-weight", "scaled-dual-column"):
        assert routes <= asserted_failures(census(label)), label


def test_a_doubled_lowering_weight_fails_the_perturbation_rejection():
    """The certificate's induced lowering is the family lowering conjugated
    to the perturbed table, so with a doubled weight it no longer reads back
    with the family's weights, and the one perturbation that must be
    certified, the top entry's linear coefficient, is not."""
    assert "binomial/perturbation-rejection" in asserted_failures(census("doubled-lowering-weight"))


def test_verify_exits_1_under_a_wrong_coordinate(capsys):
    with mutated("wrong-coordinate"):
        status = cli.main(["verify", "--degree", str(DEGREE), "--format", "json"])
    assert status == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    faults = {r["suite"] for r in reports if r["identity_id"] == "kernel-fault"}
    assert faults == {"factorization", "mutator"}


def test_verify_exits_1_under_a_doubled_inverse_table_entry(capsys):
    """The CLI builds its families inside the patch, so every conversion
    reads the wrong table: asserted records fail, and `spectral`, whose
    dual raiser meets a table that is not basic, records a kernel fault."""
    with mutated("doubled-inverse-table-entry"):
        status = cli.main(["verify", "--degree", str(DEGREE), "--format", "json"])
    assert status == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    failed = [r for r in reports if r["asserted"] and r["status"] == "fails"]
    assert {r["suite"] for r in failed if r["identity_id"] == "kernel-fault"} == {"spectral"}
    assert {"routes", "sheffer", "transport"} <= {r["suite"] for r in failed}


@pytest.mark.parametrize("label", sorted(MUTATIONS))
def test_perturbation_verdicts_are_the_reports_under_every_mutation(label):
    """`perturbation-rejection` reads only the verdict of the addition rule;
    on the 45 single-coefficient perturbations of each family it must be
    what `verify_binomial_type` reports, whatever kernel is broken."""
    shifts = sequences.default_shift_samples(10)
    with mutated(label):
        for seq in conftest.family_roster(DEGREE + 1):
            series = DeltaSeries.from_list(seq, [0, 1, 1], DEGREE)
            small = basic_sequence_from_series(series, DEGREE).table
            count = 0
            for n in range(DEGREE + 1):
                for j in range(n + 1):
                    coeffs = list(small[n].coeffs)
                    coeffs[j] += 1
                    if j == n and coeffs[j] == 0:
                        coeffs[j] += 1
                    entries = list(small)
                    entries[n] = Polynomial(coeffs)
                    table = SequenceTable(tuple(entries))
                    verdict = addition_rule_failure(table, table, seq, shifts) is None
                    assert verdict == verify_binomial_type(table, seq, shifts).passed
                    count += 1
            assert count == 45
