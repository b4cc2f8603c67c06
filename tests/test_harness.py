"""Checks for the identity-suite runner: record shapes, determinism,
the exit-status policy, and a handful of frozen verdicts."""

import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc import (
    AdmissibleSequence,
    BadParameterError,
    BasisMismatchError,
    IdentityReport,
    Polynomial,
    SUITES,
    exit_status,
    render_json,
    render_text,
    run_all,
    run_suites,
    summarize,
)
from umbralcalc import harness, sequences
from umbralcalc.harness import (
    FAILS,
    HOLDS,
    SHARED,
    WINDOWED,
    Records,
    _jsonable,
    _pair_failures,
    _random_polynomial,
    _reparameterization_certificate,
)
from umbralcalc.operators import (
    detect_psi_form,
    divided_difference,
    from_action,
    psi_derivative,
    realize_delta_series,
    umbral_operator,
    weighted_shift,
    zero_operator,
)
from umbralcalc.poly import SequenceTable
from umbralcalc.sequences import (
    addition_rule_failure,
    basic_sequence_from_series,
    default_shift_samples,
)
from umbralcalc.series import DeltaSeries
import conftest

BOUND = 9
DEG = 8
SEED = 123


def small_roster():
    return [
        AdmissibleSequence.classical(BOUND),
        AdmissibleSequence.q_deformed(2, BOUND),
        AdmissibleSequence.fibonacci(BOUND),
    ]


@pytest.fixture(scope="module")
def full_reports():
    return run_all(small_roster(), DEG, seed=SEED)


def by_id(reports, identity_id, family=None):
    out = [
        r
        for r in reports
        if r.identity_id == identity_id and (family is None or r.family == family)
    ]
    assert out, identity_id
    return out


class TestRunner:
    def test_every_suite_passes_on_small_roster(self, full_reports):
        s = summarize(full_reports)
        assert s["asserted_failed"] == 0
        assert s["exit_status"] == exit_status(full_reports) == 0
        assert s["asserted"] + s["informational"] == len(full_reports)
        assert {r.suite for r in full_reports} == set(SUITES)

    def test_reports_come_back_sorted(self, full_reports):
        keys = [(r.suite, r.family, r.identity_id) for r in full_reports]
        assert keys == sorted(keys)

    def test_single_suite_selection(self):
        reports = run_suites(["ghw"], small_roster(), DEG, seed=SEED)
        assert {r.suite for r in reports} == {"ghw"}
        assert all(
            r.status == "holds_up_to_window" and r.window == DEG - 1 for r in reports
        )

    def test_same_seed_same_bytes(self):
        names = ["routes", "sheffer"]
        a = render_text(run_suites(names, small_roster(), DEG, seed=SEED))
        b = render_text(run_suites(names, small_roster(), DEG, seed=SEED))
        assert a == b

    def test_seed_changes_samples_not_verdicts(self):
        a = run_suites(["routes"], small_roster(), DEG, seed=1)
        b = run_suites(["routes"], small_roster(), DEG, seed=2)
        assert all(not r.failed for r in a + b)


class TestGuards:
    def test_unknown_suite_name(self):
        with pytest.raises(BadParameterError):
            run_suites(["nope"], small_roster(), DEG)

    def test_degree_too_small(self):
        with pytest.raises(BadParameterError):
            run_all(small_roster(), 1)

    def test_family_bound_must_exceed_degree(self):
        with pytest.raises(BadParameterError):
            run_all([AdmissibleSequence.classical(6)], 8)


class TestFrozenVerdicts:
    def test_even_sum_cancellation_depends_on_family(self):
        reports = run_suites(["binomial"], small_roster(), DEG, seed=SEED)
        rec = by_id(reports, "alternating-even-sums-vanish", "classical")[0]
        assert rec.status == "holds" and not rec.asserted
        rec = by_id(reports, "alternating-even-sums-vanish", "q_deformed(q=2)")[0]
        assert rec.status == "fails"
        assert rec.witness == {"order": 2, "value": Fraction(-1)}
        rec = by_id(reports, "alternating-even-sums-vanish", "fibonacci")[0]
        assert rec.status == "fails"
        assert rec.witness == {"order": 2, "value": Fraction(1)}
        # informational divergences never touch the exit status
        assert exit_status(reports) == 0

    def test_perturbation_rejection_every_family(self, full_reports):
        for fam in ("classical", "q_deformed(q=2)", "fibonacci"):
            recs = by_id(full_reports, "perturbation-rejection", fam)
            assert recs and all(r.status == "holds" for r in recs)

    def test_split_operator_records(self):
        reports = run_suites(["detect"], small_roster(), DEG, seed=SEED)
        rec = by_id(reports, "split-operator-candidate", "shared")[0]
        assert rec.asserted and rec.status == "holds"
        rec = by_id(reports, "split-operator-consistency", "shared")[0]
        assert not rec.asserted and rec.status == "fails"
        assert rec.witness["violation"] is not None

    def test_commutator_window_scales_with_degree(self):
        fams = [AdmissibleSequence.classical(6)]
        reports = run_suites(["ghw"], fams, 5, seed=SEED)
        assert reports[0].window == 4


class TestExitPolicy:
    def test_asserted_failure_flips_exit(self):
        rec = IdentityReport("s", "i", "f", 4, None, "fails", True)
        assert rec.failed
        assert exit_status([rec]) == 1
        assert summarize([rec])["asserted_failed"] == 1

    def test_informational_failure_does_not(self):
        rec = IdentityReport("s", "i", "f", 4, None, "fails", False)
        assert exit_status([rec]) == 0
        assert summarize([rec])["informational_failed"] == 1


class TestRendering:
    def test_text_lines(self):
        reports = run_suites(["ghw"], small_roster(), DEG, seed=SEED)
        text = render_text(reports)
        assert (
            "[assert] ghw/commutator-identity | classical | N=8 | "
            "holds_up_to_window | window=7" in text
        )
        assert text.endswith("exit status: 0\n")

    def test_json_payload_is_serializable(self):
        reports = run_suites(["detect", "ghw"], small_roster(), DEG, seed=SEED)
        payload = render_json(reports, DEG, SEED)
        parsed = json.loads(json.dumps(payload))
        assert parsed["degree"] == DEG and parsed["seed"] == SEED
        assert parsed["summary"]["exit_status"] == 0
        assert len(parsed["reports"]) == len(reports)
        for rec in parsed["reports"]:
            assert {"suite", "identity_id", "family", "N", "status", "asserted"} <= set(
                rec
            )


def roster_report_and_golden(degree):
    roster = conftest.family_roster(degree + 1)
    payload = render_json(run_all(roster, degree, conftest.SEED), degree, conftest.SEED)
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    golden = Path(__file__).parent / "golden" / f"roster_n{degree}.json"
    return body.encode(), golden.read_bytes()


def test_six_family_roster_report_matches_golden():
    """The full report at N = 8 over the six-family roster, including the
    seeded custom family with negative and fractional weights, serialised
    as `umbralcalc verify --format json` writes it."""
    body, golden = roster_report_and_golden(8)
    assert body == golden


def test_six_family_roster_report_matches_golden_at_twelve():
    """At N = 12 the perturbation check runs at min(N, 8) = 8, below the
    suite's bound; at N = 8 the two bounds coincide and a golden cannot tell
    them apart."""
    body, golden = roster_report_and_golden(12)
    assert body == golden


@pytest.mark.parametrize("degree", range(2, 7))
def test_no_record_holds_at_a_negative_window(degree):
    """A window below 0 leaves no column to compare, so a record that holds
    there checks nothing. At degrees 2-4 the number steps whose window
    degree - deg f - n is negative are not recorded, nor the graded
    variant of an n none of whose steps is; from degree 5 on every step is."""
    reports = run_all(conftest.family_roster(degree + 1), degree)
    assert exit_status(reports) == 0
    assert [r for r in reports if r.window is not None and r.window < 0 and not r.failed] == []
    steps = [r for r in reports if r.identity_id.startswith("number-steps(")]
    graded = [r for r in reports if r.identity_id.startswith("number-steps-graded(")]
    per_family = {2: (1, 1), 3: (4, 2), 4: (7, 3), 5: (9, 3), 6: (9, 3)}[degree]
    assert (len(steps), len(graded)) == tuple(6 * k for k in per_family)



# -- record policy -------------------------------------------------------------
#
# References: the record rules as the suites wrote them before `Records`: the
# two helpers and the six hand-built records, copied verbatim, with the names
# they read bound from `ok`. No golden reaches an asserted failure, so these
# are the only check on the failure paths.


def _exact(suite, ident, family, degree, ok, witness=None, asserted=True):
    return IdentityReport(
        suite,
        ident,
        family,
        degree,
        None,
        HOLDS if ok else FAILS,
        asserted,
        None if ok else (witness or {}),
    )


def _windowed(suite, ident, family, degree, found, required, asserted=True):
    if found >= required:
        return IdentityReport(suite, ident, family, degree, required, WINDOWED, asserted)
    witness = {"found_window": found, "required_window": required}
    return IdentityReport(suite, ident, family, degree, found, FAILS, asserted, witness)


SEQ = AdmissibleSequence.q_deformed(2, BOUND)
F, G = Polynomial([1, 2]), Polynomial([0, Fraction(1, 3)])


def _detect_result(ok):
    violation = None if ok else (3, 2, Fraction(9, 2), Fraction(4))
    return SimpleNamespace(consistent=ok, violation=violation)


def _mutator_report(ok):
    if ok:
        return {"passed": True, "window": DEG - 1}
    return {"passed": False, "witness": {"n": 2, "got": "x"}, "window": DEG - 1}


def _mutator_failures(ok):
    """The witnesses `mutator_failures` yields in place of `_mutator_report`."""
    return [] if ok else [{"n": 2, "got": "x"}]


def _steps_windows(ok):
    """(plain window, required window) of one number step."""
    return 7 if ok else 5, 6


def _check(ok):
    witness = None if ok else {"n": 3, "y": "1", "lhs": "x", "rhs": "2*x"}
    return SimpleNamespace(passed=ok, witness=witness)


def ref_split_consistency(ok):
    degree, result = DEG, _detect_result(ok)
    return IdentityReport(
        "detect",
        "split-operator-consistency",
        SHARED,
        degree,
        None,
        FAILS if not result.consistent else HOLDS,
        False,
        {"violation": _jsonable(result.violation)} if result.violation else None,
    )


def ref_product_rule(ok):
    seq, degree = SEQ, DEG
    return IdentityReport(
        "star",
        "product-rule",
        seq.label,
        degree,
        degree - 1 if ok else None,
        WINDOWED if ok else FAILS,
        True,
    )


def ref_weighted_family_system(ok):
    seq, degree, lam, m_max = SEQ, DEG, Fraction(1, 2), 4
    bad = None if ok else {"m": 2}
    return IdentityReport(
        "star",
        f"weighted-family-system(lam={lam})",
        seq.label,
        degree,
        degree - m_max - 1 if bad is None else None,
        WINDOWED if bad is None else FAILS,
        True,
        bad,
    )


def ref_bracket_identity(ok):
    seq, degree, label, report = SEQ, DEG, "monomial", _mutator_report(ok)
    return IdentityReport(
        "mutator",
        f"bracket-identity({label})",
        seq.label,
        degree,
        report["window"] if report["passed"] else None,
        WINDOWED if report["passed"] else FAILS,
        True,
        report.get("witness"),
    )


def ref_number_steps(ok):
    seq, degree, n, i = SEQ, DEG, 2, 1
    plain, required = _steps_windows(ok)
    ok = plain >= required
    return IdentityReport(
        "factorization",
        f"number-steps(n={n},f={i})",
        seq.label,
        degree,
        required if ok else plain,
        WINDOWED if ok else FAILS,
        True,
        None if ok else {"found_window": plain, "required_window": required},
    )


def ref_provided_table(ok):
    seq, label, check, table = SEQ, "mine", _check(ok), SimpleNamespace(bound=5)
    return IdentityReport(
        "binomial",
        f"provided-table({label})",
        seq.label,
        table.bound,
        None,
        HOLDS if check.passed else FAILS,
        True,
        check.witness,
    )


def recorded(suite, method, *args, **kwargs):
    out = Records(suite, DEG)
    getattr(out, method)(*args, **kwargs)
    return out


def new_split_consistency(ok):
    result = _detect_result(ok)
    witness = {"violation": _jsonable(result.violation)}
    ident = "split-operator-consistency"
    return recorded("detect", "exact", ident, SHARED, result.consistent, witness, asserted=False)


def new_product_rule(ok):
    failures = [] if ok else [{"f": F, "g": G}]
    return recorded("star", "first_failure", "product-rule", SEQ.label, failures, window=DEG - 1)


def new_weighted_family_system(ok):
    failures, ident = [] if ok else [{"m": 2}], "weighted-family-system(lam=1/2)"
    return recorded("star", "first_failure", ident, SEQ.label, failures, window=DEG - 4 - 1)


def new_bracket_identity(ok):
    failures, ident = _mutator_failures(ok), "bracket-identity(monomial)"
    return recorded("mutator", "first_failure", ident, SEQ.label, failures, window=DEG - 1)


def new_number_steps(ok):
    args = _steps_windows(ok)
    return recorded("factorization", "windowed", "number-steps(n=2,f=1)", SEQ.label, *args)


def new_provided_table(ok):
    check = _check(ok)
    args = ("provided-table(mine)", SEQ.label, check.passed, check.witness)
    return recorded("binomial", "exact", *args, degree=5)


RECORD_SHAPES = {
    "exact": (
        lambda ok: _exact("binomial", "rule", SEQ.label, DEG, ok, {"n": 1}),
        lambda ok: recorded("binomial", "exact", "rule", SEQ.label, ok, {"n": 1}),
    ),
    "exact-without-witness": (
        lambda ok: _exact("routes", "rule", SHARED, DEG, ok),
        lambda ok: recorded("routes", "exact", "rule", SHARED, ok),
    ),
    "exact-informational": (
        lambda ok: _exact("star", "rule", SEQ.label, DEG, ok, None, asserted=False),
        lambda ok: recorded("star", "exact", "rule", SEQ.label, ok, asserted=False),
    ),
    "exact-other-bound": (
        lambda ok: _exact("binomial", "rule", SEQ.label, 16, ok, {"n": 1}),
        lambda ok: recorded("binomial", "exact", "rule", SEQ.label, ok, {"n": 1}, degree=16),
    ),
    "report-informational": (
        lambda ok: _exact("mutator", "rule", SEQ.label, DEG, ok,
                          _mutator_report(ok).get("witness"), asserted=False),
        lambda ok: recorded("mutator", "first_failure", "rule", SEQ.label, _mutator_failures(ok),
                            asserted=False),
    ),
    "windowed": (
        lambda ok: _windowed("ghw", "rule", SEQ.label, DEG, 7 if ok else 3, 7),
        lambda ok: recorded("ghw", "windowed", "rule", SEQ.label, 7 if ok else 3, 7),
    ),
    "split-operator-consistency": (ref_split_consistency, new_split_consistency),
    "product-rule": (ref_product_rule, new_product_rule),
    "weighted-family-system": (ref_weighted_family_system, new_weighted_family_system),
    "bracket-identity": (ref_bracket_identity, new_bracket_identity),
    "number-steps": (ref_number_steps, new_number_steps),
    "provided-table": (ref_provided_table, new_provided_table),
}


@pytest.mark.parametrize("ok", [True, False])
@pytest.mark.parametrize("shape", list(RECORD_SHAPES))
def test_recorder_matches_the_record_rules_it_replaced(shape, ok):
    reference, record = RECORD_SHAPES[shape]
    expected = reference(ok)
    if shape == "product-rule" and not ok:
        # the one intended change: a failed product rule names its samples
        assert expected.witness is None
        expected = dataclasses.replace(expected, witness={"f": F, "g": G})
    assert record(ok) == [expected]
    # a record that holds carries no witness; a failed one always does
    assert (expected.witness is None) == ok


# -- first-failure search --------------------------------------------------------


class TestFirstFailure:
    def test_empty_stream_holds(self):
        out = recorded("star", "first_failure", "rule", SEQ.label, iter(()), window=DEG - 1)
        assert out == [IdentityReport("star", "rule", SEQ.label, DEG, DEG - 1, WINDOWED, True)]

    def test_empty_first_witness_fails(self):
        args = ("rule", SEQ.label, [{}, {"n": 1}])
        out = recorded("binomial", "first_failure", *args, asserted=False, degree=16)
        assert out == [IdentityReport("binomial", "rule", SEQ.label, 16, None, FAILS, False, {})]

    def test_stream_is_not_advanced_past_its_first_witness(self):
        pulled = []

        def failures():
            for i in range(6):
                pulled.append(i)
                if i % 2:
                    yield {"i": i}

        out = recorded("weyl", "first_failure", "rule", SEQ.label, failures())
        assert pulled == [0, 1]
        assert out == [IdentityReport("weyl", "rule", SEQ.label, DEG, None, FAILS, True, {"i": 1})]

    def test_pairs_are_drawn_only_until_the_first_failure(self):
        rng, twin = random.Random(7), random.Random(7)
        seen = []

        def holds(f, g):
            seen.append((f, g))
            return len(seen) < 2

        failures = _pair_failures(rng, 5, 2, 3, holds)
        out = recorded("leibnitz", "first_failure", "rule", SHARED, failures)
        drawn = [(_random_polynomial(twin, 2), _random_polynomial(twin, 3)) for _ in range(2)]
        assert seen == drawn
        assert rng.getstate() == twin.getstate()
        assert out[0].witness == {"f": drawn[1][0], "g": drawn[1][1]}


# -- wrong basic tables ----------------------------------------------------------


def doubled_second_coefficients(seq, rows, table_of_rows=sequences._table_of_rows):
    """`_table_of_rows` with 1/2_psi! doubled in the conversion: coefficient 2
    of every entry doubles, and the table keeps its rows."""
    table = table_of_rows(seq, rows)
    wrong = SequenceTable(tuple([p + Polynomial.monomial(2, p.coefficient(2)) for p in table]))
    object.__setattr__(wrong, "divided", table.divided)
    return wrong


def test_wrong_basic_tables_fail_the_spectral_suite_instead_of_raising():
    """A basic table that misses its lowering recurrence has no dual raiser;
    each family stops at the fault and records it as one failed asserted
    `kernel-fault` record (exit status 1, not the 2 of bad input), and the
    suite goes on with the next family."""
    roster = conftest.family_roster(9)
    with mock.patch.object(sequences, "_table_of_rows", doubled_second_coefficients):
        reports = run_suites(["spectral"], roster, 8)
    assert exit_status(reports) == 1
    failed = [r for r in reports if r.failed and r.asserted]
    assert sorted((r.identity_id, r.family) for r in failed) == sorted(
        ("kernel-fault", seq.label) for seq in roster
    )
    for r in failed:
        assert r.witness["error"].startswith("BasisMismatchError: lowering recurrence fails")


def test_a_kernel_fault_in_one_family_keeps_the_verdicts_of_the_others():
    """The records of the families that do not fault are those of the
    unmutated run; the faulting family has one `kernel-fault` record."""
    roster = conftest.family_roster(9)
    clean = run_suites(["factorization", "mutator"], roster, 8)
    original = sequences.basic_sequence

    def wrong(q_op, seq, bound):
        if seq is roster[1]:
            raise BasisMismatchError("injected fault")
        return original(q_op, seq, bound)

    with mock.patch.object(harness, "basic_sequence", wrong):
        reports = run_suites(["factorization", "mutator"], roster, 8)
    label = roster[1].label
    assert [r for r in reports if r.family != label] == [r for r in clean if r.family != label]
    faulted = [(r.suite, r.identity_id, r.failed) for r in reports if r.family == label]
    assert faulted == [("factorization", "kernel-fault", True), ("mutator", "kernel-fault", True)]


def test_a_kernel_fault_in_family_free_checks_keeps_every_family_verdict():
    """`leibnitz` builds an operator from its action only for its
    family-free divided-difference series: a fault there is one `shared`
    kernel fault, and every family's records are those of the unmutated
    run."""
    roster = conftest.family_roster(9)
    clean = run_suites(["leibnitz"], roster, 8)

    def wrong(action, bound):
        raise BasisMismatchError("injected fault")

    with mock.patch.object(harness, "from_action", wrong):
        reports = run_suites(["leibnitz"], roster, 8)
    faults = [r for r in reports if r.identity_id == "kernel-fault"]
    assert [(r.family, r.failed, r.asserted) for r in faults] == [(SHARED, True, True)]
    assert faults[0].witness == {"error": "BasisMismatchError: injected fault"}
    for seq in roster:
        got = [r for r in reports if r.family == seq.label]
        assert got and got == [r for r in clean if r.family == seq.label]


def old_alternating_series(d, degree):
    """The divided-difference series as `shared_leibnitz` built it before it
    was applied per monomial, verbatim except that D is an argument and
    `multiplication_operator` is inlined: a ladder of powers of D and one
    multiplication matrix per term, summed from the zero operator."""

    def multiplication_operator(p, bound):
        return from_action(lambda v: (p * v).truncate(bound), bound)

    d_powers = d.powers(degree)
    acc = zero_operator(degree)
    for n in range(1, degree + 1):
        front = multiplication_operator(
            Polynomial.monomial(n - 1, Fraction((-1) ** (n + 1), math.factorial(n))),
            degree,
        )
        acc = acc.add(front.compose(d_powers[n]))
    return acc


def derivative_series_holds(degree) -> bool:
    reports = run_suites(["leibnitz"], [], degree)
    [record] = [r for r in reports if r.identity_id == "divided-difference-derivative-series"]
    return not record.failed


@pytest.mark.parametrize("degree", range(2, 13))
def test_derivative_series_verdict_is_the_old_ladder_sum(degree):
    """With the weight of D doubled at any one column, the per-monomial
    series and the old ladder of multiplication matrices give one verdict."""
    d0 = divided_difference(degree)
    for k in range(1, degree + 1):

        def wrong(seq, bound, k=k):
            w = psi_derivative(seq, bound).weights
            return weighted_shift(-1, bound, lambda j: 2 * w[j] if j == k else w[j])

        with mock.patch.object(harness, "psi_derivative", wrong):
            got = derivative_series_holds(degree)
        d = wrong(AdmissibleSequence.classical(degree + 1), degree)
        assert got == (old_alternating_series(d, degree) == d0), k


@pytest.mark.parametrize("degree", range(2, 25))
def test_derivative_series_holds_as_the_old_ladder_sum(degree):
    d = psi_derivative(AdmissibleSequence.classical(degree + 1), degree)
    assert old_alternating_series(d, degree) == divided_difference(degree)
    assert derivative_series_holds(degree)


# -- reparameterization certificate ----------------------------------------------


def old_reparameterization_certificate(seq, q_series, table, bound: int) -> bool:
    """The certificate as it was, through two basis changes (verbatim, but
    that the detected series is realized directly)."""
    monomials = SequenceTable(tuple([Polynomial.monomial(i) for i in range(bound + 1)]))
    induced = (
        umbral_operator(monomials, table)
        .compose(psi_derivative(seq, bound))
        .compose(umbral_operator(table, monomials))
    )
    result = detect_psi_form(induced)
    if not result.consistent:
        return False
    if result.candidate != seq.values[1 : bound + 1]:
        return False
    if realize_delta_series(result.series, bound).columns != induced.columns:
        return False
    got = result.series.coeffs
    want = q_series.coeffs
    return got[:bound] == want[:bound] and got[bound] != want[bound]


def perturbed_tables(table):
    """((n, j), table) for every single-coefficient perturbation that
    `suite_binomial` checks, the top entry's linear cell (N, 1) among them."""
    for n in range(table.bound + 1):
        for j in range(n + 1):
            coeffs = list(table[n].coeffs)
            coeffs[j] += 1
            if j == n and coeffs[j] == 0:
                coeffs[j] += 1
            entries = list(table)
            entries[n] = Polynomial(coeffs)
            yield (n, j), SequenceTable(tuple(entries))


@pytest.mark.parametrize("degree", range(2, 9))
def test_perturbation_verdicts_on_the_default_samples_are_those_on_ten(degree):
    """`perturbation-rejection` reads the addition rule on its default
    samples; on every single-coefficient perturbation of the roster's
    composite tables the verdict is the one on `default_shift_samples(10)`,
    a longer list below degree 8."""
    ten = default_shift_samples(10)
    for seq in conftest.family_roster(degree + 1):
        series = DeltaSeries.from_list(seq, [0, 1, 1], degree)
        small = basic_sequence_from_series(series, degree).table
        for cell, table in perturbed_tables(small):
            default = addition_rule_failure(table, table, seq) is None
            assert default == (addition_rule_failure(table, table, seq, ten) is None), (
                seq.label, cell)


nonzero_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda v: v != 0
)


@st.composite
def certificate_cases(draw):
    """A custom or q-deformed family, a degree N from 2 to 10 and a delta
    series read at N, of unit slope or not."""
    degree = draw(st.integers(2, 10))
    bound = degree + 1
    if draw(st.booleans()):
        values = draw(st.lists(nonzero_rationals, min_size=bound, max_size=bound))
        seq = AdmissibleSequence.custom(values, bound)
    else:
        q = draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(3, 5)]))
        seq = AdmissibleSequence.q_deformed(q, bound)
    slope = draw(st.one_of(st.just(Fraction(1)), nonzero_rationals))
    tail = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                         max_size=degree - 1))
    return seq, degree, DeltaSeries.from_list(seq, [0, slope] + tail, degree)


@settings(max_examples=25, deadline=None)
@given(case=certificate_cases())
def test_reparameterization_certificate_matches_two_basis_changes(case):
    """One basis change (entry n to n_psi times entry n - 1) certifies the
    same tables as the two through monomials: the basic tables of a random
    and of the composite series, and every perturbation of either."""
    seq, degree, series = case
    composite = DeltaSeries.from_list(seq, [0, 1, 1], degree)
    for q_series in (series, composite):
        table = basic_sequence_from_series(q_series, degree).table
        for cell, t in [(None, table), *perturbed_tables(table)]:
            got = _reparameterization_certificate(seq, q_series, t, degree)
            assert got == old_reparameterization_certificate(seq, q_series, t, degree), cell
            if q_series is composite and cell == (degree, 1):
                assert got  # the cell suite_binomial asks a certificate of
