"""Checks for the identity-suite runner: record shapes, determinism,
the exit-status policy, and a handful of frozen verdicts."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from umbralcalc import (
    AdmissibleSequence,
    BadParameterError,
    IdentityReport,
    SUITES,
    exit_status,
    render_json,
    render_text,
    run_all,
    run_suites,
    summarize,
)
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


def test_six_family_roster_report_matches_golden():
    """The full report at N = 8 over the six-family roster, including the
    seeded custom family with negative and fractional weights, serialised
    as `umbralcalc verify --format json` writes it."""
    payload = render_json(run_all(conftest.family_roster(9), 8, conftest.SEED), 8, conftest.SEED)
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    golden = Path(__file__).parent / "golden" / "roster_n8.json"
    assert body.encode() == golden.read_bytes()
