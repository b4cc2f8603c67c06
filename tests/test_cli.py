"""End-to-end runs of the command line front end through main()."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from umbralcalc import (
    AdmissibleSequence,
    DeltaSeries,
    SequenceTable,
    sheffer_sequence,
)
from umbralcalc import cli
from umbralcalc.integration import IntegralOperator
from umbralcalc.cli import COMMANDS, MAX_DEGREE, main


GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSequence:
    def test_classical_monomials(self, capsys):
        code, out, _ = run(capsys, ["sequence", "--degree", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family: classical"
        assert lines[1] == "kind: basic"
        assert "p_2 = 1*x^2" in lines
        assert "p_3 = 1*x^3" in lines

    def test_prefactored_json_matches_library(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"family": "q_deformed", "q": "2"},
                "series": ["0", "1"],
                "prefactor": ["1", "1"],
            },
        )
        code, out, _ = run(
            capsys,
            ["sequence", "--degree", "3", "--config", cfg, "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "prefactored"
        assert payload["family"] == {"family": "q_deformed", "q": "2"}

        table = SequenceTable.from_json(payload["table"])
        seq = AdmissibleSequence.q_deformed(2, 4)
        want = sheffer_sequence(
            DeltaSeries.from_list(seq, [0, 1], 3),
            DeltaSeries.from_list(seq, [1, 1], 3),
            3,
        ).table
        assert table.entries == want.entries
        # spot check the frozen top entry
        assert payload["table"][3] == ["-21", "21", "-7", "1"]

    def test_rejects_unit_q(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"family": {"family": "q_deformed", "q": "1"}})
        code, out, err = run(capsys, ["sequence", "--degree", "4", "--config", cfg])
        assert code == 2
        assert out == ""
        assert "DegenerateFamilyError" in err

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(
            capsys,
            ["sequence", "--degree", "2", "--format", "json", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["table"] == [["1"], ["0", "1"], ["0", "0", "1"]]


class TestVerify:
    def test_single_suite_exit_zero(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, {"suites": ["ghw"], "families": [{"family": "classical"}]}
        )
        code, out, _ = run(capsys, ["verify", "--degree", "6", "--config", cfg])
        assert code == 0
        assert (
            "[assert] ghw/commutator-identity | classical | N=6 | "
            "holds_up_to_window | window=5" in out
        )
        assert out.endswith("exit status: 0\n")

    def test_output_is_byte_stable(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"suites": ["routes", "detect"], "families": [{"family": "fibonacci"}]},
        )
        argv = ["verify", "--degree", "5", "--config", cfg, "--seed", "99"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_provided_table_failure_flips_exit(self, capsys, tmp_path):
        bad = [["1"], ["0", "1"], ["0", "1", "1"], ["0", "0", "0", "1"]]
        cfg = write_config(
            tmp_path,
            {
                "suites": [],
                "families": [],
                "check_tables": [
                    {
                        "label": "probe",
                        "family": {"family": "classical"},
                        "entries": bad,
                    }
                ],
            },
        )
        code, out, _ = run(capsys, ["verify", "--degree", "3", "--config", cfg])
        assert code == 1
        assert "provided-table(probe) | classical | N=3 | fails" in out
        assert '"n": 3' in out

    def test_default_report_matches_golden(self, capsys):
        code, out, _ = run(capsys, ["verify", "--format", "json", "--degree", "8"])
        assert code == 0
        assert out.encode() == (GOLDEN / "verify_default_n8.json").read_bytes()

    def test_unknown_suite_exits_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"suites": ["nope"]})
        code, _, err = run(capsys, ["verify", "--degree", "4", "--config", cfg])
        assert code == 2
        assert "BadParameterError" in err


class TestDetect:
    def test_squared_weights_operator(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"operator": "DxD"})
        code, out, _ = run(capsys, ["detect", "--degree", "4", "--config", cfg])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "candidate: 1, 4, 9, 16"
        assert lines[1] == "series: 0, 1, 0, 0, 0"
        assert lines[2] == "consistent: yes"

    def test_violation_is_reported(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, {"operator": {"columns": ["0", "1", "2x", "3x^2+x"]}}
        )
        code, out, _ = run(capsys, ["detect", "--degree", "3", "--config", cfg])
        assert code == 0
        assert "not of psi-form: violation at (n=3, k=2): expected 0, found 1" in out

    def test_json_payload(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"operator": "DxD"})
        code, out, _ = run(
            capsys, ["detect", "--degree", "3", "--config", cfg, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["candidate"] == ["1", "4", "9"]
        assert payload["consistent"] is True
        assert payload["violation"] is None


class TestExpand:
    def test_identity_over_derivative(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, {"operator": {"columns": ["1", "x", "x^2", "x^3"]}}
        )
        code, out, _ = run(capsys, ["expand", "--degree", "3", "--config", cfg])
        assert code == 0
        assert "q_0 = 1" in out
        assert "reassembles: yes" in out

    def test_derivative_has_single_coefficient(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"operator": [0, 1]})
        code, out, _ = run(capsys, ["expand", "--degree", "4", "--config", cfg])
        assert code == 0
        assert "q_1 = 1" in out
        assert "reassembles: yes" in out

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("DxD(2)", "builtin operator 'DxD' takes no argument"),
            ("multiplication_x(1/2)", "builtin operator 'multiplication_x' takes no argument"),
            ("psi_derivative(abc)", "builtin operator 'psi_derivative' takes no argument"),
            ("nope(2)", "unknown builtin operator 'nope'"),
            ("nope", "unknown builtin operator 'nope'"),
        ],
    )
    def test_argument_to_a_builtin_without_one_exits_two(self, capsys, tmp_path, literal, message):
        cfg = write_config(tmp_path, {"operator": literal})
        code, out, err = run(capsys, ["expand", "--degree", "3", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err == f"error: BadParameterError: {message}\n"


class TestIntegrate:
    def test_graded_antiderivative(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"family": {"family": "fibonacci"}, "kind": "psi", "polynomial": "x^2"},
        )
        code, out, _ = run(capsys, ["integrate", "--degree", "6", "--config", cfg])
        assert code == 0
        assert "integral: 1/2*x^3" in out
        assert "pairing: verified (window=5)" in out

    def test_q_antiderivative(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"kind": "q", "q": "2", "polynomial": "x^2"})
        code, out, _ = run(capsys, ["integrate", "--degree", "6", "--config", cfg])
        assert code == 0
        assert "integral: 1/7*x^3" in out


class TestStarAndSpectral:
    def test_star_power(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"family": {"family": "fibonacci"}, "power": 3})
        code, out, _ = run(capsys, ["star", "--degree", "6", "--config", cfg])
        assert code == 0
        assert "x^(3*) = 3*x^3" in out

    def test_poisson_routes_agree(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"family": "q_deformed", "q": "2"},
                "poisson": {"lam": "1/2", "m_max": 2},
            },
        )
        code, out, _ = run(capsys, ["star", "--degree", "8", "--config", cfg])
        assert code == 0
        assert "routes agree: yes" in out

    @pytest.mark.parametrize("degree", [2, 3])
    def test_poisson_default_stops_at_the_degree(self, capsys, tmp_path, degree):
        """Below degree 4 the default m_max is the degree itself."""
        cfg = write_config(tmp_path, {"poisson": {}})
        code, out, _ = run(capsys, ["star", "--degree", str(degree), "--format", "json",
                                    "--config", cfg])
        assert code == 0
        poisson = json.loads(out)["poisson"]
        assert len(poisson["entries"]) == degree + 1 and poisson["routes_agree"] is True

    def test_spectral_summary(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"family": {"family": "q_deformed", "q": "2"}})
        code, out, _ = run(capsys, ["spectral", "--degree", "6", "--config", cfg])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "orthogonality: ok (kmax=6)"
        assert lines[2] == "eigen-relation: ok"
        assert lines[3] == "conjugation-route: agrees"
        assert lines[4] == "printed-formula: diverges at order 2 (finding)"

    @pytest.mark.parametrize("kmax", [0, 4])
    def test_spectral_kmax_bounds_are_inclusive(self, capsys, tmp_path, kmax):
        cfg = write_config(tmp_path, {"kmax": kmax})
        code, out, _ = run(capsys, ["spectral", "--degree", "4", "--config", cfg])
        assert code == 0
        assert f"orthogonality: ok (kmax={kmax})" in out

    @pytest.mark.parametrize(
        "kmax",
        [
            pytest.param(20, id="above-the-degree"),
            pytest.param([1], id="list"),
            pytest.param(-5, id="negative"),
            pytest.param(2.7, id="float"),
            pytest.param(True, id="bool"),
            pytest.param("3", id="string"),
        ],
    )
    def test_spectral_bad_kmax_exits_two_naming_the_key(self, capsys, tmp_path, kmax):
        cfg = write_config(tmp_path, {"kmax": kmax})
        code, out, err = run(capsys, ["spectral", "--degree", "4", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith("error: BadParameterError:") and "kmax" in err


QD_COMPOSITE = {
    "family": {"family": "q_deformed", "q": "-3/2"},
    "series": [0, 1, "1/2"],
    "prefactor": [1, 1, "1/3"],
}
R_SHAPE = {"kind": "r", "coefficients": [2, -2], "q": "1/3"}

# payloads at N = 8, written out literally so that no change to the checks
# behind the commands can move them
PINNED_PAYLOADS = {
    "spectral-default": (["spectral"], {}, {
        "family": {"family": "classical"}, "N": 8, "orthogonality": True,
        "eigen_relation": True, "conjugation_route": True,
        "printed_formula_matches": True, "printed_formula_first_divergence": None,
    }),
    "spectral-q-deformed-composite": (["spectral"], QD_COMPOSITE, {
        "family": {"family": "q_deformed", "q": "-3/2"}, "N": 8, "orthogonality": True,
        "eigen_relation": True, "conjugation_route": True,
        "printed_formula_matches": False, "printed_formula_first_divergence": 2,
    }),
    "integrate-psi": (["integrate"], {"kind": "psi"}, {
        "kind": "psi", "N": 8, "input": ["0", "1"], "integral": ["0", "0", "1/2"],
        "pairing_verified": True, "window": 7,
    }),
    "integrate-q": (["integrate"], {"kind": "q", "q": "1/2"}, {
        "kind": "q", "N": 8, "input": ["0", "1"], "integral": ["0", "0", "2/3"],
        "pairing_verified": True, "window": 7,
    }),
    "integrate-r": (["integrate"], R_SHAPE, {
        "kind": "r", "N": 8, "input": ["0", "1"], "integral": ["0", "0", "9/16"],
        "pairing_verified": True, "window": 7,
    }),
}


@pytest.mark.parametrize("case", list(PINNED_PAYLOADS))
def test_pinned_payload(capsys, tmp_path, case):
    command, config, expected = PINNED_PAYLOADS[case]
    cfg = write_config(tmp_path, config)
    code, out, _ = run(capsys, command + ["--degree", "8", "--format", "json", "--config", cfg])
    assert code == 0
    assert json.loads(out) == expected


def test_integrate_reports_the_first_failing_pairing(capsys, tmp_path):
    doubled = lambda self, p: self.shift.apply(p).scale(2)
    cfg = write_config(tmp_path, {"kind": "q", "q": "1/2"})
    with mock.patch.object(IntegralOperator, "integrate", doubled):
        code, out, _ = run(capsys, ["integrate", "--degree", "8", "--config", cfg])
        assert code == 1
        assert out.splitlines()[-1] == "pairing: FAILED {'side': 'right', 'degree': 0}"
        code, out, _ = run(capsys, ["integrate", "--degree", "8", "--config", cfg,
                                    "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pairing_verified"] is False and payload["window"] is None


class TestGuards:
    def test_degree_too_small(self, capsys):
        code, _, err = run(capsys, ["sequence", "--degree", "1"])
        assert code == 2
        assert "BadParameterError" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_degree_above_the_limit_exits_two(self, capsys, command):
        # the missing config shows the guard runs before anything is loaded
        argv = [command, "--degree", str(MAX_DEGREE + 1), "--config", "/does/not/exist.json"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: BadParameterError: --degree {MAX_DEGREE + 1} exceeds the limit {MAX_DEGREE}\n"
        )

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, ["sequence", "--config", "/does/not/exist.json"])
        assert code == 2
        assert "error:" in err

    def test_expand_requires_operator(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {})
        code, _, err = run(capsys, ["expand", "--degree", "4", "--config", cfg])
        assert code == 2
        assert "BadParameterError" in err

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"operator": {"series": [0, 1.5]}}, "1.5"),
            ({"operator": {"series": [0, "1/0"]}}, "'1/0'"),
            ({"operator": {"series": [0, True]}}, "True"),
            ({"operator": "jackson(1/0)"}, "'1/0'"),
            ({"operator": {"columns": ["1", "1/0*x"]}}, "'1/0'"),
        ],
    )
    def test_bad_rationals_exit_two(self, capsys, tmp_path, config, named):
        cfg = write_config(tmp_path, config)
        code, out, err = run(capsys, ["expand", "--degree", "3", "--config", cfg])
        # the key of the operator literal, or the builtin that takes the argument
        literal = config["operator"]
        key = next(iter(literal)) if isinstance(literal, dict) else literal.split("(")[0]
        assert code == 2
        assert out == ""
        assert err == (
            f"error: BadParameterError: operator key {key!r}: not an exact rational: {named}\n"
        )

    @pytest.mark.parametrize("bad", [1.5, "1/0", True])
    def test_bad_rational_in_checked_table_exits_two(self, capsys, tmp_path, bad):
        entry = {"family": {"family": "classical"}, "entries": [["1"], ["0", bad]]}
        cfg = write_config(
            tmp_path, {"suites": [], "families": [], "check_tables": [entry]}
        )
        code, _, err = run(capsys, ["verify", "--degree", "3", "--config", cfg])
        assert code == 2
        assert err == (
            "error: BadParameterError: check_tables key 'entries': "
            f"not an exact rational: {bad!r}\n"
        )

    def test_family_without_its_parameter_names_the_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"family": {"family": "q_deformed"}})
        code, _, err = run(capsys, ["sequence", "--degree", "3", "--config", cfg])
        assert code == 2
        assert err == (
            "error: BadParameterError: q_deformed family descriptor needs key 'q'\n"
        )

    def test_family_descriptor_must_be_an_object(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"families": ["classical"]})
        code, _, err = run(capsys, ["verify", "--degree", "3", "--config", cfg])
        assert code == 2
        assert "BadParameterError" in err and "'classical'" in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"suites": "ghw"}, "config key 'suites' must be a list of suite names"),
            ({"suites": [1]}, "config key 'suites' must be a list of suite names"),
            ({"families": 5}, "config key 'families' must be a list of family descriptors"),
            ({"check_tables": 5}, "config key 'check_tables' must be a list of objects"),
            ({"check_tables": ["x"]}, "config key 'check_tables' must be a list of objects"),
            (
                {"check_tables": [{"family": {"family": "classical"}, "entries": 5}]},
                "check_tables key 'entries' must be a list of coefficient lists",
            ),
            (
                {"check_tables": [{"family": {"family": "classical"}, "entries": [5]}]},
                "check_tables key 'entries' must be a list of coefficient lists",
            ),
            (
                {"check_tables": [{"family": {"family": "classical"}}]},
                "check_tables key 'entries' must be a list of coefficient lists",
            ),
            (
                {"check_tables": [{"entries": [["1"]]}]},
                "check_tables entry needs key 'family'",
            ),
        ],
    )
    def test_malformed_verify_config_names_the_key(self, capsys, tmp_path, config, message):
        cfg = write_config(tmp_path, config)
        code, _, err = run(capsys, ["verify", "--degree", "3", "--config", cfg])
        assert code == 2
        assert err == f"error: BadParameterError: {message}\n"

    def test_empty_check_table_is_rejected_before_any_suite_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_suites", lambda *args: pytest.fail("a suite ran"))
        entry = {"family": {"family": "classical"}, "entries": []}
        cfg = write_config(tmp_path, {"check_tables": [entry]})
        code, out, err = run(capsys, ["verify", "--degree", "3", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err == (
            "error: BadParameterError: check_tables key 'entries' must list at least one entry\n"
        )

    def test_wrong_degree_check_table_row_is_rejected_before_any_suite_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_suites", lambda *args: pytest.fail("a suite ran"))
        entry = {"family": {"family": "classical"}, "entries": [["0"], ["0", "1"]]}
        cfg = write_config(tmp_path, {"suites": [], "families": [], "check_tables": [entry]})
        code, out, err = run(capsys, ["verify", "--degree", "3", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err == (
            "error: BadParameterError: check_tables key 'entries': "
            "table entry 0 has degree -1, expected 0\n"
        )


class TestConfigReaders:
    """Every config value is read through one typed reader, so bad input
    exits 2 with one error line naming its key, never a traceback."""

    @pytest.mark.parametrize(
        "command, config, key",
        [
            pytest.param("sequence", {"series": 1}, "series", id="sequence-series-int"),
            pytest.param("sequence", {"series": None}, "series", id="sequence-series-null"),
            pytest.param("sequence", {"prefactor": 5}, "prefactor", id="sequence-prefactor-int"),
            pytest.param(
                "sequence",
                {"family": {"family": "custom", "values": 3}},
                "values",
                id="sequence-custom-values-int",
            ),
            pytest.param(
                "verify",
                {"suites": [], "families": [{"family": "custom", "values": 3}]},
                "values",
                id="verify-custom-values-int",
            ),
            pytest.param("star", {"power": [2]}, "power", id="star-power-list"),
            pytest.param("star", {"poisson": 3}, "poisson", id="star-poisson-int"),
            pytest.param("star", {"left": 3, "right": "x"}, "left", id="star-left-int"),
            pytest.param(
                "integrate",
                {"kind": "r", "coefficients": 7, "q": 2},
                "coefficients",
                id="integrate-coefficients-int",
            ),
            pytest.param(
                "integrate", {"polynomial": None}, "polynomial", id="integrate-polynomial-null"
            ),
            pytest.param(
                "expand", {"operator": {"columns": 3}}, "columns", id="expand-columns-int"
            ),
            pytest.param("expand", {"operator": {"series": 3}}, "series", id="expand-series-int"),
            pytest.param("star", {"power": 2.7}, "power", id="star-power-float"),
            pytest.param("star", {"power": True}, "power", id="star-power-bool"),
            pytest.param("star", {"poisson": {"m_max": 1.7}}, "m_max", id="poisson-m_max-float"),
            pytest.param("star", {"poisson": {"m_max": True}}, "m_max", id="poisson-m_max-bool"),
            pytest.param(
                "verify",
                {
                    "suites": [],
                    "families": [],
                    "check_tables": [
                        {"label": [1], "family": {"family": "classical"}, "entries": [["1"]]}
                    ],
                },
                "label",
                id="check_tables-label-list",
            ),
            pytest.param("star", {"left": "x"}, "right", id="star-left-without-right"),
            pytest.param(
                "integrate", {"kind": "r", "q": 2}, "coefficients", id="integrate-r-no-coefficients"
            ),
            pytest.param("star", {"power": -1}, "power", id="star-power-negative"),
            pytest.param("sequence", {"series": [0, "a"]}, "series", id="sequence-series-value"),
            pytest.param(
                "sequence", {"prefactor": [1, "1/0"]}, "prefactor", id="sequence-prefactor-value"
            ),
            pytest.param("integrate", {"kind": "q", "q": "abc"}, "q", id="integrate-q-value"),
            pytest.param("star", {"left": "x^^2", "right": "1"}, "left", id="star-left-value"),
            pytest.param("star", {"poisson": {"lam": "1/0"}}, "lam", id="poisson-lam-value"),
            pytest.param(
                "sequence",
                {"family": {"family": "q_deformed", "q": "abc"}},
                "q",
                id="family-q-value",
            ),
            pytest.param(
                "verify",
                {"suites": [], "families": [{"family": "custom", "values": ["1", "b"]}]},
                "values",
                id="family-values-value",
            ),
            pytest.param(
                "sequence",
                {"family": {"family": "recurrence", "alphas": ["a"], "betas": [1]}},
                "alphas",
                id="family-alphas-value",
            ),
            pytest.param(
                "verify",
                {
                    "suites": [],
                    "families": [],
                    "check_tables": [
                        {"family": {"family": "classical"}, "entries": [["1"], [1, "x"]]}
                    ],
                },
                "entries",
                id="check_tables-entries-value",
            ),
            pytest.param("expand", {"operator": [0, "q"]}, "series", id="expand-series-value"),
            pytest.param(
                "expand", {"operator": "jackson(abc)"}, "jackson", id="expand-jackson-arg"
            ),
            pytest.param(
                "expand", {"operator": "dilation(1/0)"}, "dilation", id="expand-dilation-arg"
            ),
            pytest.param(
                "expand",
                {"operator": {"columns": ["1", "x^^2"]}},
                "columns",
                id="expand-columns-value",
            ),
            # a bad literal under `lowering` is named by that key, not `operator`
            pytest.param(
                "expand",
                {"operator": [0, 1], "lowering": [0, "q"]},
                "series",
                id="expand-lowering-series-value",
            ),
            pytest.param(
                "expand",
                {"operator": [0, 1], "lowering": "jackson(abc)"},
                "jackson",
                id="expand-lowering-jackson-arg",
            ),
            pytest.param(
                "expand",
                {"operator": [0, 1], "lowering": {"columns": ["x^^2"]}},
                "columns",
                id="expand-lowering-columns-value",
            ),
        ],
    )
    def test_bad_value_exits_two_naming_the_key(self, capsys, tmp_path, command, config, key):
        cfg = write_config(tmp_path, config)
        code, out, err = run(capsys, [command, "--degree", "3", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith("error: BadParameterError: ") and err.count("\n") == 1
        assert repr(key) in err
        if "lowering" in config:
            assert err.startswith(f"error: BadParameterError: lowering key {key!r}: ")

    @pytest.mark.parametrize(
        "command, config, error, where, key",
        [
            pytest.param("sequence", {"series": [0, 0, 1]}, "NotDeltaError", "config", "series",
                         id="sequence-not-delta"),
            pytest.param("sequence", {"prefactor": [0, 1]}, "NotInvertibleError", "config",
                         "prefactor", id="sequence-not-invertible"),
            pytest.param("spectral", {"series": [0, 0, 1]}, "NotDeltaError", "config", "series",
                         id="spectral-not-delta"),
            pytest.param("spectral", {"prefactor": [0, 1]}, "NotInvertibleError", "config",
                         "prefactor", id="spectral-not-invertible"),
            pytest.param("expand", {"operator": [1, 1]}, "NotDeltaError", "operator", "series",
                         id="expand-operator-not-delta"),
            pytest.param("detect", {"operator": [1, 1]}, "NotDeltaError", "operator", "series",
                         id="detect-operator-not-delta"),
            pytest.param("expand", {"operator": [0, 1], "lowering": [0, 0, 1]}, "NotDeltaError",
                         "lowering", "series", id="expand-lowering-not-delta"),
            pytest.param("expand", {"operator": "jackson(1)"}, "BadParameterError", "operator",
                         "jackson", id="expand-operator-jackson-pole"),
            pytest.param("detect", {"operator": "jackson(1)"}, "BadParameterError", "operator",
                         "jackson", id="detect-operator-jackson-pole"),
            pytest.param("expand", {"operator": [0, 1], "lowering": "jackson(1)"},
                         "BadParameterError", "lowering", "jackson",
                         id="expand-lowering-jackson-pole"),
            pytest.param("integrate", {"kind": "q", "q": 1}, "BadParameterError", "config", "q",
                         id="integrate-q-pole"),
            pytest.param("integrate", {"kind": "q", "q": -1}, "DegenerateFamilyError", "config",
                         "q", id="integrate-q-degenerate"),
            pytest.param("sequence", {"family": {"family": "custom", "values": [1, 2]}},
                         "BadParameterError", "custom family descriptor", "values",
                         id="family-custom-too-few-values"),
            pytest.param("verify", {"suites": [], "families": [{"family": "custom", "values": [1]}]},
                         "BadParameterError", "custom family descriptor", "values",
                         id="families-custom-too-few-values"),
            pytest.param("sequence", {"family": {"family": "q_deformed", "q": 1}},
                         "DegenerateFamilyError", "q_deformed family descriptor", "q",
                         id="family-q-deformed-at-one"),
            pytest.param("verify", {"suites": [], "families": [{"family": "q_deformed", "q": -1}]},
                         "DegenerateFamilyError", "q_deformed family descriptor", "q",
                         id="families-q-deformed-vanishing-integer"),
            pytest.param("sequence", {"family": {"family": "custom", "values": [1, 0, 2, 3]}},
                         "DegenerateFamilyError", "custom family descriptor", "values",
                         id="family-custom-zero-value"),
            pytest.param("sequence", {"family": {}}, "BadParameterError", "family descriptor",
                         "family", id="family-unknown"),
        ],
    )
    def test_refused_value_exits_two_naming_the_key(
        self, capsys, tmp_path, command, config, error, where, key
    ):
        """A well-formed value the mathematics refuses keeps its error type,
        and its one error line names where it was read."""
        cfg = write_config(tmp_path, config)
        code, out, err = run(capsys, [command, "--degree", "3", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {error}: {where} key {key!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "betas, refusal",
        [([1, -1], "weighted roots must sum to one"), ([1, -2], "recurrence weights must sum to zero")],
    )
    def test_refused_recurrence_roots_name_both_keys(self, capsys, tmp_path, betas, refusal):
        """The recurrence checks read alphas and betas together, and the
        refusal names both keys."""
        family = {"family": "recurrence", "alphas": [3, 1], "betas": betas}
        cfg = write_config(tmp_path, {"family": family})
        code, out, err = run(capsys, ["sequence", "--degree", "3", "--config", cfg])
        assert (code, out) == (2, "")
        assert err == ("error: BadParameterError: recurrence family descriptor keys "
                       f"'alphas' and 'betas': {refusal}\n")

    @pytest.mark.parametrize(
        "command, config, message",
        [
            pytest.param("sequence",
                         {"family": {"family": "r_series", "coefficients": [1, 1], "q": 2}},
                         "BadParameterError: r_series family descriptor keys 'coefficients' "
                         "and 'q': series map must send 1 to 0 (zero constant sum)",
                         id="r-series-nonzero-constant-sum"),
            pytest.param("sequence",
                         {"family": {"family": "r_series", "coefficients": [1, -1], "q": 1}},
                         "DegenerateFamilyError: r_series family descriptor keys 'coefficients' "
                         "and 'q': r_series(q=1): generalized integer at n = 1 is zero",
                         id="r-series-vanishing-integer"),
            pytest.param("integrate", {"kind": "r", "coefficients": [1, -1], "q": 1},
                         "DegenerateFamilyError: config keys 'coefficients' and 'q': "
                         "series weight vanishes at index 1", id="integrate-r-vanishing-weight"),
        ],
    )
    def test_refused_series_shapes_name_both_keys(self, capsys, tmp_path, command, config,
                                                  message):
        """An r-series shape is refused for its coefficients and q together,
        and the refusal names both keys and keeps its error type."""
        cfg = write_config(tmp_path, config)
        code, out, err = run(capsys, [command, "--degree", "3", "--config", cfg])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "body",
        [b"{", b"\xff\xfe{}", b"", b'{"power": ' + b"1" * 5000 + b"}", b"[" * 100_000],
        ids=["truncated", "not-utf8", "empty", "integer-past-digit-limit", "deep-nesting"],
    )
    def test_unparsable_config_exits_two(self, capsys, tmp_path, body):
        path = tmp_path / "config.json"
        path.write_bytes(body)
        code, out, err = run(capsys, ["sequence", "--degree", "3", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: BadParameterError: config is not valid JSON")


# keys each command reads at the top level, and the keys of the objects
# nested in them (family descriptors, operator literals, poisson blocks,
# check_tables entries)
COMMAND_KEYS = {
    "sequence": ["family", "series", "prefactor"],
    "verify": ["families", "suites", "check_tables"],
    "expand": ["family", "operator", "lowering", "raiser"],
    "detect": ["family", "operator"],
    "integrate": ["family", "kind", "q", "coefficients", "polynomial"],
    "star": ["family", "power", "left", "right", "poisson"],
    "spectral": ["family", "kmax", "series", "prefactor"],
}
NESTED_KEYS = [
    "family", "q", "values", "alphas", "betas", "coefficients", "columns",
    "series", "lam", "m_max", "label", "entries",
]
# strings that mean something to some reader, so the search gets past the
# type checks into the values they guard
WORDS = [
    "classical", "q_deformed", "fibonacci", "recurrence", "r_series",
    "hyperbolic", "custom", "psi", "q", "r", "graded", "multiplication",
    "DxD", "jackson(2)", "dilation", "psi_derivative", "ghw", "routes",
    "x", "1+x^2", "2x", "1/2", "2", "-1", "1/0", "",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(WORDS)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NESTED_KEYS), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def command_configs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    keys = COMMAND_KEYS[command]
    config = draw(st.dictionaries(st.sampled_from(keys), json_values, max_size=len(keys)))
    if command == "verify":
        # an absent 'suites' runs every suite; that default is covered above
        config.setdefault("suites", [])
    return command, config


def test_fuzz_covers_every_command():
    assert sorted(COMMAND_KEYS) == sorted(COMMANDS)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=command_configs())
def test_no_config_escapes_the_exit_code_contract(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--degree", "3", "--config", str(cfg), "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n")
