"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the repository root with `python -m pytest bench/tests`.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import inputs, run, speed, trace, workloads
from umbralcalc import harness, sequences
from umbralcalc.psi import AdmissibleSequence

ROOT = Path(__file__).resolve().parents[2]


def small_addition(seed=7):
    return inputs.addition_requests(seed, degree=5)[:8]


def small_expansion(seed=7):
    return inputs.expansion_requests(seed, degree=5)[:3]


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_generator_is_deterministic_plain_data(name):
    make = inputs.GENERATORS[name]
    first = make(11)
    assert make(11) == first
    assert json.loads(json.dumps(first)) == first
    if name != "verify-default":
        assert make(12) != first


def test_stream_mix_is_fixed():
    requests = inputs.addition_requests(3)
    assert len(requests) == 100
    assert sum(r["expect"] == "reject" for r in requests) == 25
    for q in inputs.Q_VALUES:
        same_q = [r for r in requests if r["family"].get("q") == q]
        assert [r["expect"] for r in same_q].count("reject") == 1
        assert len(same_q) == inputs.Q_REPEATS
    assert sorted(r["family"]["family"] for r in inputs.expansion_requests(3)) == sorted(
        r["family"]["family"] for r in requests
    )
    for r in requests:
        if r["expect"] == "reject":
            spec = r["perturb"]
            assert 1 <= spec["entry"] < r["degree"]
            assert 0 <= spec["index"] < spec["entry"]


def test_verify_seeds_have_digests():
    digests = workloads.load_digests()
    assert set(digests) == {str(s) for s in inputs.VERIFY_SEEDS}


# -- output checks ---------------------------------------------------------------


@pytest.mark.parametrize(
    "make, name", [(small_addition, "addition-stream"), (small_expansion, "expansion-stream")]
)
def test_streams_pass_on_generated_inputs(make, name):
    result = workloads.run_pass(name, make(), None, {})
    assert result.attempted == len(make())
    assert result.failed == 0
    assert len(result.latencies_s) == result.attempted


def test_corrupted_verdict_counts_as_failure():
    requests = small_addition()
    flipped = dict(requests[0], expect="reject", perturb={"entry": 1, "index": 0, "delta": "0"})
    # delta 0 leaves the table intact, so the checker accepts it: a wrong verdict
    result = workloads.run_pass("addition-stream", [flipped] + requests[1:], None, {})
    assert result.failed == 1


def test_exception_counts_as_failure():
    bad = dict(small_expansion()[0], family={"family": "q_deformed", "q": "-1"})
    result = workloads.run_pass("expansion-stream", [bad], None, {})
    assert (result.attempted, result.failed) == (1, 1)


def fake_main(body: bytes, status: int):
    def main(argv):
        Path(argv[argv.index("--out") + 1]).write_bytes(body)
        return status

    return main


@pytest.mark.parametrize(
    "status, summary, digest_ok, failed",
    [
        (0, {"asserted_failed": 0}, True, 0),
        (0, {"asserted_failed": 0}, False, 1),
        (0, {"asserted_failed": 1}, True, 1),
        (1, {"asserted_failed": 1}, True, 1),
    ],
)
def test_verify_checks(monkeypatch, tmp_path, status, summary, digest_ok, failed):
    body = json.dumps({"summary": summary}).encode()
    digest = hashlib.sha256(body).hexdigest() if digest_ok else "0" * 64
    monkeypatch.setattr(workloads.cli, "main", fake_main(body, status))
    request = inputs.verify_request(0)
    result = workloads.run_pass(
        "verify-default", request, tmp_path, {str(request["cli_seed"]): digest}
    )
    assert (result.attempted, result.failed) == (1, failed)


# -- tracing ---------------------------------------------------------------------


def traced_pass(name, data, scratch=None):
    tracer = trace.Tracer()
    with tracer:
        result = workloads.run_pass(name, data, scratch, {}, tracer)
    return tracer, result


def test_traced_and_untraced_outputs_match_and_restore():
    originals = (
        AdmissibleSequence.binomial,
        sequences.verify_binomial_type,
        workloads.verify_binomial_type,
        dict(harness.SUITES),
    )
    for name, data in (
        ("addition-stream", small_addition()),
        ("expansion-stream", small_expansion()),
    ):
        plain = workloads.run_pass(name, data, None, {})
        tracer, traced = traced_pass(name, data)
        assert traced.digest == plain.digest
        assert traced.failed == 0
        assert tracer.stats
    assert (
        AdmissibleSequence.binomial,
        sequences.verify_binomial_type,
        workloads.verify_binomial_type,
        dict(harness.SUITES),
    ) == originals


def test_traced_counts_repeat_and_follow_the_layers():
    first, _ = traced_pass("addition-stream", small_addition())
    second, _ = traced_pass("addition-stream", small_addition())
    metrics = trace.layer_metrics(first, 1.0, 1.0)
    again = trace.layer_metrics(second, 1.0, 1.0)
    for name, (value, unit) in metrics.items():
        if unit == "count":
            assert again[name][0] == value, name
    assert metrics["psi.binomial.calls"][0] > 0
    assert metrics["operators.generalized_shift.calls"][0] > 0
    assert metrics["sequences.verify_binomial_type.self_s"][0] > 0

    expansion, _ = traced_pass("expansion-stream", small_expansion())
    metrics = trace.layer_metrics(expansion, 1.0, 1.0)
    assert metrics["psi.binomial.calls"][0] == 0
    assert metrics["operators.compose.calls"][0] > 0
    assert metrics["poly.arith.calls"][0] > 0


def test_traced_cli_verify_matches_untraced(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suites": ["ghw", "routes"]}))
    argv = ["verify", "--degree", "4", "--format", "json", "--config", str(config), "--out"]
    assert workloads.cli.main(argv + [str(tmp_path / "plain.json")]) == 0
    tracer = trace.Tracer()
    with tracer:
        assert workloads.cli.main(argv + [str(tmp_path / "traced.json")]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    metrics = trace.layer_metrics(tracer, 1.0, 2.0)
    assert metrics["harness.suite.ghw.s"][0] > 0
    assert metrics["harness.suite.routes.s"][0] > 0
    assert metrics["harness.suite.binomial.s"][0] == 0
    assert metrics["cli.render_s"][0] > 0
    assert metrics["sequences.realize_per_route"][0] > 0
    assert metrics["trace.overhead_ratio"][0] == 2.0
    tracer.write_spans(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert "counters" in json.loads(lines[-1])
    assert any(json.loads(line)["name"] == "harness.suite_ghw" for line in lines[:-1])


# -- command line ------------------------------------------------------------------


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = [workloads.PassResult(2.0, [0.0, 1.0], [0.5, 1.5], attempted=2)]
    produced = run.end_to_end_metrics(passes, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in produced.items()
    }
    assert all(v > 0 for v, _ in produced.values())
    traced = trace.layer_metrics(trace.Tracer(), 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in traced.items()
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [w["name"] for w in spec["workloads"]] == list(inputs.GENERATORS)


def test_run_refuses_without_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "addition-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_sampler_excludes_chunks_from_the_work_clock():
    with speed.SpeedSampler() as sampler:
        start, wall = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        work, wall = sampler.clock() - start, time.perf_counter() - wall
    assert sampler.chunks > 0
    assert abs(work - (wall - sampler.chunk_s)) < 0.01
    assert sampler.scale() > 0
    assert sampler.scale(start, start + work) > 0
