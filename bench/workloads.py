"""The benchmark workloads: one pass over a workload's inputs, with checks.

Each workload runs closed loop with one client: the next request starts when
the previous one has returned. A pass returns its wall time, the latency of
each request, how many operations it attempted and how many failed, and a
digest of everything the package returned, so that two passes over the same
inputs can be compared byte for byte.

A failure is a wrong verdict, a mismatched output, a nonzero exit status or
an exception.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from umbralcalc import cli
from umbralcalc.operators import (
    OperatorMatrix,
    expand_in_dual_pair,
    multiplication_x,
    psi_derivative,
    xhat_psi,
)
from umbralcalc.poly import Polynomial, SequenceTable, fr
from umbralcalc.psi import AdmissibleSequence
from umbralcalc.sequences import (
    basic_sequence_from_series,
    sheffer_sequence,
    verify_binomial_type,
    verify_sheffer_binomial,
)
from umbralcalc.series import DeltaSeries


DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass
class PassResult:
    wall_s: float
    starts_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""


def _family(request: dict) -> AdmissibleSequence:
    return AdmissibleSequence.from_descriptor(request["family"], request["degree"] + 1)


def _check_json(check) -> list:
    return [check.passed, check.description, check.witness]


# -- addition-stream -----------------------------------------------------------


def addition_request(request: dict):
    """Serve one addition-rule request; returns the verdicts as plain data."""
    degree = request["degree"]
    seq = _family(request)
    q_series = DeltaSeries.from_list(seq, request["series"], degree)
    if request["expect"] == "reject":
        table = basic_sequence_from_series(q_series, degree).table
        spec = request["perturb"]
        entry = table[spec["entry"]]
        coeffs = list(entry.coeffs)
        coeffs[spec["index"]] += fr(spec["delta"])
        entries = list(table.entries)
        entries[spec["entry"]] = Polynomial(coeffs)
        return [_check_json(verify_binomial_type(SequenceTable(tuple(entries)), seq))]
    s_series = DeltaSeries.from_list(seq, request["prefactor"], degree)
    sheffer = sheffer_sequence(q_series, s_series, degree)
    return [
        _check_json(verify_binomial_type(sheffer.basic.table, seq)),
        _check_json(verify_sheffer_binomial(sheffer)),
    ]


def addition_ok(request: dict, output: list) -> bool:
    verdicts = [passed for passed, _, _ in output]
    if request["expect"] == "reject":
        return verdicts == [False]
    return verdicts == [True, True]


# -- expansion-stream ----------------------------------------------------------


def expansion_request(request: dict):
    """Expand T over the lowering operator with both raisers.

    Returns the expansion coefficients as plain data and whether each
    reassembly equals T."""
    degree = request["degree"]
    seq = _family(request)
    t = OperatorMatrix.from_json(request["operator"])
    lowering = psi_derivative(seq, degree)
    out = []
    for raiser in (xhat_psi(seq, degree), multiplication_x(degree)):
        result = expand_in_dual_pair(t, lowering, raiser)
        out.append(
            [
                [p.to_json_list() for p in result.coefficients],
                result.reassembled.columns == t.columns,
            ]
        )
    return out


def expansion_ok(request: dict, output: list) -> bool:
    return all(reassembles for _, reassembles in output)


# -- streams -------------------------------------------------------------------


def run_stream(requests: list, serve, ok, tracer=None, clock=time.perf_counter) -> PassResult:
    """One closed-loop pass over `requests`, timed with `clock`."""
    result = PassResult(0.0)
    digest = hashlib.sha256()
    start = clock()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            output = serve(request)
        except Exception as exc:  # a failed operation, counted below
            output = None
            digest.update(f"error:{type(exc).__name__}:{exc}".encode())
        result.starts_s.append(t0)
        result.latencies_s.append(clock() - t0)
        result.attempted += 1
        if output is None or not ok(request, output):
            result.failed += 1
        if output is not None:
            digest.update(json.dumps(output, sort_keys=True, default=str).encode())
    result.wall_s = clock() - start
    result.digest = digest.hexdigest()
    return result


# -- verify-default ------------------------------------------------------------


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def run_verify(request: dict, out_path: Path, digests: dict, tracer=None,
               clock=time.perf_counter) -> PassResult:
    """One in-process `umbralcalc verify` at its defaults, JSON to a file.

    Passes when the exit status is 0, no asserted identity failed, and the
    report bytes hash to the digest stored for this CLI seed."""
    seed = request["cli_seed"]
    argv = ["verify", "--format", "json", "--out", str(out_path), "--seed", str(seed)]
    if tracer is not None:
        tracer.request = 0
    start = clock()
    try:
        status = cli.main(argv)
    except Exception as exc:  # a failed operation
        status = f"{type(exc).__name__}: {exc}"
    wall = clock() - start
    result = PassResult(wall, [start], [wall], attempted=1)
    if status != 0:
        result.failed = 1
        result.digest = f"status:{status}"
        return result
    body = out_path.read_bytes()
    result.digest = hashlib.sha256(body).hexdigest()
    summary = json.loads(body)["summary"]
    if summary["asserted_failed"] != 0 or result.digest != digests.get(str(seed)):
        result.failed = 1
    return result


# -- dispatch ----------------------------------------------------------------------

SERVERS = {
    "addition-stream": (addition_request, addition_ok),
    "expansion-stream": (expansion_request, expansion_ok),
}


def run_pass(name: str, data, scratch: Path, digests: dict, tracer=None,
             clock=time.perf_counter) -> PassResult:
    if name == "verify-default":
        return run_verify(data, scratch / "verify-report.json", digests, tracer, clock)
    serve, ok = SERVERS[name]
    return run_stream(data, serve, ok, tracer, clock)
