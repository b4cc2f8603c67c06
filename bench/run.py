"""Benchmark of the umbralcalc package, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  verify-default    in-process `umbralcalc verify --format json` at its
                    defaults: 5 families, N = 12, all 16 suites
  addition-stream   100 addition-rule check requests at N = 12, each with a
                    fresh family; a quarter carry a perturbed table to reject
  expansion-stream  100 expansion requests at N = 16, each with a fresh family
                    and a random lower-triangular operator

With --trace 0 the run repeats untraced passes over the seed's inputs for
about S seconds (at least one pass) and reports the end-to-end metrics. With
--trace 1 it makes one untraced pass and one traced pass over the same
inputs, checks that both return the same outputs, reports the per-layer
metrics and writes the spans to .bench_out/. All times are scaled to a
reference machine speed (see speed.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up is measured this many times per run and reported as the median.
SETUP_PROBES = 7


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _import_package(make_inputs, seed: int, clock):
    """Import umbralcalc afresh and generate the workload's inputs.

    Returns (seconds taken, inputs)."""
    for name in [n for n in sys.modules if n == "umbralcalc" or n.startswith("umbralcalc.")]:
        del sys.modules[name]
    start = clock()
    importlib.import_module("umbralcalc")
    importlib.import_module("umbralcalc.cli")
    data = make_inputs(seed)
    return clock() - start, data


def _quantile(values, q: int) -> float:
    """The q-th percentile of values (exclusive method); the maximum of a
    single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(passes: list, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run, as {name: (value, unit)}."""
    latencies_ms = [s * 1000 for p in passes for s in p.latencies_s]
    return {
        "run_s": (statistics.median(p.wall_s for p in passes), "s"),
        "req_p50_ms": (statistics.median(latencies_ms), "ms"),
        "req_p90_ms": (_quantile(latencies_ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"fail_ratio: {failed / attempted} ({failed} of {attempted} operations failed)")
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "umbralcalc" / "__init__.py").is_file():
        return _fail(f"no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench import inputs, speed

    if args.workload not in inputs.GENERATORS:
        return _fail(f"unknown workload {args.workload!r}")

    setups = []
    with speed.SpeedSampler() as sampler:
        for _ in range(SETUP_PROBES):
            elapsed, data = _import_package(
                inputs.GENERATORS[args.workload], args.seed, sampler.clock
            )
            setups.append(elapsed)
    setup_s = statistics.median(setups) * sampler.scale()
    from bench import trace, workloads

    OUT_DIR.mkdir(exist_ok=True)
    digests = workloads.load_digests()

    if args.trace:
        with speed.SpeedSampler() as sampler:
            plain = workloads.run_pass(
                args.workload, data, OUT_DIR, digests, clock=sampler.clock
            )
        plain_s = plain.wall_s * sampler.scale()
        with speed.SpeedSampler() as sampler:
            tracer = trace.Tracer(clock=sampler.clock)
            with tracer:
                traced = workloads.run_pass(
                    args.workload, data, OUT_DIR, digests, tracer, sampler.clock
                )
        scale = sampler.scale()
        tracer.write_spans(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        if traced.digest != plain.digest:
            failed = plain.failed + traced.attempted
        metrics = trace.layer_metrics(tracer, plain_s, traced.wall_s * scale, scale)
        _print_result(failed == 0, attempted, failed, metrics)
        return 0

    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with speed.SpeedSampler() as sampler:
            result = workloads.run_pass(
                args.workload, data, OUT_DIR, digests, clock=sampler.clock
            )
        wall = time.perf_counter() - began
        scale = sampler.scale()
        print(f"pass {len(passes) + 1}: wall {wall:.3f} s, work {result.wall_s:.3f} s, "
              f"speed scale {scale:.4f}")
        result.wall_s *= scale
        result.latencies_s = [
            s * sampler.scale(t, t + s) for t, s in zip(result.starts_s, result.latencies_s)
        ]
        passes.append(result)
        if time.perf_counter() - start + wall > args.seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    _print_result(failed == 0, attempted, failed, end_to_end_metrics(passes, setup_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
