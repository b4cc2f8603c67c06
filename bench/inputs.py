"""Seeded input generator for the benchmark workloads.

Everything emitted here is plain data: rationals as strings, integers, and
family descriptors as dicts. The generator imports nothing from the package,
so a change to the package (its harness samplers included) cannot change the
inputs; the workloads hand these values to the package's public constructors.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Degree bounds of the two request streams.
ADDITION_DEGREE = 12
EXPANSION_DEGREE = 16

# The family mix of one stream pass of 100 requests. Fixing the mix, and
# giving every q value the same share, keeps the cost of a pass and its
# latency percentiles from varying with the seed more than the values drawn
# within each family kind make them vary. A quarter of each kind's addition
# requests carry a perturbed table to reject. Each pass has more than ten
# samples beyond its p90.
Q_VALUES = ("2", "-2", "3", "-3", "1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2")
Q_REPEATS = 4
CUSTOM_COUNT = 36
CLASSICAL_COUNT = 16
REJECT_EVERY = 4

# `umbralcalc verify` seeds whose report digests are stored in digests.json;
# the first is the CLI default.
VERIFY_SEEDS = (20240811, 1, 2, 3)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"umbralcalc-bench:{workload}:{seed}")


def _rational(rng: random.Random, lo: int, hi: int, den: int, nonzero: bool) -> str:
    num = rng.randint(lo, hi)
    while nonzero and num == 0:
        num = rng.randint(lo, hi)
    return str(Fraction(num, rng.randint(1, den)))


def _slots(rng: random.Random) -> list:
    """(family kind, q, reject) for each request of a pass, in seeded order."""
    slots = [("q_deformed", q, r == REJECT_EVERY - 1) for r in range(Q_REPEATS) for q in Q_VALUES]
    slots += [("custom", None, i % REJECT_EVERY == REJECT_EVERY - 1) for i in range(CUSTOM_COUNT)]
    slots += [("classical", None, i % REJECT_EVERY == REJECT_EVERY - 1) for i in range(CLASSICAL_COUNT)]
    rng.shuffle(slots)
    return slots


def _family(rng: random.Random, kind: str, q, bound: int) -> dict:
    """Descriptor of a fresh family of the given kind, valid up to `bound`."""
    if kind == "custom":
        return {
            "family": "custom",
            "values": [_rational(rng, -5, 5, 4, True) for _ in range(bound)],
        }
    if kind == "q_deformed":
        return {"family": "q_deformed", "q": q}
    return {"family": "classical"}


def _delta_series(rng: random.Random, order: int) -> list:
    head = ["0", _rational(rng, -4, 4, 3, True)]
    return head + [_rational(rng, -2, 2, 3, False) for _ in range(2, order + 1)]


def _invertible_series(rng: random.Random, order: int) -> list:
    head = [_rational(rng, -4, 4, 3, True)]
    return head + [_rational(rng, -2, 2, 3, False) for _ in range(1, order + 1)]


def addition_requests(seed: int, degree: int = ADDITION_DEGREE) -> list:
    """Addition-rule check requests.

    An "accept" request carries a family, a delta series and an invertible
    prefactor; both addition rules must hold. A "reject" request carries a
    family, a delta series and one perturbation of a coefficient below the
    leading one, in an entry below the top entry, of the basic table; the
    perturbed table must fail the addition rule. (Only the top entry's
    linear coefficient can be perturbed into another basic table.)
    """
    rng = _rng("addition-stream", seed)
    out = []
    for kind, q, reject in _slots(rng):
        request = {
            "degree": degree,
            "family": _family(rng, kind, q, degree + 1),
            "series": _delta_series(rng, degree),
        }
        if reject:
            entry = rng.randint(1, degree - 1)
            request["expect"] = "reject"
            request["perturb"] = {
                "entry": entry,
                "index": rng.randint(0, entry - 1),
                "delta": _rational(rng, -3, 3, 2, True),
            }
        else:
            request["expect"] = "accept"
            request["prefactor"] = _invertible_series(rng, degree)
        out.append(request)
    return out


def expansion_requests(seed: int, degree: int = EXPANSION_DEGREE) -> list:
    """Expansion requests: a family and a lower-triangular operator T
    (column j has degree at most j) with integer entries in [-3, 3]."""
    rng = _rng("expansion-stream", seed)
    return [
        {
            "degree": degree,
            "family": _family(rng, kind, q, degree + 1),
            "operator": [
                [rng.randint(-3, 3) for _ in range(j + 1)] for j in range(degree + 1)
            ],
        }
        for kind, q, _ in _slots(rng)
    ]


def verify_request(seed: int) -> dict:
    """The default `umbralcalc verify` run, at one of the stored seeds."""
    return {"cli_seed": VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]}


GENERATORS = {
    "verify-default": verify_request,
    "addition-stream": addition_requests,
    "expansion-stream": expansion_requests,
}
