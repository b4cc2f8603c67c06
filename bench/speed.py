"""Machine-speed normalisation of measured times.

Shared machines drift in speed by tens of percent over minutes, which would
swamp the changes the benchmark is meant to show. While a `SpeedSampler` is
active, a timer signal interrupts the measured work every `INTERVAL_S` and
runs one fixed chunk of exact rational arithmetic (the kind of work the
package does, on a working set of about two megabytes). The chunks see
the same machine conditions as the work around them, so

    reported time = (wall time - time spent in chunks) * REFERENCE_CHUNK_S / mean chunk time

is the time the work would take on a machine whose chunk time is
`REFERENCE_CHUNK_S`. The mean chunk time is taken over a whole pass for the
pass time, and over the chunks within `WINDOW_S` of a request for that
request's latency, so that a slow spell inside a pass does not reorder the
latencies. The chunks use only the standard library, so no change to the
package can change them.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
CHUNK_TERMS = 120
WINDOW_S = 1.0
MIN_WINDOW_CHUNKS = 16
# Median chunk time on the machine the benchmark was defined on (Python
# 3.11.7, 2 vCPUs); it only fixes the unit of the reported times.
REFERENCE_CHUNK_S = 0.00075

POOL_SIZE = 1 << 14

_rng = random.Random(0)
_POOL = [Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 10**6)) for _ in range(POOL_SIZE)]


def _chunk(offset: int) -> list:
    out = [Fraction(0)] * 24
    for i in range(CHUNK_TERMS):
        a = _POOL[(offset + 13 * i) % POOL_SIZE]
        out[i % 24] = out[i % 24] + a * _POOL[(7 * offset + 31 * 1009 * i) % POOL_SIZE]
    return out


class SpeedSampler:
    """Context manager that interleaves calibration chunks with the work.

    `clock()` is a work clock: perf_counter minus the time spent in chunks.
    `scale()` converts work-clock seconds to reference-speed seconds."""

    def __init__(self):
        self.chunks = 0
        self.chunk_s = 0.0
        self.marks = []  # (work-clock time, duration) of each chunk
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a chunk stalled past the next signal
            return
        self._busy = True
        start = time.perf_counter()
        _chunk(self.chunks * 97)
        duration = time.perf_counter() - start
        self.marks.append((start - self.chunk_s, duration))
        self.chunk_s += duration
        self.chunks += 1
        self._busy = False

    def clock(self) -> float:
        while True:
            seen = self.chunks
            now = time.perf_counter() - self.chunk_s
            if seen == self.chunks:
                return now

    def scale(self, start=None, end=None) -> float:
        """Reference seconds per work-clock second: over the whole sampling,
        or around the work-clock interval [start, end] when enough chunks
        fall within WINDOW_S of it."""
        if start is not None:
            lo, hi = start - WINDOW_S / 2, end + WINDOW_S / 2
            near = [d for t, d in self.marks if lo <= t <= hi]
            if len(near) >= MIN_WINDOW_CHUNKS:
                return REFERENCE_CHUNK_S * len(near) / sum(near)
        if not self.chunks:  # work shorter than one interval
            self._tick(None, None)
        return REFERENCE_CHUNK_S / (self.chunk_s / self.chunks)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
