"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed is not
steady: the same operation takes up to about 1.5 times as long in one
stretch of tens of seconds as in another, in CPU time as much as in wall
time. Whole runs land in fast or slow stretches, and that, not the inputs,
set most of the run-to-run spread of raw wall times.

A fixed reference kernel (small numpy products and reductions, a
pure-Python loop and JSON encoding of floats, the mix riskcast's own code
runs) is timed right before and right after every timed operation. The
operation's wall time is scaled by ``NOMINAL_S / reading``, where
``reading`` is the mean of the readings taken within WINDOW_S of it: it is
reported as it would read with the kernel at its nominal time. The kernel
uses nothing from riskcast, so a change to riskcast moves the scaled time
as much as the raw one; a change that slows the whole process (threads
left spinning, say) slows the kernel too and shows less.
"""

from __future__ import annotations

import json
import time

import numpy as np

# The nominal seconds of one reading: about the mean reading on the
# reference machine (2 vCPUs of an Intel Xeon VM, Python 3.11.7, numpy
# 2.4.6) in a fast stretch, so that scaled times there read about as the
# raw ones.
NOMINAL_S = 0.006

# Readings this many seconds before or after an operation count for it: the
# machine's speed changes within seconds, but one reading is noisy.
WINDOW_S = 3.0

_A = np.random.default_rng(0).standard_normal((16, 16)) * 0.1
_V = np.random.default_rng(1).standard_normal(48)
_FLOATS = np.random.default_rng(2).standard_normal(3000).tolist()


def _kernel() -> float:
    """Small numpy products and reductions, a pure-Python loop, and JSON
    encoding and decoding of floats (checkpoint saves and scene loads)."""
    acc = 0.0
    x = _A
    for i in range(100):
        x = np.tanh(x @ _A + 0.01 * i)
        acc += float(np.exp(-np.abs(_V)).sum()) + float(x[0, 0])
    table = {}
    for i in range(4000):
        acc += (i * 7) % 13 * 0.5
        table[i & 63] = acc
    acc += json.loads(json.dumps({"data": _FLOATS}))["data"][-1]
    return acc


def reading() -> float:
    """Seconds of one reference-kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Meter:
    """Times operations, with a reference reading right before and right
    after each, and scales their times to the nominal speed."""

    def __init__(self):
        for _ in range(20):   # warm-up
            reading()
        self.readings: list[tuple[float, float]] = []   # (when, seconds)

    def _read(self) -> None:
        t0 = time.perf_counter()
        seconds = reading()
        self.readings.append((t0 + 0.5 * seconds, seconds))

    def time(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); returns its result and its span, the
        perf_counter() times it started and ended. An exception out of fn
        propagates."""
        self._read()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self._read()
        return result, (t0, t1)

    def seconds(self, span: tuple[float, float], scaled: bool = True
                ) -> float:
        """Wall seconds of a span; scaled, times NOMINAL_S over the mean of
        the readings within WINDOW_S of it, which include the two that
        bracket it."""
        t0, t1 = span
        if not scaled:
            return t1 - t0
        near = [r for t, r in self.readings
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return (t1 - t0) * NOMINAL_S * len(near) / sum(near)

    def mean_reading(self) -> float:
        return sum(r for _, r in self.readings) / len(self.readings)
