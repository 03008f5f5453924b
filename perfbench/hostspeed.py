"""Host speed, from a fixed reference loop sampled while the benchmark runs.

The benchmark's host shares its processors: the same code runs up to half
again as slow for seconds or minutes when other work lands beside it. A
measured run samples ``reference_seconds`` every ``PERIOD`` seconds of wall
time, from a SIGALRM handler, so the samples also fall inside long
operations. The handler's time is taken out of the operation it interrupted.
A time is then scaled to the reference speed by ``scale``. The reference
loop uses no dccsim code, so a change to dccsim moves a scaled time exactly
as much as a wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds one reference sample takes on an unloaded 2-core x86_64 host
# (Python 3.11, numpy 2.4); scaled times are seconds at that speed.
REFERENCE_S = 0.0030
PERIOD = 0.1

_rng = np.random.default_rng(20150910)
_KEYS = _rng.integers(0, 1 << 20, size=1500).tolist()
_SMALL = _rng.integers(0, 1 << 12, size=300)
_BIG = _rng.standard_normal(1 << 14)


def reference_seconds() -> float:
    """Wall time of a fixed mix like dccsim's: interpreter work on dicts and
    ints, many numpy calls on small arrays, and butterfly passes over a
    2^14-entry array."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    for k in _KEYS:
        d[k >> 3] = d.get(k >> 3, 0) ^ (k & 0xFF)
    acc = 0
    for i in range(8000):
        acc ^= (i * 40503) >> 3
    for _ in range(60):
        u = np.unique(_SMALL ^ 5)
        acc ^= int(_SMALL[u[:50] % _SMALL.size].sum())
    a = _BIG.copy()
    m, h = a.size, 1
    while h < m:
        b = a.reshape(m // (2 * h), 2, h)
        diff = b[:, 0] - b[:, 1]
        b[:, 0] += b[:, 1]
        b[:, 1] = diff
        h *= 2
    return perf_counter() - t0


def scale(seconds: float, host_level: float) -> float:
    """A time taken at the given host level, at the reference speed."""
    return seconds * REFERENCE_S / host_level


def level(samples: list[float]) -> float:
    """The host's level over a stretch of at least two samples: their first
    quartile."""
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


class Sampler:
    """Within its block, takes a reference sample every PERIOD seconds.

    ``samples`` lists the sample times; ``spent`` is the wall time the
    handler took in all, to be taken out of the operation it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.samples.append(reference_seconds())
        finally:
            self.spent += perf_counter() - t0
            self._busy = False

    def _handler(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
