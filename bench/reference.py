"""A fixed pure-Python computation that measures how fast the machine is now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more over minutes, as other tenants come and go; that drift moves
every time a pass takes.  A child times samples of this computation for
BURST_S seconds just before its timed pass, one every INTERVAL_S seconds
during it (Sampler) and for BURST_S seconds just after it, and
bench/run.py scales the pass's times by REFERENCE_S over the samples'
median: the ``*_ref`` metrics are the times the pass would take on a
machine where one sample takes REFERENCE_S.

The computation does what the engine does most (tuple-keyed table lookups
in a product loop, small dicts, a sort) and imports nothing from relmon,
so no change to the engine changes it.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time

# The time of one sample at reference speed: about the median on the 2-core
# machine the benchmark was written on, so that *_ref times read like seconds
# there.  A constant; changing it rescales every *_ref metric.
REFERENCE_S = 0.0014
N = 8
# one sample every INTERVAL_S seconds of wall time: about 3% of a pass
INTERVAL_S = 0.05
BURST_S = 0.3


def _sample() -> int:
    table = {(a, b): (a * b + a) % N for a in range(N) for b in range(N)}
    lawful = 0
    for x, y, z in itertools.product(range(N), repeat=3):
        if table[table[x, y], z] == table[x, table[y, z]]:
            lawful += 1
    cells = {}
    for i in range(1200):
        cells[(i % 17, i // 17, f"f{i}")] = [i, (i, lawful)]
    order = sorted(cells, key=lambda k: (k[1], k[0]))
    return lawful + len(order)


def sample() -> float:
    """The time of one sample, in seconds."""

    start = time.perf_counter()
    _sample()
    return time.perf_counter() - start


def burst(seconds: float) -> list:
    """Sample times over about ``seconds`` seconds (at least one)."""

    end = time.perf_counter() + seconds
    out = [sample()]
    while time.perf_counter() < end:
        out.append(sample())
    return out


class Sampler:
    """Times one sample every INTERVAL_S seconds while the with-block runs.

    Samples run on SIGALRM in the main thread, between two bytecodes of
    whatever the pass is doing, with the garbage collector off so that
    they never collect the pass's objects.  clock() is time.perf_counter()
    less the time spent in samples, so a pass timed with it does not pay
    for them.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:   # no sample ran in between
                return now - paused

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(sample())
        finally:
            if collecting:
                gc.enable()
            self.paused += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
