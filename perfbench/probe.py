"""Speed probe: how fast the machine ran while a worker was timed.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop takes up to twice as long for tens of seconds at a time, in
CPU time as much as in wall time, while CPU steal stays near zero.  Medians
over passes cannot remove a slowdown that lasts longer than a pass, so every
timed worker samples the speed it runs at instead.

``Probe`` times a fixed snippet of interpreter work (dict updates and
arithmetic on multi-word integers, as in the engine's sparse columns) from a
SIGALRM handler every ``INTERVAL_S`` seconds, in the timed process itself, so
the samples see the same core at the same moment as the engine.  The
snippet is benchmark code: no engine change can make it faster or slower.

A time measured while the probe ran is reported at reference speed:
``(measured - probe time) * mean(REF_S / sample)``.  Samples are evenly
spaced in wall time, so the mean of the per-sample speeds is the speed
integrated over the interval; a sample stretched by preemption lowers that
mean only by its own small share.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter, process_time

INTERVAL_S = 0.025
# The snippet's time when the machine runs at full speed: about its time
# between engine calls on a 2.1 GHz Xeon VM.  It only sets the scale of the
# reported seconds; comparisons between commits do not depend on it.
REF_S = 0.0005
SNIPPET_STEPS = 1500


def snippet() -> int:
    col = {}
    x = 0x9E3779B97F4A7C15
    m = (1 << 89) - 1
    for i in range(SNIPPET_STEPS):
        x = (x * x + i) % m
        k = x & 127
        col[k] = col.get(k, 0) + (x >> 40)
    return len(col)


class Probe:
    """Samples the snippet's time from a SIGALRM handler until ``stop``."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0     # seconds spent in the probe, wall and CPU
        self.cpu = 0.0

    def _sample(self, *_):
        start, cpu = perf_counter(), process_time()
        snippet()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.wall += elapsed
        self.cpu += process_time() - cpu

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()      # at least one sample, however short the interval
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> dict:
        """The samples so far, summarised, and a fresh start for the next."""
        summary = {"probe_s": self.wall, "probe_cpu_s": self.cpu}
        if not self.samples:    # timed work shorter than INTERVAL_S
            self._sample()
        summary["speed"] = fmean(REF_S / s for s in self.samples)
        summary["samples"] = len(self.samples)
        self.samples, self.wall, self.cpu = [], 0.0, 0.0
        return summary
