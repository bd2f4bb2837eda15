"""Scaling measured times to a reference interpreter speed.

On a shared machine the speed of the interpreter drifts by well over a
factor of 1.5, in stretches of seconds to minutes. Raw wall times of the same
work then differ more between runs than the changes the benchmark must
detect. While a ``SpeedGauge`` is active, a SIGALRM handler times a fixed
probe every TICK_S seconds of wall time, also in the middle of a command.

A measured interval is scaled by the mean probe time around it:
``net * REFERENCE_PROBE_S / mean(probe)``, where ``net`` is the interval
minus the time the probes took inside it. The probe is benchmark code, so no
change to the program can move it. It creates no objects that the cyclic
garbage collector tracks, so it does not shift the program's collections.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Probe time, in seconds, at the reference speed (about what the probe takes
#: on a 2.1 GHz x86-64 core when the machine is quiet).
REFERENCE_PROBE_S = 0.002
TICK_S = 0.1

_KEYS = {f"r{i:05d}": i for i in range(0, 2000, 3)}


def _probe() -> float:
    """String formatting, hashing, dict lookups and float arithmetic, the
    kinds of work the pipeline spends its time on."""
    total = 0.0
    for i in range(2000):
        key = f"r{i:05d}"
        total += _KEYS.get(key, 0) * 0.5 + (hash(key) & 7)
    return total


class SpeedGauge:
    """Probe times sampled in the background while active (a context manager)."""

    def __init__(self) -> None:
        self.tick_at: list[float] = []
        self.tick_s: list[float] = []
        self.probing_s = 0.0
        self._previous = None

    def __enter__(self) -> SpeedGauge:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        _probe()
        end = perf_counter()
        self.tick_at.append(end)
        self.tick_s.append(end - start)
        self.probing_s += perf_counter() - start

    def clock(self) -> float:
        """Wall time that stands still while a probe runs."""
        return perf_counter() - self.probing_s

    def scaled(self, net_s: float, start: float, end: float) -> float:
        """``net_s``, measured by ``clock`` over the wall interval
        [start, end], at the reference speed. Uses the probes from one tick
        before to one tick after the interval."""
        low = bisect_left(self.tick_at, start - TICK_S)
        high = bisect_right(self.tick_at, end + TICK_S)
        window = self.tick_s[low:high] or self.tick_s[max(0, low - 1):low + 1]
        return net_s * REFERENCE_PROBE_S * len(window) / sum(window)
