"""The shared wall-clock timer behind every perf artifact.

One implementation of "summarize N timed repeats" serves both the
``repro perf-profile`` ledger (:mod:`repro.obs.profile`, which builds a
:class:`Timing` from each span's durations over the repeats) and the
``benchmarks/bench_*.py`` suites, so a speedup in ``BENCH_kernels.json``
and a ledger row mean the same thing: **median of N repeats** (robust
to a single noisy run), with the best and worst repeats kept alongside.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from ..errors import ConfigurationError

__all__ = ["Timing", "time_call"]


@dataclasses.dataclass(frozen=True)
class Timing:
    """Wall times of one repeated measurement, plus the last result."""

    result: object            #: return value of the final repeat
    times_s: tuple            #: every repeat's wall time, in run order

    @property
    def median_s(self):
        """Median repeat — the headline number every artifact reports."""
        return float(statistics.median(self.times_s))

    @property
    def best_s(self):
        """Fastest repeat (the least-interference bound)."""
        return float(min(self.times_s))

    @property
    def worst_s(self):
        """Slowest repeat (the cold or most-interfered bound)."""
        return float(max(self.times_s))

    @property
    def repeats(self):
        return len(self.times_s)

    def to_dict(self):
        """JSON-able summary (no ``result`` — callers own their payloads)."""
        return {
            "median_s": self.median_s,
            "best_s": self.best_s,
            "repeats": self.repeats,
            "times_s": [float(t) for t in self.times_s],
        }


def time_call(fn, repeats=3, warmup=0):
    """Run ``fn()`` ``repeats`` times; return a :class:`Timing`.

    ``warmup`` extra untimed calls run first — use 1 for code with
    one-time caches (FFT plans, polyphase designs) when measuring the
    steady state, 0 when the cold cost is the point.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    for __ in range(int(warmup)):
        fn()
    times = []
    result = None
    for __ in range(int(repeats)):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return Timing(result=result, times_s=tuple(times))
