"""The shared median-of-N wall-clock timer (:mod:`repro.perf.timer`).

:class:`Timing` summarizes repeated measurements as median, best and
worst; :func:`time_call` produces one by timing a callable.  The
``benchmarks/bench_*.py`` suites time with it, and the
``repro perf-profile`` ledger (:mod:`repro.obs.profile`) summarizes
each traced span over its repeats with it, so every perf artifact
reports comparable numbers (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from .timer import Timing, time_call

__all__ = ["Timing", "time_call"]
