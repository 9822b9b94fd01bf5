"""Timed passes over a workload and the statistics taken from them.

Timings are reported in *reference seconds*: each wall duration divided
by the host factor around it, which is the median time of a fixed
calibration (interpreter loop plus FFTs, :func:`calibrate`) run between
operations within :data:`CAL_WINDOW_S` of it, over the calibration's
time on a reference host (:data:`CAL_REF_S`).  Shared hosts switch
between speed regimes 30-40% apart, for seconds to minutes at a time;
the program and the calibration slow down alike, so the ratio holds
still where wall time does not.  Wall figures and the factor are
printed next to every result.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import resource
import statistics
import time

import numpy as np

#: Seconds :func:`calibrate` takes on the reference host: a 2-vCPU
#: Xeon VM in its slower regime.  It sets the scale of reference seconds
#: and nothing else.
CAL_REF_S = 0.0075

#: Least wall time between two calibrations.
CAL_EVERY_S = 0.25

#: Calibrations within this many seconds of a duration's midpoint set
#: its host factor.
CAL_WINDOW_S = 3.0

_CAL_INPUT = np.random.default_rng(0).standard_normal(4096)


def calibrate():
    """Wall time of a fixed mix of interpreter and numpy work."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i & 7
    for __ in range(30):
        np.fft.irfft(np.fft.rfft(_CAL_INPUT))
    return time.perf_counter() - start


class Clock:
    """Times set-ups and operations, and calibrates between them."""

    def __init__(self):
        self.setup_s, self.setup_at = [], []
        self.setup_in_op = []   #: per set-up: timed inside an operation?
        self.op_s, self.op_at = [], []
        self.op_audio_s = []    #: simulated audio each operation processed
        self.cal_s, self.cal_at = [], []
        self._in_op = False
        for __ in range(3):
            self._calibrate()

    def _calibrate(self):
        self.cal_at.append(time.perf_counter())
        self.cal_s.append(calibrate())

    def _calibrate_now_and_then(self):
        if not self._in_op and \
                time.perf_counter() - self.cal_at[-1] >= CAL_EVERY_S:
            self._calibrate()

    def setup(self, fn):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.setup_s.append(elapsed)
        self.setup_at.append(start + elapsed / 2)
        self.setup_in_op.append(self._in_op)
        self._calibrate_now_and_then()
        return result

    def op(self, fn):
        self._in_op = True
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            self.op_s.append(elapsed)
            self.op_at.append(start + elapsed / 2)
            self.op_audio_s.append(0.0)
            self._in_op = False
        self._calibrate_now_and_then()
        return result

    def credit(self, audio_s):
        """Record the simulated audio the last operation processed."""
        self.op_audio_s[-1] += audio_s

    def host_factor(self, at=None):
        """Median calibration time over the reference one (>1: slower).

        Over the whole pass, or over the calibrations within
        :data:`CAL_WINDOW_S` of time ``at`` (the nearest one if none is).
        """
        near = self.cal_s
        if at is not None:
            lo = bisect.bisect_left(self.cal_at, at - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.cal_at, at + CAL_WINDOW_S)
            near = self.cal_s[lo:hi] or [
                self.cal_s[min(lo, len(self.cal_s) - 1)]]
        return statistics.median(near) / CAL_REF_S

    def ref_setup_s(self):
        """Set-up durations in reference seconds."""
        return [t / self.host_factor(at)
                for t, at in zip(self.setup_s, self.setup_at)]

    def ref_op_s(self):
        """Operation durations in reference seconds."""
        return [t / self.host_factor(at)
                for t, at in zip(self.op_s, self.op_at)]


@dataclasses.dataclass
class Pass:
    """What one pass measured: durations and the rounds' outputs."""

    clock: Clock
    rounds: list        #: Round per round, in order

    @property
    def wall_s(self):
        """Set-up plus operation time: the part a trace must cover.

        A set-up timed inside an operation (``fig12_fm``) is part of
        that operation's time and is not counted twice.
        """
        return sum(self.clock.op_s) + sum(
            t for t, inside in zip(self.clock.setup_s,
                                   self.clock.setup_in_op) if not inside)

    def audio_x(self, ref=True):
        """Audio-weighted median, over operations, of simulated audio per
        second of operation time (reference seconds unless ``ref`` is
        false).

        A median shrugs off the stalls a shared host inflicts on single
        operations; weighting by audio makes a ``serve_mix`` tick count
        by the session-blocks it served.
        """
        op_s = self.clock.ref_op_s() if ref else self.clock.op_s
        pairs = sorted((a / t, a) for a, t in
                       zip(self.clock.op_audio_s, op_s) if a > 0)
        half = sum(a for __, a in pairs) / 2.0
        seen = 0.0
        for rate, audio in pairs:
            seen += audio
            if seen >= half:
                return rate
        return 0.0


def run_pass(workload, n_setups, seconds=None, rounds=None):
    """Whole rounds of operations, then set-ups up to ``n_setups``.

    Rounds repeat until ``rounds`` have run or, with ``seconds``, until
    that much time has passed; a round is never cut, so every run
    measures the same mix of operations.
    """
    gc.collect()
    clock = Clock()
    done = []
    started = time.perf_counter()
    while True:
        done.append(workload.round(clock))
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif time.perf_counter() - started >= seconds:
            break
    while len(clock.setup_s) < n_setups:
        clock.setup(workload.setup)
    return Pass(clock, done)


def tally(rounds, reference, label):
    """``(attempted, failure lines)`` over ``rounds``.

    An operation fails when the workload's own check rejects it, or when
    its output digest differs from ``reference`` (``label`` names what
    the reference is, for the message).
    """
    attempted, lines = 0, []
    for index, rnd in enumerate(rounds, 1):
        bad = dict(rnd.failures)
        for key, want in reference.items():
            if rnd.digests.get(key) != want:
                bad.setdefault(key, f"output differs from {label}")
        attempted += rnd.attempted
        lines += [f"round {index} {key}: {why}" for key, why in bad.items()]
    return attempted, lines


def tail(values, beyond=10):
    """``(q, value)`` for the highest of p99/p95/p90/p75 that leaves at
    least ``beyond`` samples above it, or ``None`` if none does."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= beyond:
            return q, float(np.percentile(values, q))
    return None


def peak_rss_mb():
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
