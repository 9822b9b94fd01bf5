"""Layer spans recorded from outside the program.

The program has no tracing of its own on most layer boundaries, so the
benchmark wraps each layer's public callable in place (a class attribute
or the module global the caller resolves at call time) while a traced
pass runs, and restores the originals afterwards.  A wrapper only times
the call and passes arguments and results through untouched, which is
why a traced pass must produce bit-identical outputs.

Spans are kept in memory as ``(name, start, end, parent)`` rows.  A
span's *self time* is its duration minus the durations of its direct
children; the self times of all spans add up to the time covered by the
top-level spans, and ``coverage`` is that time over the traced wall time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

from repro.acoustics.channels import AcousticChannel
from repro.core import system as core_system
from repro.core.adaptive import kernels
from repro.core.adaptive.lanc import LancFilter
from repro.core.relay_selection import RelaySelector
from repro.core.scenario import Scenario
from repro.faults.injector import FaultyRelay
from repro.serving.manager import SessionManager
from repro.serving.server import SessionServer
from repro.serving.session import DeviceSession
from repro.wireless.relay import AnalogRelay


def _count_lanc_samples(counts, args, result):
    counts["kernels.samples"] += len(args[1])


def _count_relay_audio(counts, args, result):
    relay, audio = args[0], args[1]
    counts["wireless.relay_audio_s"] += len(audio) / relay.audio_rate


def _count_batch(counts, args, result):
    counts["kernels.batch_rows"] += len(args[0])


def _count_admit(counts, args, result):
    # admit() runs once at the start of every tick; what it found
    # waiting is what is still pending plus what it just admitted.
    manager = args[0]
    counts["serving.admit_calls"] += 1
    counts["serving.admitted"] += len(result)
    counts["serving.queue_depth_sum"] += len(manager.pending) + len(result)


def _count_gates(counts, args, result):
    adapt, active = result
    counts["faults.mute_blocks"] += int(adapt and active)


#: ``(owner, attribute, span name, count hook)`` for every layer boundary.
#: Module-level functions are patched where their caller looks them up:
#: ``MuteSystem`` resolves ``estimate_secondary_path`` in
#: ``repro.core.system`` and the server resolves ``fxlms_block_batch`` on
#: the ``kernels`` package.
BOUNDARIES = (
    (Scenario, "build_channels", "acoustics.rir_build", None),
    (AcousticChannel, "apply", "acoustics.channel_apply", None),
    (AnalogRelay, "__init__", "wireless.relay_calibrate", None),
    (AnalogRelay, "forward", "wireless.relay_forward", _count_relay_audio),
    (core_system.MuteSystem, "__init__", "core.construct", None),
    (core_system, "estimate_secondary_path", "core.secondary_probe", None),
    (core_system.MuteSystem, "prepare", "core.prepare", None),
    (core_system.MuteSystem, "run", "core.run", None),
    (core_system.MuteSystem, "forwarded_and_ear_signals",
     "core.forward_ear", None),
    (RelaySelector, "select", "core.relay_select", None),
    (LancFilter, "run", "kernels.lanc_run", _count_lanc_samples),
    (kernels, "fxlms_block_batch", "kernels.batch", _count_batch),
    (SessionServer, "__init__", "serving.server_init", None),
    (SessionManager, "submit", "serving.submit", None),
    (SessionManager, "admit", "serving.admit", _count_admit),
    (SessionServer, "tick", "serving.tick", None),
    (DeviceSession, "gates", "faults.gates", _count_gates),
    (FaultyRelay, "forward", "faults.inject", None),
)

SPAN_NAMES = tuple(b[2] for b in BOUNDARIES)


class Tracer:
    """Spans and counts recorded at the :data:`BOUNDARIES` while installed."""

    def __init__(self):
        self.spans = []                        #: (name, start, end, parent)
        self.counts = collections.Counter()
        self._stack = []

    def _wrap(self, original, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        patched = []
        try:
            for owner, attr, name, hook in BOUNDARIES:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, hook))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def layer_times(self):
        """``{span name: (calls, self seconds)}`` and the covered seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: [0, 0.0] for name in SPAN_NAMES}
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            table[name][0] += 1
            table[name][1] += (end - start) - child[index]
            if parent < 0:
                covered += end - start
        return {k: tuple(v) for k, v in table.items()}, covered

    def dump(self, origin):
        """Spans as JSON-able rows, times in seconds from ``origin``."""
        ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        return {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": [[ids[n], round(s - origin, 7), round(e - origin, 7), p]
                     for n, s, e, p in self.spans],
        }


#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.
PER_LAYER_UNITS = {
    "acoustics.rir_build_s": "s",
    "acoustics.channel_apply_s": "s",
    "acoustics.channel_calls": "count",
    "wireless.relay_calibrate_s": "s",
    "wireless.relay_forward_s": "s",
    "wireless.relay_audio_s": "s",
    "core.construct_self_s": "s",
    "core.secondary_probe_s": "s",
    "core.prepare_self_s": "s",
    "core.run_self_s": "s",
    "core.forward_self_s": "s",
    "core.relay_select_s": "s",
    "kernels.lanc_run_s": "s",
    "kernels.samples": "count",
    "kernels.batch_s": "s",
    "kernels.batch_calls": "count",
    "kernels.batch_rows_mean": "count",
    "serving.server_init_s": "s",
    "serving.submit_self_s": "s",
    "serving.admit_s": "s",
    "serving.admitted": "count",
    "serving.tick_self_s": "s",
    "serving.queue_depth_mean": "count",
    "serving.ticks": "count",
    "serving.tick_p95_ms": "ms",
    "faults.gates_s": "s",
    "faults.inject_s": "s",
    "faults.mute_block_frac": "fraction",
    "trace.wall_s": "s",
    "trace.coverage": "fraction",
    "trace.host_factor": "ratio",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(tracer, wall_s, host_factor):
    """The span-derived per-layer metrics of one traced pass.

    Every time is a self time in reference seconds (wall seconds over
    ``host_factor``), so together they add up to the covered part of
    ``trace.wall_s``.
    """
    times, covered = tracer.layer_times()
    counts = tracer.counts

    def self_s(name):
        return times[name][1] / host_factor

    def calls(name):
        return times[name][0]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "acoustics.rir_build_s": self_s("acoustics.rir_build"),
        "acoustics.channel_apply_s": self_s("acoustics.channel_apply"),
        "acoustics.channel_calls": calls("acoustics.channel_apply"),
        "wireless.relay_calibrate_s": self_s("wireless.relay_calibrate"),
        "wireless.relay_forward_s": self_s("wireless.relay_forward"),
        "wireless.relay_audio_s": counts["wireless.relay_audio_s"],
        "core.construct_self_s": self_s("core.construct"),
        "core.secondary_probe_s": self_s("core.secondary_probe"),
        "core.prepare_self_s": self_s("core.prepare"),
        "core.run_self_s": self_s("core.run"),
        "core.forward_self_s": self_s("core.forward_ear"),
        "core.relay_select_s": self_s("core.relay_select"),
        "kernels.lanc_run_s": self_s("kernels.lanc_run"),
        "kernels.samples": counts["kernels.samples"],
        "kernels.batch_s": self_s("kernels.batch"),
        "kernels.batch_calls": calls("kernels.batch"),
        "kernels.batch_rows_mean": ratio(counts["kernels.batch_rows"],
                                         calls("kernels.batch")),
        "serving.server_init_s": self_s("serving.server_init"),
        "serving.submit_self_s": self_s("serving.submit"),
        "serving.admit_s": self_s("serving.admit"),
        "serving.admitted": counts["serving.admitted"],
        "serving.tick_self_s": self_s("serving.tick"),
        "serving.queue_depth_mean": ratio(counts["serving.queue_depth_sum"],
                                          counts["serving.admit_calls"]),
        "faults.gates_s": self_s("faults.gates"),
        "faults.inject_s": self_s("faults.inject"),
        "faults.mute_block_frac": ratio(counts["faults.mute_blocks"],
                                        calls("faults.gates")),
        "trace.wall_s": wall_s / host_factor,
        "trace.coverage": covered / wall_s if wall_s > 0 else 0.0,
        "trace.host_factor": host_factor,
    }
