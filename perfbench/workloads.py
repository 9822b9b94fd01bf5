"""The benchmark's three workloads, built from a seed through the public API.

Each workload owns its inputs (generated here from ``--seed``; the
program only ever receives them), a cold-cache ``setup`` and a ``round``
of operations whose outputs are digested and checked.  A round sets up
afresh (timed as set-up, not as operations), so set-up samples spread
over the whole run.  Every round of a
run processes the same inputs, so every round must produce the same
digests; the harness enforces that, and compares traced with untraced
digests the same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from repro import serving
from repro.core.relay_selection import RelaySelector
from repro.core.system import MuteConfig, MuteSystem
from repro.eval.experiments.common import bench_scenario, default_config
from repro.eval.experiments.fig19_relay_map import (
    default_source_positions,
    relay_map_scenario,
)
from repro.faults.events import outage_plan
from repro.runtime.cache import get_channel_cache
from repro.wireless.relay import AnalogRelay

SAMPLE_RATE = 8000.0

#: Source level of every generated noise input (the paper's ~67 dB SPL).
NOISE_RMS = 0.1

#: The paper's MUTE_Hollow cancellation for white noise with an open
#: ear, as attenuation (dB below the open-ear level).  A fig12_fm run
#: that attenuates less has lost the paper's result.
MUTE_HOLLOW_DB = 14.0


def digest(*arrays):
    """SHA-256 over the float64 bytes of ``arrays`` (bit-identity probe)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def cold_cache():
    """Start set-up from an empty channel cache, as a fresh process does."""
    get_channel_cache().clear()


@dataclasses.dataclass
class Round:
    """Outputs and checks of one round of operations."""

    digests: dict      #: operation id -> output digest
    quality_db: float  #: the workload's quality figure (higher is better)
    failures: dict = dataclasses.field(default_factory=dict)  #: id -> why

    @property
    def attempted(self):
        return len(self.digests)


class Fig12Fm:
    """Single-device batch job: construct the FM system, then ``run()``."""

    name = "fig12_fm"
    #: Per-layer metrics the layer map predicts to be zero here.
    zero_layers = ("kernels.batch_s", "core.relay_select_s",
                   "serving.tick_self_s", "faults.gates_s")
    #: Rounds of the traced pass (fixed, so its counts repeat exactly).
    trace_rounds = 2

    def __init__(self, seed, tiny=False):
        self.seed = seed
        # 4 s, as in the pipeline benchmark: long enough to converge past
        # the MUTE_Hollow level, short enough for ~10 jobs per run.
        duration_s = 3.0 if tiny else 4.0
        rng = np.random.default_rng([seed, 12])
        self.noise = NOISE_RMS * rng.standard_normal(
            int(duration_s * SAMPLE_RATE))

    def setup(self):
        cold_cache()
        relay = AnalogRelay(audio_rate=SAMPLE_RATE, seed=self.seed)
        return MuteSystem(bench_scenario(sample_rate=SAMPLE_RATE),
                          default_config(relay=relay, seed=self.seed))

    def round(self, clock):
        # The operation is a whole job, construction included; its
        # construction is also one set-up sample.
        result = clock.op(lambda: clock.setup(self.setup).run(self.noise))
        clock.credit(result.residual.size / SAMPLE_RATE)
        return self.check(result)

    def check(self, result):
        """Digest and check one run: finite, and cancelling like the paper."""
        residual = result.residual
        out = Round(digests={"residual": digest(residual)}, quality_db=0.0)
        if not np.all(np.isfinite(residual)):
            out.failures["residual"] = "residual is not finite"
            return out
        out.quality_db = -result.mean_cancellation_db(f_high=1000.0)
        if not out.quality_db >= MUTE_HOLLOW_DB:
            out.failures["residual"] = (
                f"attenuation {out.quality_db:.2f} dB below 1 kHz is short "
                f"of the MUTE_Hollow {MUTE_HOLLOW_DB:.0f} dB")
        return out

    def final_check(self, first):
        return 0, {}


class ServeMix:
    """Closed loop: one caller ticks a batched server until it drains."""

    name = "serve_mix"
    zero_layers = ("wireless.relay_forward_s", "wireless.relay_calibrate_s",
                   "acoustics.rir_build_s", "acoustics.channel_apply_s",
                   "core.secondary_probe_s", "kernels.lanc_run_s")
    trace_rounds = 1

    def __init__(self, seed, tiny=False):
        if tiny:
            n, lo, hi = 8, 0.5, 1.0
            self.config = serving.ServerConfig(max_sessions=4)
        else:
            # Four times the default 64 slots, so the batch fills, shrinks
            # and refills; with 1-3 s sessions about 70% of ticks run a
            # full batch, which keeps the median tick on that plateau
            # rather than on the drain's slope.
            n, lo, hi = 256, 1.0, 3.0
            self.config = serving.ServerConfig()
        rng = np.random.default_rng([seed, 2])
        # Stratified lengths: every seed spans [lo, hi) evenly, so the
        # work per round barely depends on the seed.
        durations = lo + (hi - lo) * (rng.permutation(n)
                                      + rng.uniform(size=n)) / n
        faulted = set(rng.permutation(n)[: n // 4].tolist())
        self.workloads = []
        for i, duration in enumerate(durations):
            size = int(duration * SAMPLE_RATE)
            x = 2 * NOISE_RMS * rng.standard_normal(size)
            delay = int(rng.integers(4, 25))
            d = np.zeros(size)
            d[delay:] = rng.uniform(0.3, 0.7) * x[: size - delay]
            fraction, center = rng.uniform(0.1, 0.3), rng.uniform(0.3, 0.7)
            plan = (outage_plan(float(duration), float(fraction),
                                center=float(center), seed=i)
                    if i in faulted else None)
            self.workloads.append(serving.SessionWorkload(
                name=f"session{i:03d}", reference=x, disturbance=d,
                fault_plan=plan))
        # Seed-chosen sessions re-run unbatched, faulted and clean alike.
        k = max(1, len(faulted) // 8)
        clean = sorted(set(range(n)) - faulted)
        self.serial_subset = sorted(
            rng.choice(sorted(faulted), k, replace=False).tolist()
            + rng.choice(clean, k, replace=False).tolist())

    def _server(self, config, indices):
        server = serving.SessionServer(config)
        for i in indices:
            server.submit(self.workloads[i])
        return server

    def setup(self):
        cold_cache()
        return self._server(self.config, range(len(self.workloads)))

    def round(self, clock):
        server = clock.setup(self.setup)
        block_s = self.config.block_size / SAMPLE_RATE
        while server.manager.pending or server.active:
            served = server.session_blocks
            clock.op(server.tick)
            clock.credit((server.session_blocks - served) * block_s)
        results = [s.result() for s in server.finished]
        out = Round(digests={r.name: r.digest() for r in results},
                    quality_db=float(np.mean(
                        [r.cancellation_db() for r in results])))
        for r in results:
            if r.status != serving.DONE:
                out.failures[r.name] = f"ended {r.status}: {r.error}"
        for w in self.workloads:
            if w.name not in out.digests:
                out.digests[w.name] = None
                out.failures[w.name] = "never finished"
        return out

    def final_check(self, first):
        """The seed-chosen subset, served with ``batched=False``, must
        reproduce the batched digests bit for bit."""
        config = dataclasses.replace(self.config, batched=False)
        serial = self._server(config, self.serial_subset) \
            .run_until_drained().digests()
        names = [self.workloads[i].name for i in self.serial_subset]
        return len(names), {name: "serial digest differs from batched"
                            for name in names
                            if serial.get(name) != first.digests.get(name)}


def expected_relay(scenario):
    """The relay geometry says should win: largest positive lead, if any."""
    source, client = scenario.source, scenario.client
    best, best_lead = None, 0.0
    for i, relay in enumerate(scenario.relays):
        lead_m = source.distance_to(client) - source.distance_to(relay)
        if lead_m > best_lead:
            best, best_lead = i, lead_m
    return best


class RelayMap:
    """Fig. 19 relay association with FM relays over eight scenes."""

    name = "relay_map"
    zero_layers = ("kernels.lanc_run_s", "kernels.batch_s",
                   "core.secondary_probe_s", "serving.tick_self_s")
    trace_rounds = 2

    def __init__(self, seed, tiny=False):
        self.seed = seed
        duration_s = 1.0 if tiny else 1.5
        rng = np.random.default_rng([seed, 19])
        self.noise = NOISE_RMS * rng.standard_normal(
            int(duration_s * SAMPLE_RATE))
        self.selector = RelaySelector(sample_rate=SAMPLE_RATE,
                                      min_confidence=3.0)

    def setup(self):
        cold_cache()
        base = relay_map_scenario(sample_rate=SAMPLE_RATE)
        scenes = []
        for label, source in default_source_positions().items():
            scenario = base.with_source(source)
            relay = AnalogRelay(audio_rate=SAMPLE_RATE, seed=self.seed)
            config = MuteConfig(relay=relay, probe_secondary=False,
                                seed=self.seed)
            scenes.append((label, scenario, MuteSystem(scenario, config)))
        return scenes

    def _associate(self, system):
        forwarded, ear = system.forwarded_and_ear_signals(self.noise)
        best, measured = self.selector.select(forwarded, ear, max_lag_s=0.02)
        return forwarded, ear, best, measured

    def round(self, clock):
        scenes = clock.setup(self.setup)
        out = Round(digests={}, quality_db=0.0)
        margins = []
        for label, scenario, system in scenes:
            forwarded, ear, best, measured = clock.op(
                lambda: self._associate(system))
            clock.credit(sum(f.size for f in forwarded.values())
                         / SAMPLE_RATE)
            out.digests[label] = digest(ear, *forwarded.values(),
                                        [-1 if best is None else best])
            want = expected_relay(scenario)
            if best != want:
                out.failures[label] = f"selected relay {best}, geometry {want}"
            if best is not None:
                margins.append(20.0 * math.log10(measured[best].confidence))
        out.quality_db = float(np.mean(margins)) if margins else 0.0
        return out

    def final_check(self, first):
        return 0, {}


WORKLOADS = {w.name: w for w in (Fig12Fm, ServeMix, RelayMap)}
