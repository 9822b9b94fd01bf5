"""Failure injection: what breaks gracefully, what must raise.

Fault scenarios are expressed as ``repro.faults`` :class:`FaultPlan`\\ s
injected through :class:`FaultyRelay`, rather than by hand-editing
arrays — the same machinery the ``resilience`` experiment uses.  The
hypothesis properties at the bottom pin the two contracts the fault
layer guarantees: a zero-fault plan is bit-identical to no wrapper at
all, and the degradation controller recovers after *every* outage
window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LancFilter, MuteConfig, MuteSystem, StreamingLanc
from repro.errors import ConfigurationError, LookaheadError
from repro.faults import (
    MODE_MUTE,
    DegradationController,
    FaultPlan,
    FaultyRelay,
    RelayOutage,
    packet_loss_plan,
    wrap_relay,
)
from repro.signals import WhiteNoise
from repro.wireless.digital import DigitalRelay
from repro.wireless.relay import IdealRelay

FS = 8000.0
SECONDARY = np.array([0.0, 1.0])


class TestReferenceDropout:
    """A relay stream that goes silent mid-run (RF fade / mute)."""

    def _scene(self, T=12000, seed=0):
        rng = np.random.default_rng(seed)
        n = rng.standard_normal(T) * 0.1
        delta = 12
        x = np.zeros(T)
        x[delta:] = np.convolve(n, [1.0, 0.5])[:T][:-delta]
        d = np.zeros(T)
        d[delta:] = n[:-delta]
        return x, d

    def _fade(self, x, start_s, stop_s):
        """Reference with an outage window, via the fault layer."""
        plan = FaultPlan(events=(RelayOutage(start_s, stop_s),))
        return FaultyRelay(IdealRelay(mic_noise_rms=0.0), plan,
                           sample_rate=FS).forward(x)

    def test_dropout_degrades_but_recovers(self):
        x, d = self._scene()
        # Kill the reference for 1/8 s in the middle.
        x_faded = self._fade(x, 5000 / FS, 6000 / FS)
        assert np.all(x_faded[5000:6000] == 0.0)
        f = LancFilter(6, 48, SECONDARY, mu=0.3)
        result = f.run(x_faded, d)
        during = np.sqrt(np.mean(result.error[5200:5900] ** 2))
        after = np.sqrt(np.mean(result.error[-2000:] ** 2))
        d_rms = np.sqrt(np.mean(d[5200:5900] ** 2))
        # During the fade the device cannot cancel (error ≈ disturbance)...
        assert during > 0.5 * d_rms
        # ...but recovers once the reference returns.
        assert after < 0.2 * d_rms

    def test_dropout_never_diverges(self):
        x, d = self._scene()
        x = self._fade(x, 4000 / FS, 7000 / FS)
        f = LancFilter(6, 48, SECONDARY, mu=0.5)
        result = f.run(x, d)
        assert np.all(np.isfinite(result.error))


class TestPacketLossThroughAnc:
    def test_loss_costs_cancellation(self):
        """Injected frame loss translates to lost cancellation."""
        rng = np.random.default_rng(3)
        T = 16000
        n = rng.standard_normal(T) * 0.1
        delta = 30
        d = np.zeros(T)
        d[delta:] = n[:-delta]

        clean_relay = DigitalRelay(frame_s=1e-3, codec_delay_s=0.0,
                                   radio_delay_s=0.0, bits=None)

        def run_with(relay):
            forwarded = relay.forward(n)
            lag = relay.latency_samples
            # Align what lookahead remains after the relay's latency.
            shift = delta - lag
            assert shift > 0, "test setup: relay must leave lookahead"
            x = np.zeros(T)
            x[shift + lag:] = forwarded[lag: T - shift]
            f = LancFilter(4, 48, SECONDARY, mu=0.3)
            result = f.run(x, d)
            tail = result.error[-4000:]
            return 10 * np.log10(np.mean(tail ** 2)
                                 / np.mean(d[-4000:] ** 2))

        clean = run_with(clean_relay)
        # Same clean relay, with frame loss injected by the fault layer.
        plan = packet_loss_plan(T / FS, 0.2, frame_s=1e-3, seed=7)
        lossy = run_with(wrap_relay(clean_relay, plan, FS))
        assert lossy > clean + 3.0


class TestStrictFailures:
    """Conditions that must raise, not limp along."""

    def test_streaming_underrun(self):
        f = LancFilter(8, 8, SECONDARY)
        stream = StreamingLanc(f)
        stream.feed(np.zeros(4))
        with pytest.raises(ConfigurationError, match="underrun"):
            stream.process(np.zeros(4))

    def test_negative_lookahead_refused(self, fast_scenario):
        import dataclasses

        swapped = dataclasses.replace(
            fast_scenario,
            client=fast_scenario.relays[0],
            relays=(fast_scenario.client,),
        )
        system = MuteSystem(swapped, MuteConfig(probe_secondary=False))
        with pytest.raises(LookaheadError):
            system.prepare(WhiteNoise(seed=0, level_rms=0.1).generate(0.5))

    def test_nan_reference_rejected(self):
        f = LancFilter(2, 8, SECONDARY)
        bad = np.zeros(100)
        bad[50] = np.nan
        with pytest.raises(Exception):
            f.run(bad, np.zeros(100))


# ---------------------------------------------------------------------------
# Properties of the fault layer
# ---------------------------------------------------------------------------
class TestFaultProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           audio_seed=st.integers(min_value=0, max_value=1000))
    def test_zero_fault_plan_bit_identical_to_no_wrapper(self, seed,
                                                         audio_seed):
        """An empty plan — any seed — never perturbs the relay output."""
        audio = WhiteNoise(sample_rate=FS, level_rms=0.1,
                           seed=audio_seed).generate(0.25)
        relay = IdealRelay(mic_noise_rms=1e-3, seed=9)
        wrapped = FaultyRelay(IdealRelay(mic_noise_rms=1e-3, seed=9),
                              FaultPlan(seed=seed), sample_rate=FS)
        assert np.array_equal(wrapped.forward(audio), relay.forward(audio))

    @settings(max_examples=25, deadline=None)
    @given(windows=st.lists(
        st.tuples(st.floats(min_value=0.1, max_value=0.6),
                  st.floats(min_value=0.01, max_value=0.1)),
        min_size=0, max_size=3))
    def test_controller_recovers_after_every_outage_window(self, windows):
        """Whatever the outage schedule, a healthy tail restores mute."""
        duration_s, block = 1.0, 50
        fs = 1000.0
        events = tuple(RelayOutage(start, min(start + length, 0.72))
                       for start, length in windows)
        plan = FaultPlan(events=events)
        reference = np.full(int(duration_s * fs), 0.1)
        faulted = wrap_relay(IdealRelay(mic_noise_rms=0.0), plan,
                             fs).forward(reference)

        ctrl = DegradationController(LancFilter(4, 16, SECONDARY),
                                     sample_rate=fs)
        for t0 in range(0, faulted.size, block):
            mode = ctrl.observe(faulted[t0:t0 + block], t0)
        # Last window ends by 0.72 s; the 0.28 s healthy tail (5+ blocks)
        # clears the 2-block hysteresis no matter the schedule.
        assert mode == MODE_MUTE
        assert ctrl.recovered
        if events:
            assert plan.outage_fraction(duration_s) > 0.0
