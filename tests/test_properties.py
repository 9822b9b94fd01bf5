"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.acoustics.propagation import apply_delay, fractional_delay_filter
from repro.core.relay_selection import gcc_phat
from repro.hardware import quantize
from repro.signals import normalize_rms
from repro.utils.spectral import band_energy_signature
from repro.utils.units import (
    amplitude_to_db,
    db_to_amplitude,
    db_to_power,
    power_to_db,
)

finite_db = st.floats(min_value=-100.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)

waveforms = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=64, max_value=512),
    elements=st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False),
)


class TestUnitRoundtrips:
    @given(finite_db)
    def test_power_roundtrip(self, db):
        assert power_to_db(db_to_power(db)) == pytest.approx(db, abs=1e-6)

    @given(finite_db)
    def test_amplitude_roundtrip(self, db):
        assert amplitude_to_db(db_to_amplitude(db)) == pytest.approx(
            db, abs=1e-6)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_power_db_monotone(self, power):
        assert power_to_db(power * 2.0) > power_to_db(power)


class TestNormalizeRms:
    @given(waveforms, st.floats(min_value=1e-3, max_value=10.0))
    def test_target_reached(self, x, target):
        assume(np.sqrt(np.mean(x ** 2)) > 1e-9)
        y = normalize_rms(x, target)
        assert np.sqrt(np.mean(y ** 2)) == pytest.approx(target, rel=1e-6)

    @given(waveforms)
    def test_silence_stays_silent(self, x):
        zeros = np.zeros_like(x)
        np.testing.assert_array_equal(normalize_rms(zeros, 1.0), zeros)


class TestQuantizeProperties:
    @given(waveforms, st.integers(min_value=2, max_value=16))
    def test_idempotent(self, x, bits):
        once = quantize(x, bits, full_scale=16.0)
        twice = quantize(once, bits, full_scale=16.0)
        np.testing.assert_array_equal(once, twice)

    @given(waveforms, st.integers(min_value=4, max_value=16))
    def test_error_bounded_by_half_step(self, x, bits):
        full_scale = 16.0
        step = full_scale / (2 ** (bits - 1))
        q = quantize(x, bits, full_scale=full_scale)
        np.testing.assert_array_less(np.abs(q - x), step / 2 + 1e-12)


class TestSignatureProperties:
    @given(waveforms)
    def test_sums_to_one(self, x):
        sig = band_energy_signature(x, 8000.0, n_bands=8)
        assert np.sum(sig) == pytest.approx(1.0, abs=1e-9)
        assert np.all(sig >= 0.0)

    @given(waveforms, st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariant(self, x, gain):
        # A DC-only signal has no AC spectrum (Welch detrends the mean);
        # its signature is numerically degenerate, so require variation.
        assume(np.std(x) > 1e-6)
        a = band_energy_signature(x, 8000.0, n_bands=8)
        b = band_energy_signature(gain * x, 8000.0, n_bands=8)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestGccPhatProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=100))
    def test_recovers_injected_shift(self, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(4000)
        ear = np.zeros_like(x)
        ear[shift:] = x[:-shift]
        lags, corr = gcc_phat(x, ear, 8000.0, max_lag_s=0.02)
        peak = lags[np.argmax(corr)] * 8000.0
        assert peak == pytest.approx(shift, abs=1.0)


class TestFractionalDelayProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=8.0, max_value=40.0))
    def test_dc_gain_unity(self, delay):
        taps = fractional_delay_filter(delay)
        assert taps.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=8.0, max_value=30.0),
           st.integers(min_value=0, max_value=50))
    def test_energy_preserved_for_noise(self, delay, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2048)
        y = apply_delay(x, delay)
        # Steady-state energy is preserved (allowing edge loss).
        assert np.sum(y ** 2) == pytest.approx(np.sum(x ** 2), rel=0.1)
