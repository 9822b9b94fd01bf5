"""AM baseline and RF channel impairments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.signals import Tone
from repro.utils.units import snr_db
from repro.wireless import (
    AmDemodulator,
    AmModulator,
    FmDemodulator,
    FmModulator,
    RfChannel,
    RfChannelConfig,
    pa_nonlinearity,
)
from tests.reference import modulation


def _fit_and_snr(reference, recovered, margin=400):
    """SNR after removing any flat gain (AM recovery scale is nominal)."""
    r = reference[margin:-margin]
    y = recovered[margin: reference.size - margin]
    scale = np.dot(y, r) / np.dot(r, r)
    return snr_db(r, y - scale * r)


class TestAmRoundTrip:
    def test_clean_channel(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        am, dem = AmModulator(), AmDemodulator()
        out = dem.demodulate(am.modulate(tone))
        assert _fit_and_snr(tone, out) > 30.0

    def test_rejects_zero_index(self):
        with pytest.raises(ConfigurationError):
            AmModulator(modulation_index=0.0)


class TestPaNonlinearity:
    def test_compresses_envelope_peaks(self):
        rng = np.random.default_rng(0)
        bb = (rng.standard_normal(4096)
              + 1j * rng.standard_normal(4096))
        out = pa_nonlinearity(bb, backoff_db=1.0)
        assert np.max(np.abs(out)) < np.max(np.abs(bb))

    def test_preserves_phase(self):
        bb = np.exp(1j * np.linspace(0, 20, 1000)) * \
            np.linspace(0.1, 3.0, 1000)
        out = pa_nonlinearity(bb, backoff_db=3.0)
        np.testing.assert_allclose(np.angle(out), np.angle(bb), atol=1e-9)

    def test_constant_envelope_nearly_untouched(self):
        # FM's whole argument: |x| constant → tanh is just a fixed gain.
        bb = np.exp(1j * np.linspace(0, 50, 2000))
        out = pa_nonlinearity(bb, backoff_db=1.0)
        ratio = np.abs(out) / np.abs(bb)
        assert np.ptp(ratio) < 1e-9


class TestFmBeatsAmUnderImpairments:
    def test_fm_advantage(self):
        """The paper's 'Why FM?' — quantified."""
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        channel = RfChannel(RfChannelConfig(snr_db=25.0, cfo_hz=2000.0,
                                            pa_backoff_db=1.0, seed=3),
                            rf_rate=96000.0)
        fm_out = FmDemodulator().demodulate(
            channel.apply(FmModulator().modulate(tone)))
        am_out = AmDemodulator().demodulate(
            channel.apply(AmModulator().modulate(tone)))
        fm_snr = _fit_and_snr(tone, fm_out)
        am_snr = _fit_and_snr(tone, am_out)
        assert fm_snr > am_snr + 10.0


class TestRfChannel:
    def test_awgn_snr_level(self):
        rng = np.random.default_rng(1)
        bb = np.exp(1j * rng.uniform(0, 2 * np.pi, 65536))
        out = RfChannel(RfChannelConfig(snr_db=20.0, seed=2)).apply(bb)
        noise = out - bb
        measured = 10 * np.log10(np.mean(np.abs(bb) ** 2)
                                 / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(20.0, abs=0.5)

    def test_flat_gain(self):
        bb = np.ones(128, dtype=complex)
        out = RfChannel(RfChannelConfig(snr_db=float("inf"), gain_db=-6.0)) \
            .apply(bb)
        assert np.abs(out[0]) == pytest.approx(10 ** (-6 / 20), abs=1e-9)

    def test_phase_rotation(self):
        bb = np.ones(16, dtype=complex)
        out = RfChannel(RfChannelConfig(snr_db=float("inf"),
                                        phase_rad=np.pi / 2)).apply(bb)
        assert np.angle(out[0]) == pytest.approx(np.pi / 2)

    def test_cfo_rotates_over_time(self):
        bb = np.ones(96000, dtype=complex)
        out = RfChannel(RfChannelConfig(snr_db=float("inf"), cfo_hz=1000.0),
                        rf_rate=96000.0).apply(bb)
        # After 1/4000 s the phase should be 2π·1000/4000 = π/2.
        idx = 96000 // 4000
        assert np.angle(out[idx]) == pytest.approx(np.pi / 2, abs=1e-6)

    def test_rejects_bad_backoff(self):
        with pytest.raises(ConfigurationError):
            RfChannelConfig(pa_backoff_db=0.0)


class TestRfChannelAgainstOracle:
    """In-place ``RfChannel.apply`` vs the out-of-place textbook chain."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([1, 2, 3, 17, 1000, 65535, 65537, 70000]),
           real_input=st.booleans(),
           level=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
           snr_db=st.sampled_from([float("inf"), -5.0, 0.0, 25.0, 40.5]),
           cfo_hz=st.sampled_from([0.0, 123.4, -3000.0]),
           gain_db=st.sampled_from([0.0, -3.0, 6.2]),
           phase_rad=st.sampled_from([0.0, 1.1]),
           pa_backoff_db=st.sampled_from([None, 1.0, 3.0]),
           rf_rate=st.sampled_from([40000.0, 48000.0, 96000.0]),
           seed=st.integers(min_value=0, max_value=1000))
    def test_bit_identical(self, size, real_input, level, snr_db, cfo_hz,
                           gain_db, phase_rad, pa_backoff_db, rf_rate, seed):
        rng = np.random.default_rng(seed)
        bb = level * rng.standard_normal(size)
        if not real_input:
            bb = bb + 1j * level * rng.standard_normal(size)
        channel = RfChannel(RfChannelConfig(
            snr_db=snr_db, cfo_hz=cfo_hz, gain_db=gain_db,
            phase_rad=phase_rad, pa_backoff_db=pa_backoff_db, seed=seed),
            rf_rate=rf_rate)
        assert np.array_equal(channel.apply(bb),
                              modulation.rf_channel_apply(channel, bb))

    def test_pa_nonlinearity_bit_identical(self):
        rng = np.random.default_rng(5)
        bb = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        for backoff_db in (1.0, 3.0):
            assert np.array_equal(
                pa_nonlinearity(bb, backoff_db),
                modulation.pa_nonlinearity(bb, backoff_db))

    def test_input_is_not_modified(self):
        bb = np.exp(1j * np.linspace(0.0, 9.0, 300))
        before = bb.copy()
        RfChannel(RfChannelConfig(cfo_hz=50.0, pa_backoff_db=2.0)).apply(bb)
        assert np.array_equal(bb, before)
