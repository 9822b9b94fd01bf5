"""FM modulation/demodulation chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.errors import ConfigurationError
from repro.signals import Tone, WhiteNoise
from repro.utils.units import snr_db
from repro.wireless import (AmDemodulator, AmModulator, FmDemodulator,
                            FmModulator, resample)
from repro.wireless.fm import _polyphase_design, butter_sos, rational_ratio
from tests.reference import modulation


def _roundtrip_snr(audio, **kwargs):
    mod = FmModulator(**kwargs)
    dem = FmDemodulator(**kwargs)
    recovered = dem.demodulate(mod.modulate(audio))
    margin = 400
    clean = audio[margin: audio.size - margin]
    error = recovered[margin: audio.size - margin] - clean
    return snr_db(clean, error)


class TestResample:
    def test_identity(self):
        x = np.arange(10, dtype=float)
        np.testing.assert_array_equal(resample(x, 8000, 8000), x)

    def test_ratio(self):
        x = np.zeros(800)
        assert resample(x, 8000, 96000).size == 9600

    def test_roundtrip_preserves_content(self):
        x = Tone(440.0, level_rms=0.3).generate(0.5)
        back = resample(resample(x, 8000, 96000), 96000, 8000)
        margin = 100
        assert snr_db(x[margin:-margin],
                      back[margin: x.size - margin] - x[margin:-margin]) > 40

    def test_exact_rational_non_integer_rates_work(self):
        # 8000.5 -> 96000 is the exact rational 192000/16001; the
        # Fraction-based reduction must accept it (it used to raise).
        up, down = rational_ratio(8000.5, 96000)
        assert (up, down) == (192000, 16001)
        out = resample(np.zeros(16001), 8000.5, 96000)
        assert out.size == 192000

    def test_rejects_irrational_rate_ratio(self):
        with pytest.raises(ConfigurationError):
            resample(np.zeros(10), 8000.0, 8000.0 * np.sqrt(2.0))

    def test_integer_pair_reduces_by_gcd(self):
        assert rational_ratio(8000, 96000) == (12, 1)
        assert rational_ratio(44100, 8000) == (80, 441)

    def test_cached_window_bit_identical_to_default(self):
        # The cached design is exactly the one resample_poly builds by
        # default (scipy scales a passed window by `up` itself).
        x = WhiteNoise(seed=3, level_rms=0.3).generate(0.25)
        for up, down in ((12, 1), (1, 12), (80, 441)):
            window = _polyphase_design(up, down) / up
            np.testing.assert_array_equal(
                sps.resample_poly(x, up, down, window=window),
                sps.resample_poly(x, up, down))

    def test_design_cache_is_read_only(self):
        assert not _polyphase_design(12, 1).flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(min_value=0, max_value=3000),
           rates=st.sampled_from([
               (8000, 96000), (96000, 8000), (8000, 48000), (48000, 8000),
               (44100, 96000), (96000, 44100), (44100, 8000),
               (8000, 44100), (44100, 48000), (48000, 44100), (2, 3),
               (3, 2), (7, 5), (5, 7), (8000.5, 16001), (16001, 8000.5),
               (8000.5, 12000), (12000, 8000.5)]),
           seed=st.integers(min_value=0, max_value=1000))
    def test_matches_oracle(self, size, rates, seed):
        # Every exact-rational pair, integer or not, up or down, and
        # lengths from empty to several filter spans.
        x = np.random.default_rng(seed).standard_normal(size)
        got = resample(x, *rates)
        want = modulation.resample(x, *rates)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_large_coprime_pair_matches_oracle(self):
        # 8000.5 -> 96000 is 192000/16001: the phases are split into
        # several slabs.
        x = np.random.default_rng(4).standard_normal(300)
        np.testing.assert_allclose(resample(x, 8000.5, 96000),
                                   modulation.resample(x, 8000.5, 96000),
                                   atol=1e-10, rtol=0)


class TestButterSos:
    def test_bit_identical_to_scipy_design(self):
        for order, cutoff, btype in ((4, 0.95, "lowpass"),
                                     (6, 1.0 / 12.0, "lowpass"),
                                     (4, 0.1, "highpass")):
            np.testing.assert_array_equal(
                butter_sos(order, cutoff, btype),
                sps.butter(order, cutoff, btype=btype, output="sos"))

    def test_callers_get_private_writeable_copies(self):
        a, b = butter_sos(4, 0.5), butter_sos(4, 0.5)
        assert a is not b and a.flags.writeable
        a[0, 0] = 123.0
        assert butter_sos(4, 0.5)[0, 0] != 123.0


class TestFmModulator:
    def test_constant_envelope(self):
        mod = FmModulator(amplitude=2.0)
        bb = mod.modulate(WhiteNoise(seed=0, level_rms=0.2).generate(0.2))
        np.testing.assert_allclose(np.abs(bb), 2.0, atol=1e-9)

    def test_carson_bandwidth_guard(self):
        with pytest.raises(ConfigurationError):
            FmModulator(rf_rate=16000.0, deviation_hz=12000.0)

    def test_occupied_bandwidth(self):
        mod = FmModulator(deviation_hz=12000.0, audio_rate=8000.0)
        assert mod.occupied_bandwidth_hz == pytest.approx(32000.0)


class TestRoundTrip:
    def test_tone_high_snr(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        assert _roundtrip_snr(tone) > 40.0

    def test_white_noise_reasonable_snr(self):
        noise = WhiteNoise(seed=1, level_rms=0.2).generate(0.5)
        # Band-edge rolloff limits raw SNR for full-band noise.
        assert _roundtrip_snr(noise) > 5.0

    def test_dc_removed(self):
        tone = Tone(300.0, level_rms=0.2).generate(0.5)
        mod, dem = FmModulator(), FmDemodulator()
        out = dem.demodulate(mod.modulate(tone))
        assert abs(np.mean(out)) < 1e-9

    def test_cfo_becomes_dc_and_is_removed(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        mod, dem = FmModulator(), FmDemodulator()
        bb = mod.modulate(tone)
        t = np.arange(bb.size) / 96000.0
        shifted = bb * np.exp(2j * np.pi * 3000.0 * t)   # 3 kHz CFO
        out = dem.demodulate(shifted)
        margin = 400
        err = out[margin: tone.size - margin] - tone[margin:-margin]
        assert snr_db(tone[margin:-margin], err) > 35.0

    def test_no_dc_removal_keeps_cfo_offset(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        mod = FmModulator()
        dem = FmDemodulator(remove_dc=False)
        bb = mod.modulate(tone)
        t = np.arange(bb.size) / 96000.0
        out = dem.demodulate(bb * np.exp(2j * np.pi * 3000.0 * t))
        # CFO of 3 kHz over a 12 kHz deviation → DC offset of 0.25.
        assert np.mean(out[400:-400]) == pytest.approx(0.25, abs=0.02)


class TestFastSlowEquivalence:
    """The in-place mod/demod arithmetic vs the textbook oracles.

    ``tests/reference/modulation.py`` keeps the formulations the
    in-place arithmetic replaced (docs/PERFORMANCE.md); the two must
    agree to the library-wide 1e-10 envelope.
    """

    TOL = 1e-10

    def _noise(self, seed):
        return WhiteNoise(seed=seed, level_rms=0.2).generate(0.25)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_fm_roundtrip(self, seed):
        audio = self._noise(seed)
        mod, dem = FmModulator(), FmDemodulator()
        slow = modulation.fm_demodulate(
            dem, modulation.fm_modulate(mod, audio))
        fast = dem.demodulate(mod.modulate(audio))
        np.testing.assert_allclose(fast, slow, atol=self.TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_fm_modulate(self, seed):
        mod = FmModulator(amplitude=0.7)
        audio = self._noise(seed)
        np.testing.assert_allclose(mod.modulate(audio),
                                   modulation.fm_modulate(mod, audio),
                                   atol=self.TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_am_roundtrip(self, seed):
        audio = self._noise(seed)
        mod, dem = AmModulator(), AmDemodulator()
        slow = modulation.am_demodulate(
            dem, modulation.am_modulate(mod, audio))
        fast = dem.demodulate(mod.modulate(audio))
        np.testing.assert_allclose(fast, slow, atol=self.TOL, rtol=0)
