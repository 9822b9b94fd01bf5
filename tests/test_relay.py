"""The analog relay end-to-end, and the link budget."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.errors import ConfigurationError
from repro.signals import MaleVoice, WhiteNoise
from repro.wireless import (
    AnalogRelay,
    IdealRelay,
    RfChannel,
    RfChannelConfig,
    band_occupancy_fraction,
    free_space_path_loss_db,
    received_snr_db,
    thermal_noise_dbm,
)
from tests.reference import reference_signal_path


class TestIdealRelay:
    def test_passthrough(self):
        x = WhiteNoise(seed=0, level_rms=0.1).generate(0.2)
        out = IdealRelay().forward(x)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_mic_noise_added(self):
        x = np.zeros(1000)
        out = IdealRelay(mic_noise_rms=0.1, seed=1).forward(x)
        assert np.sqrt(np.mean(out ** 2)) == pytest.approx(0.1, rel=0.1)

    def test_zero_latency(self):
        assert IdealRelay().latency_samples == 0


class TestAnalogRelay:
    @pytest.fixture(scope="class")
    def relay(self):
        return AnalogRelay(seed=3)

    def test_latency_under_one_ms(self, relay):
        assert 0.0 <= relay.latency_samples < 8.0   # < 1 ms at 8 kHz

    def test_output_length_matches(self, relay):
        x = WhiteNoise(seed=4, level_rms=0.2).generate(0.5)
        assert relay.forward(x).size == x.size

    def test_coherent_snr_clean_link(self, relay):
        x = WhiteNoise(seed=5, level_rms=0.2).generate(1.0)
        assert relay.audio_snr_db(x) > 30.0

    def test_voice_forwarding(self, relay):
        v = MaleVoice(seed=7, level_rms=0.2).generate(1.0)
        assert relay.audio_snr_db(v) > 25.0

    def test_degrades_with_rf_noise(self):
        x = WhiteNoise(seed=5, level_rms=0.2).generate(1.0)
        clean = AnalogRelay(seed=3)
        noisy = AnalogRelay(seed=3, channel_config=RfChannelConfig(
            snr_db=5.0, seed=9))
        assert noisy.audio_snr_db(x) < clean.audio_snr_db(x) - 10.0

    def test_cfo_tolerated(self):
        x = WhiteNoise(seed=5, level_rms=0.2).generate(1.0)
        relay = AnalogRelay(seed=3, channel_config=RfChannelConfig(
            snr_db=40.0, cfo_hz=4000.0, seed=9))
        assert relay.audio_snr_db(x) > 25.0

    def test_forward_is_linear_in_level(self):
        x = WhiteNoise(seed=6, level_rms=0.05).generate(0.5)
        relay = AnalogRelay(seed=3, mic_noise_rms=0.0,
                            channel_config=RfChannelConfig(
                                snr_db=float("inf"), seed=0))
        a = relay.forward(x)
        b = relay.forward(2.0 * x)
        margin = 200
        np.testing.assert_allclose(b[margin:-margin], 2 * a[margin:-margin],
                                   atol=5e-3)

    def test_zero_cutoff_rejected(self):
        # 0 Hz is an explicit (invalid) cutoff, not "use the default".
        with pytest.raises(ConfigurationError):
            AnalogRelay(lpf_cutoff_hz=0.0)
        with pytest.raises(ConfigurationError):
            AnalogRelay(lpf_cutoff_hz=-100.0)


def _sha256(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


class TestPinnedRelayDigests:
    """At ``rf_rate`` 96 kHz the noise-density scale is exactly 1.0, so
    the channel and the relay reproduce, bit for bit, the outputs they
    gave when ``snr_db`` was a per-sample SNR.  These literals must
    never move."""

    @pytest.mark.parametrize("config, digest", [
        (RfChannelConfig(seed=11),
         "59fe2366dc453b92c6a85de311f11b3b525d020373ba51ca980853cd1522ab12"),
        (RfChannelConfig(snr_db=25.0, cfo_hz=123.4, gain_db=-3.0,
                         phase_rad=1.1, pa_backoff_db=3.0, seed=11),
         "41794795f362d583c505b0bd6be0183278a6e1645a7054ab397c4a7605bdf2f5"),
    ])
    def test_rf_channel_apply(self, config, digest):
        rng = np.random.default_rng(7)
        bb = rng.standard_normal(70000) + 1j * rng.standard_normal(70000)
        assert _sha256(RfChannel(config, rf_rate=96000.0).apply(bb)) == digest

    @pytest.mark.parametrize("config, digest", [
        (None,
         "785645e3b7323587f394dbe7e5edc12072ae1c6909146824caa2c64793c716bd"),
        (RfChannelConfig(snr_db=20.0, cfo_hz=1500.0, seed=9),
         "46c8d5a9ec9eaa472eb9efc76d794bf22df28a10166d84d183866f835178dfd8"),
    ])
    def test_analog_relay_forward(self, config, digest):
        audio = WhiteNoise(seed=5, level_rms=0.2).generate(0.5)
        relay = AnalogRelay(rf_rate=96000.0, seed=3, channel_config=config)
        assert _sha256(relay.forward(audio)) == digest


class TestRfRateOnlySetsFidelity:
    """``snr_db`` fixes the noise density, so the audio SNR a link
    delivers does not depend on the rate it is simulated at, for any
    rate above the 32 kHz Carson bandwidth."""

    RATES = (40000.0, 48000.0, 64000.0, 96000.0)

    @staticmethod
    def _audio_snr_db(audio, rf_rate, snr_db, seed):
        """Post-demodulation SNR against a noise-free chain at the same
        rate (one relay, so both share its calibrated alignment)."""
        relay = AnalogRelay(rf_rate=rf_rate, mic_noise_rms=0.0,
                            channel_config=RfChannelConfig(
                                snr_db=float("inf")))
        clean = relay.forward(audio)
        relay.channel = RfChannel(RfChannelConfig(snr_db=snr_db, seed=seed),
                                  rf_rate=rf_rate)
        error = relay.forward(audio) - clean
        return 10.0 * np.log10(np.sum(clean ** 2) / np.sum(error ** 2))

    @settings(max_examples=6, deadline=None)
    @given(snr_db=st.floats(min_value=10.0, max_value=50.0),
           seed=st.integers(min_value=0, max_value=100))
    def test_audio_snr_independent_of_rf_rate(self, snr_db, seed):
        audio = WhiteNoise(seed=seed, level_rms=0.2).generate(1.0)
        snrs = [self._audio_snr_db(audio, rate, snr_db, seed)
                for rate in self.RATES]
        assert max(snrs) - min(snrs) <= 0.5, dict(zip(self.RATES, snrs))


class TestDiscriminatorHeadroom:
    """The discriminator wraps once the phase step ``2π|m|·Δf/rf_rate``
    reaches π: at the default 40 kHz and 12 kHz deviation that is
    |m| ≥ 1.67, so full-scale audio still fits."""

    @staticmethod
    def _chirp_correlation(relay, amplitude):
        t = np.arange(int(relay.audio_rate * 0.5)) / relay.audio_rate
        chirp = amplitude * sps.chirp(t, f0=100.0, f1=3000.0, t1=t[-1])
        return np.corrcoef(chirp, relay.forward(chirp))[0, 1]

    def test_default_relay_forwards_full_scale_chirp(self):
        relay = AnalogRelay(seed=3)
        assert relay.rf_rate == 40000.0
        assert self._chirp_correlation(relay, 1.0) >= 0.99

    def test_wraps_past_the_headroom(self):
        # ±2 wraps at 40 kHz but fits the 96 kHz headroom (|m| < 4).
        assert self._chirp_correlation(AnalogRelay(seed=3), 2.0) < 0.5
        assert self._chirp_correlation(
            AnalogRelay(rf_rate=96000.0, seed=3), 2.0) >= 0.99


class TestAnalogRelayAgainstOracles:
    """``forward`` vs the same relay built and run on the oracle chain
    (``resample_poly``, textbook FM, out-of-place RF channel)."""

    @settings(max_examples=8, deadline=None)
    @given(seconds=st.sampled_from([0.05, 0.3, 1.0]),
           cfo_hz=st.sampled_from([0.0, 1500.0]),
           pa_backoff_db=st.sampled_from([None, 2.0]),
           rf_rate=st.sampled_from([40000.0, 48000.0, 96000.0]),
           seed=st.integers(min_value=0, max_value=100))
    def test_forward_matches_oracle_chain(self, seconds, cfo_hz,
                                          pa_backoff_db, rf_rate, seed):
        audio = WhiteNoise(seed=seed, level_rms=0.2).generate(seconds)

        def forwarded():
            relay = AnalogRelay(
                rf_rate=rf_rate, seed=seed,
                channel_config=RfChannelConfig(
                    snr_db=30.0, cfo_hz=cfo_hz,
                    pa_backoff_db=pa_backoff_db, seed=seed))
            return relay.latency_samples, relay.forward(audio)

        lag, got = forwarded()
        with reference_signal_path():
            oracle_lag, want = forwarded()
        assert abs(lag - oracle_lag) <= 1e-10
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


class TestLinkBudget:
    def test_fspl_grows_with_distance(self):
        assert (free_space_path_loss_db(10.0)
                > free_space_path_loss_db(1.0) + 19.0)

    def test_fspl_reference_value(self):
        # ~31.7 dB at 1 m, 915 MHz.
        assert free_space_path_loss_db(1.0) == pytest.approx(31.7, abs=0.5)

    def test_thermal_noise(self):
        # kTB for 30 kHz ≈ -129 dBm; +6 dB NF.
        assert thermal_noise_dbm(30e3) == pytest.approx(-123.0, abs=1.0)

    def test_indoor_snr_is_huge(self):
        assert received_snr_db(0.0, 3.0, 32000.0) > 60.0

    def test_band_occupancy_small(self):
        # Paper §6: a few relays occupy a tiny fraction of the ISM band.
        assert band_occupancy_fraction(32000.0, n_relays=4) < 0.01

    def test_occupancy_scales_with_relays(self):
        one = band_occupancy_fraction(32000.0, 1)
        four = band_occupancy_fraction(32000.0, 4)
        assert four == pytest.approx(4 * one)
