"""Textbook FM/AM, RF channel and resampling formulations: the
relay-chain oracles.

The production modulators (:mod:`repro.wireless.fm`,
:mod:`repro.wireless.am`) and RF channel (:mod:`repro.wireless.rf_channel`)
run their arithmetic in place on buffers they own, and resample as
matrix products with a cached polyphase design.  These are the
formulations they replaced, kept verbatim: full-rate temporaries, an
``np.exp``/``np.angle`` chain, out-of-place impairments with two
whole-block noise draws, and scipy's ``resample_poly`` with its
per-call default design.  Each method stand-in takes the production
object as its first argument and reads only its parameters.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from repro.utils.units import db_to_amplitude
from repro.utils.validation import check_waveform
from repro.wireless.fm import rational_ratio
from repro.wireless.rf_channel import SNR_REFERENCE_BANDWIDTH_HZ

__all__ = ["resample", "fm_modulate", "fm_demodulate", "am_modulate",
           "am_demodulate", "pa_nonlinearity", "rf_channel_apply"]


def resample(signal, rate_in, rate_out):
    """Polyphase resampling with scipy's default, per-call design."""
    if rate_in == rate_out:
        return np.asarray(signal, dtype=np.float64).copy()
    up, down = rational_ratio(rate_in, rate_out)
    return sps.resample_poly(signal, up, down)


def fm_modulate(mod, audio):
    """``FmModulator.modulate``: audio → complex-baseband FM."""
    audio = check_waveform("audio", audio)
    rf_audio = resample(audio, mod.audio_rate, mod.rf_rate)
    phase = (
        2.0 * np.pi * mod.deviation_hz
        * np.cumsum(rf_audio) / mod.rf_rate
    )
    return mod.amplitude * np.exp(1j * phase)


def fm_demodulate(dem, baseband):
    """``FmDemodulator.demodulate``: complex-baseband FM → audio."""
    baseband = check_waveform("baseband", baseband, min_length=2,
                              allow_complex=True)
    product = baseband[1:] * np.conj(baseband[:-1])
    inst_freq = np.angle(product) * dem.rf_rate / (2.0 * np.pi)
    inst_freq = np.concatenate([[inst_freq[0]], inst_freq])
    audio_rf = inst_freq / dem.deviation_hz
    audio_rf = sps.sosfiltfilt(dem._sos, audio_rf)
    audio = resample(audio_rf, dem.rf_rate, dem.audio_rate)
    if dem.remove_dc:
        audio = audio - np.mean(audio)
    return audio


def am_modulate(mod, audio):
    """``AmModulator.modulate``: audio → complex-baseband AM envelope."""
    audio = check_waveform("audio", audio)
    peak = np.max(np.abs(audio))
    normalized = audio / peak if peak > 0 else audio
    rf_audio = resample(normalized, mod.audio_rate, mod.rf_rate)
    rf_audio = np.clip(rf_audio, -1.0, 1.0)
    envelope = 1.0 + mod.modulation_index * rf_audio
    return (mod.amplitude * envelope).astype(np.complex128)


def am_demodulate(dem, baseband):
    """``AmDemodulator.demodulate``: envelope detection → audio."""
    baseband = check_waveform("baseband", baseband, min_length=2,
                              allow_complex=True)
    envelope = np.abs(baseband)
    envelope = envelope - np.mean(envelope)
    envelope = sps.sosfiltfilt(dem._sos, envelope)
    audio = resample(envelope, dem.rf_rate, dem.audio_rate)
    return audio / dem.modulation_index


def pa_nonlinearity(baseband, backoff_db=3.0):
    """Soft-saturating power amplifier: tanh applied to the envelope."""
    baseband = check_waveform("baseband", baseband, allow_complex=True,
                              min_length=1)
    rms = np.sqrt(np.mean(np.abs(baseband) ** 2))
    if rms == 0.0:
        return baseband.copy()
    saturation = rms * db_to_amplitude(backoff_db)
    envelope = np.abs(baseband)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(
            envelope > 0,
            saturation * np.tanh(envelope / saturation) / envelope,
            1.0,
        )
    return baseband * scale


def rf_channel_apply(channel, baseband):
    """``RfChannel.apply``: impairments on a complex-baseband block.

    ``snr_db`` holds over the reference bandwidth, so the noise power is
    scaled by ``rf_rate`` over it: a fixed noise density.
    """
    baseband = check_waveform("baseband", baseband, allow_complex=True,
                              min_length=1)
    cfg = channel.config
    out = baseband.astype(np.complex128, copy=True)

    if cfg.pa_backoff_db is not None:
        out = pa_nonlinearity(out, cfg.pa_backoff_db)

    flat = db_to_amplitude(cfg.gain_db) * np.exp(1j * cfg.phase_rad)
    out = out * flat

    if cfg.cfo_hz != 0.0:
        t = np.arange(out.size) / channel.rf_rate
        out = out * np.exp(2j * np.pi * cfg.cfo_hz * t)

    signal_power = np.mean(np.abs(out) ** 2)
    if np.isfinite(cfg.snr_db) and signal_power > 0:
        noise_power = signal_power / (10.0 ** (cfg.snr_db / 10.0))
        noise_power *= channel.rf_rate / SNR_REFERENCE_BANDWIDTH_HZ
        rng = np.random.default_rng(cfg.seed)
        noise = (
            rng.standard_normal(out.size)
            + 1j * rng.standard_normal(out.size)
        ) * np.sqrt(noise_power / 2.0)
        out = out + noise
    return out
