"""Textbook FM/AM and resampling formulations: the relay-chain oracles.

The production modulators (:mod:`repro.wireless.fm`,
:mod:`repro.wireless.am`) run their arithmetic in place on buffers they
own and resample through a cached polyphase design.  These are the
formulations they replaced, kept verbatim: full-rate temporaries, an
``np.exp``/``np.angle`` chain, and scipy's per-call default resampling
design.  Each function takes the production object as its first
argument (so it can stand in for the method) and reads only its
parameters.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from repro.utils.validation import check_waveform
from repro.wireless.fm import rational_ratio

__all__ = ["resample", "fm_modulate", "fm_demodulate", "am_modulate",
           "am_demodulate"]


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
