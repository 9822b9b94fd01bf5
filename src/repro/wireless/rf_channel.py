"""RF channel impairments at complex baseband.

MUTE uses a narrow (≈ Carson-bandwidth) FM signal in the 900 MHz ISM
band; the paper notes that the wireless channel ``h_w`` is flat over so
narrow a band and reduces to a single complex tap.  The impairments that
*do* matter — and that motivated the analog FM design — are modeled
here:

* additive white Gaussian noise at a configurable SNR, stated over a
  fixed reference bandwidth so that it fixes the noise *density* (see
  :class:`RfChannelConfig`),
* carrier frequency offset between the relay's PLL and the receiver,
* power-amplifier nonlinearity (tanh soft saturation),
* a flat complex gain (path loss + phase rotation).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigurationError
from ..utils.units import db_to_amplitude
from ..utils.validation import check_waveform

__all__ = ["RfChannelConfig", "RfChannel", "pa_nonlinearity",
           "SNR_REFERENCE_BANDWIDTH_HZ"]

#: Bandwidth (Hz) over which :attr:`RfChannelConfig.snr_db` is stated.
#: A channel simulated at ``rf_rate`` scales its noise variance by
#: ``rf_rate / SNR_REFERENCE_BANDWIDTH_HZ``, which is exactly 1.0 at
#: 96 kHz.
SNR_REFERENCE_BANDWIDTH_HZ = 96000.0

#: Noise samples drawn per scratch fill in :meth:`RfChannel.apply`.
_NOISE_CHUNK = 1 << 16


def _pa_scale(baseband, backoff_db):
    """Per-sample real gain of the tanh PA, or ``None`` for a silent block."""
    envelope = np.abs(baseband)
    rms = np.sqrt(np.mean(envelope ** 2))
    if rms == 0.0:
        return None
    saturation = rms * db_to_amplitude(backoff_db)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            envelope > 0,
            saturation * np.tanh(envelope / saturation) / envelope,
            1.0,
        )


def pa_nonlinearity(baseband, backoff_db=3.0):
    """Soft-saturating power amplifier: tanh applied to the envelope.

    ``backoff_db`` sets how far the signal's RMS sits below the
    amplifier's saturation point; smaller backoff → harder clipping.
    AM rides on the envelope and is distorted; constant-envelope FM is
    immune (the comparison the FM-vs-AM ablation measures).
    """
    baseband = check_waveform("baseband", baseband, allow_complex=True,
                              min_length=1)
    scale = _pa_scale(baseband, backoff_db)
    if scale is None:
        return baseband.copy()
    return baseband * scale


@dataclasses.dataclass(frozen=True)
class RfChannelConfig:
    """Impairment settings for one RF link.

    ``snr_db`` is the post-path-loss SNR at the receiver, stated over
    :data:`SNR_REFERENCE_BANDWIDTH_HZ` (96 kHz): signal power over the
    noise power that falls in 96 kHz.  It fixes the noise *density*, so
    the audio a link delivers does not depend on the rate the channel is
    simulated at.  A :func:`~repro.wireless.link_budget.received_snr_db`
    figure computed with ``bandwidth_hz=96e3`` converts to it directly.
    """

    snr_db: float = 40.0            # SNR over the 96 kHz reference band
    cfo_hz: float = 0.0             # carrier frequency offset
    gain_db: float = 0.0            # flat path gain (negative = loss)
    phase_rad: float = 0.0          # flat phase rotation
    pa_backoff_db: float | None = None  # None disables PA nonlinearity
    seed: int = 0

    def __post_init__(self):
        if self.pa_backoff_db is not None and self.pa_backoff_db <= 0:
            raise ConfigurationError("pa_backoff_db must be > 0 or None")
        # +inf means a noiseless link; NaN is always a bug.
        if np.isnan(self.snr_db):
            raise ConfigurationError("snr_db must not be NaN")


class RfChannel:
    """Apply configured impairments to a complex-baseband signal."""

    def __init__(self, config=None, rf_rate=96000.0):
        self.config = config or RfChannelConfig()
        if rf_rate <= 0:
            raise ConfigurationError("rf_rate must be > 0")
        self.rf_rate = float(rf_rate)

    def apply(self, baseband):
        """Pass a complex-baseband block through the channel.

        Every impairment works in place on one complex copy of the
        input.  The noise variance is ``snr_db`` below the signal power
        over the reference bandwidth, scaled by ``rf_rate /``
        :data:`SNR_REFERENCE_BANDWIDTH_HZ` to the simulated bandwidth.
        It is drawn in chunks into one real scratch buffer — the real
        parts' normals, then the imaginary parts' — which is the same
        stream, so the same realization, as two whole-block draws.
        """
        baseband = check_waveform("baseband", baseband, allow_complex=True,
                                  min_length=1)
        cfg = self.config
        out = baseband.astype(np.complex128, copy=True)

        if cfg.pa_backoff_db is not None:
            scale = _pa_scale(out, cfg.pa_backoff_db)
            if scale is not None:
                out *= scale

        # numpy's complex multiply is not bitwise commutative (it fuses
        # multiply-adds), and for large blocks it already evaluates
        # ``out * <temporary>`` in place, into the temporary with the
        # operands swapped.  So the gain and CFO products stay written
        # as ``out = out * x``, which fixes their rounding.
        flat = db_to_amplitude(cfg.gain_db) * np.exp(1j * cfg.phase_rad)
        if flat != 1.0:
            out = out * flat

        if cfg.cfo_hz != 0.0:
            t = np.arange(out.size) / self.rf_rate
            out = out * np.exp(2j * np.pi * cfg.cfo_hz * t)

        power = np.abs(out)
        signal_power = np.mean(np.square(power, out=power))
        del power
        if np.isfinite(cfg.snr_db) and signal_power > 0:
            noise_power = signal_power / (10.0 ** (cfg.snr_db / 10.0))
            noise_power *= self.rf_rate / SNR_REFERENCE_BANDWIDTH_HZ
            sigma = np.sqrt(noise_power / 2.0)
            rng = np.random.default_rng(cfg.seed)
            scratch = np.empty(min(out.size, _NOISE_CHUNK))
            for part in (out.real, out.imag):
                for lo in range(0, out.size, scratch.size):
                    draw = scratch[:out.size - lo]
                    rng.standard_normal(out=draw)
                    draw *= sigma
                    part[lo:lo + draw.size] += draw
        return out
