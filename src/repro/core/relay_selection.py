"""Relay selection via GCC-PHAT (paper §4.2, Figures 18–19).

MUTE only helps when the relay hears the sound *before* the ear.  The
client checks this by cross-correlating the wirelessly forwarded
waveform against its own error-microphone signal with the GCC-PHAT
(phase transform) weighting, which is robust in reverberant rooms.  The
correlation peak's lag tells the sign and size of the lookahead:

* peak at positive lag → the forwarded signal *leads*: usable relay;
* peak at negative lag → the relay is farther from the source than the
  ear: reject (or nudge the user to move it).

With several relays the client picks the one with the largest positive
lag — the maximum lookahead (Figure 19).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import RelaySelectionError
from ..utils.validation import check_positive, check_waveform

__all__ = [
    "gcc_phat",
    "LookaheadMeasurement",
    "measure_lookahead",
    "RelaySelector",
]


def gcc_phat(forwarded, ear_signal, sample_rate, max_lag_s=0.05,
             epsilon=1e-12):
    """GCC-PHAT cross-correlation between two waveforms.

    Parameters
    ----------
    forwarded:
        The relay's wirelessly forwarded waveform.
    ear_signal:
        The error-microphone recording over the same wall-clock span.
    sample_rate:
        Common sampling rate, Hz.
    max_lag_s:
        Correlation is evaluated for lags in ``[-max_lag_s, +max_lag_s]``.

    Returns
    -------
    (lags_s, correlation):
        ``lags_s[i] > 0`` means the forwarded signal leads the ear signal
        by ``lags_s[i]`` seconds (positive lookahead).
    """
    a = check_waveform("forwarded", forwarded, min_length=16)
    b = check_waveform("ear_signal", ear_signal, min_length=16)
    sample_rate = check_positive("sample_rate", sample_rate)
    max_lag_s = check_positive("max_lag_s", max_lag_s)
    n = int(a.size + b.size)
    spec_a = np.fft.rfft(a, n)
    spec_b = np.fft.rfft(b, n)
    cross = spec_b * np.conj(spec_a)
    cross /= np.maximum(np.abs(cross), epsilon)   # PHAT weighting
    corr = np.fft.irfft(cross, n)
    max_lag = min(int(max_lag_s * sample_rate), a.size - 1)
    # corr[k] is the correlation at ear-delay k; assemble [-max_lag, max_lag].
    negative = corr[-max_lag:]        # forwarded lags (negative lookahead)
    positive = corr[: max_lag + 1]    # forwarded leads (positive lookahead)
    correlation = np.concatenate([negative, positive])
    lags = np.arange(-max_lag, max_lag + 1) / sample_rate
    return lags, correlation


@dataclasses.dataclass(frozen=True)
class LookaheadMeasurement:
    """Outcome of one GCC-PHAT lookahead probe."""

    lag_s: float          # positive = forwarded leads the ear
    peak_value: float     # correlation peak height
    confidence: float     # peak-to-median prominence ratio

    @property
    def is_positive(self):
        """True when the relay offers usable (positive) lookahead."""
        return self.lag_s > 0.0


def measure_lookahead(forwarded, ear_signal, sample_rate, max_lag_s=0.05):
    """Measure the relay's lookahead with GCC-PHAT.

    Returns a :class:`LookaheadMeasurement`; ``confidence`` compares the
    peak against the background correlation level (≥ ~5 is a clean
    spike).
    """
    lags, corr = gcc_phat(forwarded, ear_signal, sample_rate,
                          max_lag_s=max_lag_s)
    peak_idx = int(np.argmax(corr))
    peak = float(corr[peak_idx])
    background = float(np.median(np.abs(corr))) or 1e-12
    return LookaheadMeasurement(
        lag_s=float(lags[peak_idx]),
        peak_value=peak,
        confidence=peak / background,
    )


class RelaySelector:
    """Pick the relay with the largest positive lookahead.

    Parameters
    ----------
    sample_rate:
        Audio rate of the compared waveforms.
    min_lookahead_s:
        Relays whose measured lead falls below this are rejected —
        marginally positive lookahead cannot pay the pipeline latency.
    min_confidence:
        Reject measurements whose correlation spike is not prominent.
    """

    def __init__(self, sample_rate=8000.0, min_lookahead_s=0.0,
                 min_confidence=3.0):
        self.sample_rate = check_positive("sample_rate", sample_rate)
        if min_lookahead_s < 0:
            raise RelaySelectionError("min_lookahead_s must be >= 0")
        self.min_lookahead_s = float(min_lookahead_s)
        self.min_confidence = check_positive("min_confidence", min_confidence)

    def measure_all(self, forwarded_by_relay, ear_signal, max_lag_s=0.05):
        """GCC-PHAT every relay; returns ``{relay_id: measurement}``."""
        if not forwarded_by_relay:
            raise RelaySelectionError("no relays supplied")
        return {
            relay_id: measure_lookahead(waveform, ear_signal,
                                        self.sample_rate, max_lag_s)
            for relay_id, waveform in forwarded_by_relay.items()
        }

    def select(self, forwarded_by_relay, ear_signal, max_lag_s=0.05):
        """Return ``(best_relay_id_or_None, measurements)``.

        Parameters
        ----------
        forwarded_by_relay : dict
            ``{relay_id: forwarded_waveform}`` candidates.
        ear_signal : array_like
            Error-microphone recording over the same span.
        max_lag_s : float
            Correlation search window, seconds.

        Returns
        -------
        (best_relay_id_or_None, measurements)
            ``None`` means every relay has negative/insufficient
            lookahead — the sound source is nearer the client than any
            usable relay, so LANC should not run on forwarded audio
            (paper: "no relay is selected").
        """
        measurements = self.measure_all(forwarded_by_relay, ear_signal,
                                        max_lag_s=max_lag_s)
        best_id, best_lag = None, self.min_lookahead_s
        for relay_id, m in measurements.items():
            if not m.is_positive or m.confidence < self.min_confidence:
                continue
            if m.lag_s > best_lag:
                best_id, best_lag = relay_id, m.lag_s
        return best_id, measurements
