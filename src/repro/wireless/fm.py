"""Frequency modulation at complex baseband.

The relay transmits the microphone waveform with analog FM at 900 MHz
(paper Eq. 9)::

    x(t) = Ap * cos(2π fc t + 2π Af ∫ m(τ) dτ)

Simulating the 900 MHz carrier directly would need GHz sampling; the
standard equivalent is *complex baseband*: drop the carrier and keep the
phase term, ``x_bb(t) = Ap * exp(j 2π Af ∫ m)``.  Carrier frequency
offset (CFO) between transmitter and receiver then appears as a rotating
phasor ``exp(j 2π Δf t)`` — and, after the FM discriminator, as the
constant DC offset the paper says FM renders harmless.

Audio at ``audio_rate`` is upsampled to ``rf_rate`` for modulation and
decimated back after demodulation.

Perf note: :func:`resample` is the relay chain's hot edge — the
oversampled mod/demod path (5x for the relay's 40 kHz, 12x at 96 kHz)
crosses it twice per relay hop.  It runs scipy's default polyphase
(Kaiser) design, cached per reduced ``(up, down)`` pair, as BLAS matrix
products, and the rate pair itself is reduced with
:class:`fractions.Fraction`, so exact rational (including non-integer)
rate pairs work.  The modulator/demodulator
avoid full-rate intermediate copies by running their arithmetic in
place on buffers they own; the textbook formulations they replaced
(and ``resample_poly`` itself) are the test oracles in
``tests/reference/modulation.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import signal as sps

from ..errors import ConfigurationError, SignalError
from ..utils.validation import check_positive, check_waveform

__all__ = ["FmModulator", "FmDemodulator", "resample", "rational_ratio"]

#: Largest denominator accepted when snapping a rate ratio to an exact
#: rational — generous for audio/RF pairs, small enough to reject
#: genuinely irrational ratios.
MAX_RATIO_DENOMINATOR = 1 << 20

#: Cached polyphase designs, keyed by the reduced ``(up, down)`` pair.
_design_cache = {}

#: Cached Butterworth designs, keyed by ``(order, cutoff, btype)``.
_sos_cache = {}

#: Elements per resampler temporary (slab, window chunk, partial sum).
_CHUNK = 1 << 16


def rational_ratio(rate_in, rate_out):
    """Reduce ``rate_out / rate_in`` to an exact ``(up, down)`` pair.

    Both rates are taken as exact binary floats; their ratio is snapped
    to the nearest rational with denominator ≤
    :data:`MAX_RATIO_DENOMINATOR` and verified to reproduce ``rate_out``
    from ``rate_in`` exactly (to 1 part in 1e12).  Integer pairs reduce
    by their gcd — ``(44100, 8000) → (80, 441)`` — and exact non-integer
    pairs like ``(4000.5, 8001)`` work too.
    """
    ratio = Fraction(float(rate_out)) / Fraction(float(rate_in))
    ratio = ratio.limit_denominator(MAX_RATIO_DENOMINATOR)
    if not math.isclose(float(ratio) * rate_in, rate_out, rel_tol=1e-12):
        raise ConfigurationError(
            f"resample needs an exact rational rate ratio; "
            f"{rate_out}/{rate_in} is not one (within denominator "
            f"{MAX_RATIO_DENOMINATOR})"
        )
    return ratio.numerator, ratio.denominator


def _polyphase_design(up, down):
    """scipy's default ``resample_poly`` Kaiser design for ``(up, down)``.

    The ``firwin`` low-pass ``resample_poly`` would build internally
    (cutoff ``1 / max(up, down)``, ``10 * max(up, down)`` taps per side,
    Kaiser β = 5), already scaled by ``up``; built once per reduced
    pair, cached read-only.
    """
    key = (up, down)
    h = _design_cache.get(key)
    if h is None:
        max_rate = max(up, down)
        half_len = 10 * max_rate
        h = up * sps.firwin(2 * half_len + 1, 1.0 / max_rate,
                            window=("kaiser", 5.0))
        h.flags.writeable = False
        _design_cache[key] = h
    return h


def butter_sos(order, cutoff, btype="lowpass"):
    """Butterworth second-order sections, designed once per key.

    ``cutoff`` is normalized to Nyquist, as for ``scipy.signal.butter``.
    The cached design is read-only; each caller gets its own copy
    (scipy's ``sosfilt`` needs a writeable one), which costs far less
    than the design.
    """
    key = (order, cutoff, btype)
    sos = _sos_cache.get(key)
    if sos is None:
        sos = sps.butter(order, cutoff, btype=btype, output="sos")
        sos.flags.writeable = False
        _sos_cache[key] = sos
    return sos.copy()


def _phase_slabs(h, up, down):
    """Yield ``(v0, first, slab)`` for each block of output phases.

    Output phase ``v = i mod up`` of row ``r = i // up`` reads
    ``ceil(taps / up)`` consecutive inputs; a block of phases
    ``v0 .. v0 + cw`` reads the union, inputs ``r * down + first + j``
    for ``j < slab.shape[0]``, and output ``(r, v)`` is that input row
    times ``slab[:, v - v0]``.  Blocks are as wide as :data:`_CHUNK`
    allows (one block for small pairs); they are built on demand, so
    a large coprime pair never holds more than one.
    """
    taps, half = h.size, h.size // 2
    per_phase = -(-taps // up)
    width = up
    while width > 1 and (per_phase + 1 + width * down // up) * width > _CHUNK:
        width = (width + 1) // 2
    for v0 in range(0, up, width):
        centre = np.arange(v0, min(v0 + width, up)) * down + half
        first = int(centre[0]) // up - per_phase + 1
        rows = int(centre[-1]) // up + 1 - first
        index = centre[None, :] - (first + np.arange(rows))[:, None] * up
        valid = (index >= 0) & (index < taps)
        yield v0, first, np.where(valid, h[np.where(valid, index, 0)], 0.0)


def _span(x, lo, hi):
    """``x[lo:hi]``, zero outside ``x``: a view unless it runs off an end."""
    if lo >= 0 and hi <= x.size:
        return x[lo:hi]
    out = np.zeros(hi - lo)
    a, b = max(lo, 0), min(hi, x.size)
    if a < b:
        out[a - lo:b - lo] = x[a:b]
    return out


def resample(signal, rate_in, rate_out):
    """Polyphase resampling between exact-rational-ratio rates.

    Equal to ``scipy.signal.resample_poly`` with its default design
    (to rounding): output ``i`` is ``sum_q x[q] h[i * down + half - q
    * up]``.  Output phase ``v = i mod up`` is an inner product of
    ``ceil(taps / up)`` input samples with a fixed column of ``h``, so
    a block of phases is a matrix product with a slab of ``h``:

    * ``up > down`` (interpolation): a sliding window of the input,
      one row per output row, times the slab;
    * otherwise (decimation): the input cut into rows of ``down``
      samples, times the slab's ``down``-row bands side by side; output
      row ``r`` sums band ``b``'s product with input row ``r + b``.

    Both run a chunk of output rows at a time, so no temporary exceeds
    :data:`_CHUNK` elements.
    """
    rate_in = check_positive("rate_in", rate_in)
    rate_out = check_positive("rate_out", rate_out)
    x = np.ascontiguousarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise SignalError(f"signal must be 1-D, got shape {x.shape}")
    if rate_in == rate_out:
        return x.copy()
    up, down = rational_ratio(rate_in, rate_out)
    if up == down:
        return x.copy()
    n_out = -(-x.size * up // down)
    h = _polyphase_design(up, down)
    rows_out = -(-n_out // up)
    out = np.empty(rows_out * up)
    grid = out.reshape(rows_out, up)
    for v0, first, slab in _phase_slabs(h, up, down):
        width, cw = slab.shape
        cols = slice(v0, v0 + cw)
        if up > down:
            step = max(1, _CHUNK // width)
            for r0 in range(0, rows_out, step):
                r1 = min(r0 + step, rows_out)
                span = _span(x, first + r0 * down,
                             first + (r1 - 1) * down + width)
                windows = as_strided(
                    span, shape=(r1 - r0, width),
                    strides=(down * span.itemsize, span.itemsize))
                np.matmul(windows, slab, out=grid[r0:r1, cols])
            continue
        bands = -(-width // down)
        stacked = np.zeros((bands * down, cw))
        stacked[:width] = slab
        stacked = stacked.reshape(bands, down, cw).transpose(1, 0, 2) \
            .reshape(down, bands * cw)
        step = max(1, _CHUNK // (bands * cw))
        for r0 in range(0, rows_out, step):
            r1 = min(r0 + step, rows_out)
            rows = _span(x, first + r0 * down,
                         first + (r1 + bands - 1) * down).reshape(-1, down)
            partial = rows @ stacked
            shifted = as_strided(
                partial, shape=(r1 - r0, cw, bands),
                strides=(partial.strides[0], partial.strides[1],
                         partial.strides[0] + cw * partial.itemsize))
            shifted.sum(axis=2, out=grid[r0:r1, cols])
    return out[:n_out]


class FmModulator:
    """Analog FM modulator: audio in, complex-baseband RF out.

    Parameters
    ----------
    audio_rate:
        Input audio sampling rate (Hz).
    rf_rate:
        Simulation rate of the complex baseband (Hz); must be at least
        the Carson bandwidth, twice the peak deviation plus the audio
        bandwidth.
    deviation_hz:
        Peak frequency deviation ``Af`` for a unit-amplitude input.
        The discriminator recovers audio ``m`` without wrapping while
        the phase step ``2π |m| Af / rf_rate`` stays below π, that is
        ``|m| < rf_rate / (2 Af)``: |m| < 4 at 96 kHz and 12 kHz
        deviation, |m| < 1.67 at 40 kHz.
    amplitude:
        Transmit amplitude ``Ap``.
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0, amplitude=1.0):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.deviation_hz = check_positive("deviation_hz", deviation_hz)
        self.amplitude = check_positive("amplitude", amplitude)
        carson = 2.0 * (self.deviation_hz + self.audio_rate / 2.0)
        if self.rf_rate < carson:
            raise ConfigurationError(
                f"rf_rate {rf_rate} Hz below Carson bandwidth {carson} Hz"
            )

    @property
    def occupied_bandwidth_hz(self):
        """Carson-rule occupied bandwidth for unit-RMS audio."""
        return 2.0 * (self.deviation_hz + self.audio_rate / 2.0)

    def modulate(self, audio):
        """Modulate an audio waveform to complex baseband."""
        audio = check_waveform("audio", audio)
        rf_audio = resample(audio, self.audio_rate, self.rf_rate)
        # In place on the full-rate buffer we own: cumsum → phase →
        # cos/sin straight into the complex output's views.
        np.cumsum(rf_audio, out=rf_audio)
        rf_audio *= 2.0 * np.pi * self.deviation_hz / self.rf_rate
        out = np.empty(rf_audio.size, dtype=np.complex128)
        np.cos(rf_audio, out=out.real)
        np.sin(rf_audio, out=out.imag)
        if self.amplitude != 1.0:
            out *= self.amplitude
        return out


class FmDemodulator:
    """FM discriminator: complex baseband in, audio out.

    The phase-difference discriminator recovers the instantaneous
    frequency; a low-pass filter removes out-of-band noise; decimation
    returns to the audio rate; and mean removal cancels the DC offset a
    CFO leaves behind (the paper's "averaged out" step).
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0, remove_dc=True):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.deviation_hz = check_positive("deviation_hz", deviation_hz)
        self.remove_dc = bool(remove_dc)
        cutoff = min(self.audio_rate / 2.0, self.rf_rate / 2.0 * 0.9)
        self._sos = butter_sos(6, cutoff / (self.rf_rate / 2.0))

    def demodulate(self, baseband):
        """Recover the audio waveform from complex baseband."""
        baseband = check_waveform("baseband", baseband, min_length=2,
                                  allow_complex=True)
        # Phase difference between consecutive samples → instantaneous
        # frequency, with one owned complex scratch instead of the
        # conj/product/angle/concatenate temporary chain.
        product = np.conjugate(baseband[:-1])
        product *= baseband[1:]
        audio_rf = np.empty(baseband.size)
        np.arctan2(product.imag, product.real, out=audio_rf[1:])
        audio_rf[0] = audio_rf[1]
        audio_rf *= self.rf_rate / (2.0 * np.pi * self.deviation_hz)
        # Zero-phase filtering: the analog chain's fixed group delay
        # (~0.15 ms) is accounted in the relay's latency budget, so the
        # simulation removes it here rather than re-aligning downstream.
        audio_rf = sps.sosfiltfilt(self._sos, audio_rf)
        audio = resample(audio_rf, self.rf_rate, self.audio_rate)
        if self.remove_dc:
            audio -= np.mean(audio)
        return audio
