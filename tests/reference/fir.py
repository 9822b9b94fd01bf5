"""The plain scipy FIR calls the cached-FFT engine replaced.

:func:`repro.utils.fastconv.fir_apply` and
:meth:`repro.utils.fastconv.StreamingFir.process` were introduced over
these two formulations; the tests compare against scipy directly, and
:func:`tests.reference.reference_signal_path` swaps these in for the
end-to-end benchmark's baseline leg.
"""

from __future__ import annotations

from scipy import signal as sps

__all__ = ["fir_apply", "streaming_process"]


def fir_apply(signal, ir, mode="same"):
    """``fftconvolve``, truncated to the signal length for ``"same"``."""
    full = sps.fftconvolve(signal, ir)
    return full if mode == "full" else full[:len(signal)]


def streaming_process(fir, block):
    """``StreamingFir.process`` as ``lfilter`` with a carried ``zi``."""
    m = fir.ir.size
    if m == 1:
        return fir.ir[0] * block
    out, zf = sps.lfilter(fir.ir, [1.0], block, zi=fir.state[: m - 1])
    fir.state[: m - 1] = zf
    return out
