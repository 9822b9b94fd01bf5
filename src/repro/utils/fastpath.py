"""Read-only report: the fast paths are the program.

The cached-FFT FIR engine (:mod:`repro.utils.fastconv`), the cached
polyphase resampler (:func:`repro.wireless.fm.resample`) and the
in-place modulator/demodulator arithmetic are the only implementations.
The slow formulations they replaced live in ``tests/reference`` as
test oracles.  :func:`enabled` remains so run fingerprints can record
the fact; it has no setter and reads no environment.
"""

from __future__ import annotations

__all__ = ["enabled"]


def enabled():
    """Always ``True``: there is no slow path to switch to."""
    return True
