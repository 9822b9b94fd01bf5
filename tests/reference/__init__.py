"""Reference formulations of the production hot paths: the test oracles.

The program has one implementation of every hot path.  The slower
formulations each one replaced live here, so tests and benchmarks can
hold the program to them:

* :mod:`.loop` — the per-sample adaptive kernels (LANC/FxLMS, LMS,
  RLS, APA, multi-reference); the kernels in
  :mod:`repro.core.adaptive.kernels` match them to ≤ 1e-10;
* :mod:`.modulation` — textbook FM/AM modulate/demodulate, the
  out-of-place RF channel and per-call ``resample_poly``;
* :mod:`.fir` — the plain ``fftconvolve`` / ``lfilter`` calls behind
  :mod:`repro.utils.fastconv`;
* :mod:`.rir` — the per-image loop of the image-source model.

:func:`reference_kernels` and :func:`reference_signal_path` swap these
in at the program's call sites for the duration of a ``with`` block —
how a test runs an engine on its oracle, and how the benchmarks time
the program against them.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.acoustics import timevarying
from repro.core import multisource, scenario
from repro.core.adaptive import kernels
from repro.utils import fastconv
from repro.wireless import am, fm
from repro.wireless.rf_channel import RfChannel

from . import fir, loop, modulation, rir

__all__ = ["reference_kernels", "reference_signal_path"]


@contextlib.contextmanager
def reference_kernels():
    """Route every engine's kernel call through the :mod:`.loop` oracle."""
    with pytest.MonkeyPatch.context() as patch:
        for name in loop.__all__:
            patch.setattr(kernels, name, getattr(loop, name))
        yield


@contextlib.contextmanager
def reference_signal_path():
    """Route RIRs, FIR, resampling, FM/AM and the RF channel through
    their reference forms."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (scenario, multisource, timevarying):
            patch.setattr(module, "room_impulse_response",
                          rir.room_impulse_response)
        patch.setattr(fastconv, "fir_apply", fir.fir_apply)
        patch.setattr(fastconv.StreamingFir, "process",
                      fir.streaming_process)
        patch.setattr(fm, "resample", modulation.resample)
        patch.setattr(am, "resample", modulation.resample)
        patch.setattr(fm.FmModulator, "modulate", modulation.fm_modulate)
        patch.setattr(fm.FmDemodulator, "demodulate",
                      modulation.fm_demodulate)
        patch.setattr(am.AmModulator, "modulate", modulation.am_modulate)
        patch.setattr(am.AmDemodulator, "demodulate",
                      modulation.am_demodulate)
        patch.setattr(RfChannel, "apply", modulation.rf_channel_apply)
        yield
