"""Adaptive-filter engines: LMS/NLMS, FxLMS, and lookahead-aware LANC.

All engines run their inner loops through the shared kernel layer in
:mod:`repro.core.adaptive.kernels` — see ``docs/KERNELS.md``.
"""

from . import kernels
from .apa import ApaFilter
from .base import (
    AdaptationResult,
    TapVector,
    mse_curve,
    record_block_metrics,
    record_run_metrics,
)
from .block import BlockLancFilter
from .kernels import KernelState
from .lanc import FxlmsFilter, LancFilter
from .lms import LmsFilter, identify_system
from .multiref import MultiRefLancFilter
from .rls import RlsFilter

__all__ = [
    "ApaFilter",
    "AdaptationResult",
    "TapVector",
    "mse_curve",
    "record_block_metrics",
    "record_run_metrics",
    "BlockLancFilter",
    "FxlmsFilter",
    "LancFilter",
    "LmsFilter",
    "identify_system",
    "MultiRefLancFilter",
    "RlsFilter",
    "kernels",
    "KernelState",
]
