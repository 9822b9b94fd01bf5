"""Adaptive-filter kernels: the inner loops behind every engine.

The engines in :mod:`repro.core.adaptive` own configuration, validation
and observability; the *inner loops* all live here, behind a small API:

* :class:`KernelState` — reference / filtered-reference history in the
  paper's tap convention ``k ∈ [-n_future, n_past - 1]`` (batch and
  streaming construction modes);
* :func:`fxlms_run` / :func:`fxlms_block` — two-sided FxLMS over a
  batch state / one streaming block, with ``adapt`` and ``active``
  flags;
* :func:`fxlms_block_batch` — one lock-step block across many
  streaming states (the serving runtime's kernel);
* :func:`lms_run` / :func:`rls_run` / :func:`apa_run` /
  :func:`multiref_run` — the causal-baseline and multi-reference
  walks.

The implementation is :mod:`.vector` (sliding-window views,
precomputed recursions, raw BLAS inner loops).  The audited per-sample
formulation it replaced lives in ``tests/reference/loop.py`` as the
oracle: every entry point matches it to ≤ 1e-10 (property-tested in
``tests/test_kernels.py``).  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

import numpy as np

from ....errors import ConfigurationError
from . import vector
from .state import KernelState
from .vector import apa_run, fxlms_run, lms_run, multiref_run, rls_run
from .workspace import BatchWorkspace

__all__ = [
    "KernelState",
    "BatchWorkspace",
    "resolve_backend_name",
    "fxlms_run",
    "fxlms_block",
    "fxlms_block_batch",
    "lms_run",
    "rls_run",
    "apa_run",
    "multiref_run",
]


def resolve_backend_name(name=None):
    """The kernel implementation in use — always ``"vector"``.

    A read-only report for run fingerprints; there is nothing to
    select.
    """
    return "vector"


# ----------------------------------------------------------------------
# Validating entry points; the rest are the vector functions themselves.
# ----------------------------------------------------------------------
def fxlms_block(state, taps, d, mu, **kwargs):
    """One streaming FxLMS block; returns the error block.

    Processing sample ``t`` needs the aligned reference up to
    ``t + n_future``; an underrun is rejected before any state moves.
    """
    needed = state.time + d.size + state.n_future
    if state.x.size < needed:
        raise ConfigurationError(
            f"reference underrun: need {needed} fed samples, "
            f"have {state.x.size}"
        )
    return vector.fxlms_block(state, taps, d, mu, **kwargs)


def fxlms_block_batch(states, taps, d, mu, **kwargs):
    """One lock-step FxLMS block across a batch of streaming states.

    The cross-session kernel behind :mod:`repro.serving`; returns
    ``(errors, diverged)`` — see :func:`vector.fxlms_block_batch`.
    Serial serving calls the same kernel with singleton batches (that
    is what makes serial == batched bit-identical).  Homogeneity and
    underrun validation happen here so the hot kernel can assume clean
    inputs.
    """
    if not states:
        raise ConfigurationError("fxlms_block_batch needs >= 1 state")
    st0 = states[0]
    for st in states:
        if st.mode != "streaming":
            raise ConfigurationError(
                "fxlms_block_batch needs streaming KernelStates"
            )
        if (st.n_future, st.n_past) != (st0.n_future, st0.n_past) \
                or st.secondary_true.size != st0.secondary_true.size:
            raise ConfigurationError(
                "fxlms_block_batch needs homogeneous session geometry "
                f"(n_future={st0.n_future}, n_past={st0.n_past}, "
                f"s_len={st0.secondary_true.size})"
            )
    taps = np.asarray(taps)
    d = np.asarray(d)
    if d.ndim != 2 or d.shape[0] != len(states):
        raise ConfigurationError(
            f"d must be (n_sessions, block); got {d.shape}"
        )
    if taps.shape != (len(states), st0.n_taps):
        raise ConfigurationError(
            f"taps must be ({len(states)}, {st0.n_taps}); "
            f"got {taps.shape}"
        )
    for st in states:
        needed = st.time + d.shape[1] + st.n_future
        if st.x.size < needed:
            raise ConfigurationError(
                f"reference underrun: need {needed} fed samples, "
                f"have {st.x.size}"
            )
    return vector.fxlms_block_batch(states, taps, d, mu, **kwargs)

