"""Affine projection adaptation (APA) — fast convergence on colored input.

NLMS whitens nothing: on strongly colored input (speech!) its modes
converge at rates spread by the input's eigenvalue spread, so the slow
modes dominate.  RLS fixes that at O(M²).  The affine projection
algorithm is the classic middle ground: it projects the update onto the
span of the last ``order`` input vectors, cancelling the coloration up
to that order, at O(M·order + order³) per sample.

With ``order = 1`` APA *is* NLMS; small orders (2–8) recover most of the
RLS convergence advantage on speech-like inputs — relevant to the
paper's §6 remark about faster-converging methods for tracking.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import linalg

from ... import obs
from ...errors import ConfigurationError
from ...utils.validation import (
    check_positive,
    check_positive_int,
    check_same_length,
    check_waveform,
)
from . import kernels
from .base import (
    AdaptationResult,
    guard_divergence,
    mse_curve,
    record_run_metrics,
)

__all__ = ["ApaFilter"]


class ApaFilter:
    """Causal affine-projection adaptive filter.

    Parameters
    ----------
    n_taps:
        Filter length ``M``.
    order:
        Projection order ``P`` (1 = NLMS).
    mu:
        Relative step, stable in (0, 2) like NLMS.
    epsilon:
        Regularizer for the P×P Gram inverse.
    """

    def __init__(self, n_taps, order=4, mu=0.5, epsilon=1e-6):
        self.n_taps = check_positive_int("n_taps", n_taps)
        self.order = check_positive_int("order", order)
        if self.order > self.n_taps:
            raise ConfigurationError("order cannot exceed n_taps")
        self.mu = check_positive("mu", mu)
        self.epsilon = check_positive("epsilon", epsilon)
        self.taps = np.zeros(self.n_taps)
        # Ring of the last `order` input windows (rows, newest first).
        self._U = np.zeros((self.order, self.n_taps))
        self._d = np.zeros(self.order)
        self._window = np.zeros(self.n_taps)

    def reset(self):
        """Restore power-up state."""
        self.taps[:] = 0.0
        self._U[:] = 0.0
        self._d[:] = 0.0
        self._window[:] = 0.0

    def step(self, x_sample, d_sample):
        """One predict-then-project iteration; returns (prediction, error)."""
        self._window[1:] = self._window[:-1]
        self._window[0] = x_sample
        self._U[1:] = self._U[:-1]
        self._U[0] = self._window
        self._d[1:] = self._d[:-1]
        self._d[0] = d_sample

        prediction = float(np.dot(self.taps, self._window))
        error = float(d_sample) - prediction
        guard_divergence(error, "ApaFilter")

        # Error vector over the projection window.
        e_vec = self._d - self._U @ self.taps
        gram = self._U @ self._U.T + self.epsilon * np.eye(self.order)
        try:
            solved = linalg.solve(gram, e_vec, assume_a="pos")
        except linalg.LinAlgError:   # pragma: no cover - eps prevents this
            solved = linalg.lstsq(gram, e_vec)[0]
        self.taps += self.mu * (self._U.T @ solved)
        return prediction, error

    def run(self, x, d):
        """Adapt over whole waveforms (LmsFilter-compatible contract)."""
        x = check_waveform("x", x)
        d = check_waveform("d", d)
        check_same_length("x", x, "d", d)
        enabled = obs.enabled()
        t_start = time.perf_counter() if enabled else None
        predictions, errors = kernels.apa_run(
            x, d, self.taps, self._window, self._U, self._d, self.mu,
            self.epsilon, context="ApaFilter",
        )
        if enabled:
            record_run_metrics("apafilter", errors, d,
                               time.perf_counter() - t_start)
        return AdaptationResult(
            error=errors,
            output=predictions,
            taps=self.taps.copy(),
            mse_trajectory=mse_curve(errors),
        )
