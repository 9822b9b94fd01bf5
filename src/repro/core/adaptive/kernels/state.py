"""Kernel state: the reference/filtered-reference history every engine shares.

A :class:`KernelState` is the *signal* half of an adaptive run — the
aligned reference, its filtered-x companion ``x' = ŝ * x``, the true
secondary path the anti-noise rings through, and the two-sided tap
geometry in the paper's convention ``k ∈ [-n_future, n_past - 1]``
(``k = -n_future`` multiplies the most futuristic sample
``x(t + n_future)``).  The *algorithm* half — how that state is
walked — lives in :mod:`.vector`.

There is one kind of state, fed the way the ear device receives the
relay's stream: :meth:`KernelState.extend` appends newly arrived
reference samples (maintaining ``xf`` incrementally with
:func:`scipy.signal.lfilter` state), :attr:`time` / :attr:`y_recent`
carry the processed-sample clock and the anti-noise still ringing
through the secondary path between blocks, and :meth:`close` marks the
end of a known signal with the ``n_future`` trailing zeros its last
windows read.  A whole-signal run is therefore ``close(x)`` on a fresh
state plus one block — bit-identical to processing the same state in
any partition of blocks.
"""

from __future__ import annotations

import numpy as np

from ....errors import ConfigurationError
from ....utils.validation import (
    check_impulse_response,
    check_non_negative_int,
    check_positive_int,
    check_waveform,
)

__all__ = ["KernelState"]


class KernelState:
    """Signal state for a two-sided (lookahead-aware) FxLMS kernel.

    Parameters
    ----------
    n_future / n_past:
        Tap geometry: ``k ∈ [-n_future, n_past - 1]``.
    secondary_estimate:
        ``ŝ`` — the filter's model of the speaker→error-mic path, used
        to build the filtered reference.
    secondary_true:
        ``s`` — the physical path the anti-noise actually rings
        through; defaults to ``secondary_estimate``.

    Attributes
    ----------
    x / xf:
        Aligned reference delivered so far and its filtered-reference
        companion (error-mic time base; sample ``t`` at index ``t``).
    y_recent:
        Anti-noise output history, newest first — what is still ringing
        through ``secondary_true``.  Starts from silence.
    time:
        Number of error-mic samples processed so far.
    """

    def __init__(self, n_future, n_past, secondary_estimate,
                 secondary_true=None):
        self.n_future = check_non_negative_int("n_future", n_future)
        self.n_past = check_positive_int("n_past", n_past)
        self.secondary_estimate = check_impulse_response(
            "secondary_estimate", secondary_estimate
        )
        self.secondary_true = (
            self.secondary_estimate if secondary_true is None
            else check_impulse_response("secondary_true", secondary_true)
        )
        self.n_taps = self.n_future + self.n_past
        self.x = np.zeros(0)
        self.xf = np.zeros(0)
        self.y_recent = np.zeros(self.secondary_true.size)
        self.time = 0
        # scipy.signal.lfilter carry for the incremental filtered-x.
        self._zi = (
            np.zeros(self.secondary_estimate.size - 1)
            if self.secondary_estimate.size > 1 else np.zeros(0)
        )

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def extend(self, reference_block):
        """Append newly arrived aligned-reference samples.

        Maintains ``xf = ŝ * x`` incrementally (filter state carried in
        ``lfilter`` initial conditions), so ``xf`` matches the
        whole-signal convolution up to rounding at the block seams.
        """
        block = check_waveform("reference_block", reference_block,
                               min_length=1)
        from scipy import signal as sps

        if self._zi.size:
            filtered, self._zi = sps.lfilter(
                self.secondary_estimate, [1.0], block, zi=self._zi
            )
        else:
            filtered = self.secondary_estimate[0] * block
        self.x = np.concatenate([self.x, block])
        self.xf = np.concatenate([self.xf, filtered])

    def close(self, last_block=None):
        """Mark the end of a known signal: append ``n_future`` zeros.

        The last ``n_future`` samples' anti-causal taps read past the
        signal's end; the relay delivers silence there.  ``xf`` keeps
        the ``ŝ`` ring-out of the last real samples — the filtered
        reference of the zero-extended signal the taps actually read.
        ``last_block``, if given, is fed first, in the same
        :meth:`extend` call as the zeros: ``close(x)`` on a fresh state
        is how a whole known signal is fed (``lfilter``'s carry is not
        bit-exact across calls, so the two spellings differ by rounding
        in the ring-out).  Call once, as the last feed.
        """
        block = np.zeros(self.n_future)
        if last_block is not None:
            block = np.concatenate(
                [check_waveform("last_block", last_block, min_length=0),
                 block])
        if block.size:
            self.extend(block)

    def fed(self):
        """Number of reference samples delivered so far."""
        return self.x.size

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self):
        """The complete mutable signal state, as private array copies.

        Everything a mid-run kernel state owns beyond its construction
        parameters: the delivered reference and its filtered-x
        companion, the processed-sample clock, the ringing anti-noise
        buffer, and the ``lfilter`` carry.  Restoring the returned
        mapping with :meth:`restore` on an identically constructed
        state resumes processing **bit-identically** — the contract the
        serving checkpoint layer (``repro.serving.checkpoint``) builds
        on, property-tested in ``tests/test_checkpoint.py`` with both
        the kernel and its per-sample reference oracle.
        """
        return {
            "x": self.x.copy(),
            "xf": self.xf.copy(),
            "time": int(self.time),
            "y_recent": self.y_recent.copy(),
            "zi": self._zi.copy(),
        }

    def restore(self, snapshot):
        """Apply a :meth:`snapshot` taken from an equivalent state.

        The state must have been constructed with the same geometry
        (``n_future``/``n_past``) and secondary paths as the snapshot's
        origin; only the mutable signal state is replaced.
        """
        y_recent = np.asarray(snapshot["y_recent"], dtype=np.float64)
        if y_recent.shape != self.y_recent.shape:
            raise ConfigurationError(
                f"snapshot y_recent has shape {y_recent.shape}; this "
                f"state expects {self.y_recent.shape} "
                "(secondary-path length mismatch)"
            )
        zi = np.asarray(snapshot["zi"], dtype=np.float64)
        if zi.shape != self._zi.shape:
            raise ConfigurationError(
                f"snapshot zi has shape {zi.shape}; this state expects "
                f"{self._zi.shape} (secondary-estimate length mismatch)"
            )
        self.x = np.asarray(snapshot["x"], dtype=np.float64).copy()
        self.xf = np.asarray(snapshot["xf"], dtype=np.float64).copy()
        self.time = int(snapshot["time"])
        self.y_recent = y_recent.copy()
        self._zi = zi.copy()

    def peek_future(self, n_samples):
        """The next ``n_samples`` of not-yet-processed reference."""
        start = self.time
        return self.x[start: start + int(n_samples)].copy()

    # ------------------------------------------------------------------
    # The window layout (the paper's k-convention)
    # ------------------------------------------------------------------
    def _segment(self, lo, hi, out=None):
        """``(x, xf)`` over samples ``[lo, hi)``, zeros before sample 0.

        The one owner of the left-zero-padded layout every kernel reads:
        the segment for samples ``[t0, t1)`` is
        ``_segment(t0 - (n_past - 1), t1 + n_future)``, and its forward
        (oldest-first) sliding windows of ``n_taps`` are the reversed
        tap windows ``x(t + n_future - i)`` of each ``t``.  ``hi`` must
        not exceed :meth:`fed`.  Without ``out`` the result may be a
        view of the state; with ``out`` (two length ``hi - lo`` arrays)
        it is written there and nothing is allocated.
        """
        head = max(-lo, 0)
        seg = self.x[lo + head: hi]
        segf = self.xf[lo + head: hi]
        if out is None:
            if not head:
                return seg, segf
            out = (np.zeros(hi - lo), np.zeros(hi - lo))
        else:
            out[0][:head] = 0.0
            out[1][:head] = 0.0
        out[0][head:] = seg
        out[1][head:] = segf
        return out
