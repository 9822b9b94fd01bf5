"""The ``loop`` oracle: the audited per-sample reference implementation.

This is the code that used to live inline in every engine's hot loop —
extracted verbatim, one copy instead of six.  It is deliberately *not*
clever: each entry point walks the signal one sample at a time in
exactly the operation order the seed engines used, so its outputs are
bit-identical to the historical implementations.  The production
kernels (:mod:`repro.core.adaptive.kernels.vector`) are validated
against this one (property-tested to ≤ 1e-10).

Every entry point mutates the caller's tap (and auxiliary) arrays in
place — engines keep owning their state; the kernel owns only the walk.
The two-sided walks index the paper's tap convention the explicit way,
through :func:`padded_reference` / :func:`tap_window` over the kernel
state's ``x`` / ``xf``; the program reads the same windows from
``KernelState._segment``.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive.base import effective_step, guard_divergence
from repro.utils.validation import (check_non_negative_int,
                                    check_positive_int, check_waveform)

__all__ = ["fxlms_block", "lms_run", "rls_run", "apa_run", "multiref_run"]


def padded_reference(x, n_future, n_past):
    """Pad ``x`` so every window ``x[t-n_past+1 .. t+n_future]`` exists.

    Returns ``(padded, offset)`` where sample ``x[t]`` lives at
    ``padded[t + offset]``.
    """
    x = check_waveform("x", x)
    n_future = check_non_negative_int("n_future", n_future)
    n_past = check_positive_int("n_past", n_past)
    padded = np.concatenate([
        np.zeros(n_past - 1), x, np.zeros(n_future)
    ])
    return padded, n_past - 1


def tap_window(padded, offset, t, n_future, n_past):
    """Window aligned with the tap vector: index 0 ↔ ``x(t + n_future)``.

    ``y(t) = taps · window`` with taps stored future-first, because
    ``taps[i] ↔ k = i - n_future`` multiplies ``x(t - k) = x(t + n_future - i)``.
    """
    start = t + offset - (n_past - 1)
    stop = t + offset + n_future + 1
    return padded[start:stop][::-1]


def fxlms_block(state, taps, d, mu, normalized=True, leak=0.0, adapt=True,
                active=True, adapt_mask=None, context="StreamingLanc"):
    """One two-sided FxLMS block over a :class:`KernelState`.

    Windows are padded from ``state.x`` / ``state.xf`` (zeros before
    sample 0; the state carries its own trailing zeros once closed).
    Advances ``state.time`` and ``state.y_recent``; returns
    ``(errors, outputs)``; ``taps`` is updated in place.
    ``active=False`` mutes the speaker for the block while anti-noise
    already in flight keeps ringing through the secondary path;
    ``adapt_mask`` restricts adaptation to the samples where it is true.
    """
    n_future, n_past = state.n_future, state.n_past
    s_true = state.secondary_true
    y_recent = state.y_recent
    errors = np.empty(d.size)
    outputs = np.zeros(d.size)

    if not active:
        # Speaker muted: output is zero, but anti-noise already in
        # flight keeps ringing through the secondary path.
        for i in range(d.size):
            y_recent[1:] = y_recent[:-1]
            y_recent[0] = 0.0
            e = d[i] + float(np.dot(s_true, y_recent))
            errors[i] = e
        state.time += d.size
        return errors, outputs

    xp, off = padded_reference(state.x, 0, n_past)
    xfp, offf = padded_reference(state.xf, 0, n_past)
    for i in range(d.size):
        t = state.time + i
        win = tap_window(xp, off, t, n_future, n_past)
        y = float(np.dot(taps, win))
        outputs[i] = y
        y_recent[1:] = y_recent[:-1]
        y_recent[0] = y
        e = d[i] + float(np.dot(s_true, y_recent))
        errors[i] = e
        guard_divergence(e, context)
        if adapt and (adapt_mask is None or adapt_mask[i]):
            winf = tap_window(xfp, offf, t, n_future, n_past)
            step = effective_step(mu, winf, normalized)
            if leak:
                taps *= (1.0 - leak)
            taps -= step * e * winf
    state.time += d.size
    return errors, outputs


def lms_run(x, d, taps, window, mu, normalized=True, leak=0.0,
            context="LmsFilter"):
    """Causal (N)LMS predict-then-adapt over whole waveforms.

    ``window`` is the engine's newest-first shift register; both it and
    ``taps`` are updated in place so single-sample ``step()`` calls can
    resume where the run left off.  Returns ``(predictions, errors)``.
    """
    predictions = np.empty(x.size)
    errors = np.empty(x.size)
    for t in range(x.size):
        window[1:] = window[:-1]
        window[0] = x[t]
        prediction = float(np.dot(taps, window))
        error = float(d[t]) - prediction
        guard_divergence(error, context)
        step = effective_step(mu, window, normalized)
        if leak:
            taps *= (1.0 - leak)
        taps += step * error * window
        predictions[t] = prediction
        errors[t] = error
    return predictions, errors


def rls_run(x, d, taps, window, P, forgetting, context="RlsFilter"):
    """Exponentially-weighted RLS over whole waveforms.

    ``taps``, ``window`` (newest-first) and the inverse-correlation
    matrix ``P`` are updated in place.  Returns
    ``(predictions, errors)``.
    """
    predictions = np.empty(x.size)
    errors = np.empty(x.size)
    P_local = P
    for t in range(x.size):
        window[1:] = window[:-1]
        window[0] = x[t]
        u = window
        prediction = float(np.dot(taps, u))
        error = float(d[t]) - prediction
        guard_divergence(error, context)

        Pu = P_local @ u
        denom = forgetting + float(np.dot(u, Pu))
        gain = Pu / denom
        taps += gain * error
        # Joseph-free rank-1 downdate; re-symmetrize to fight drift.
        P_local = (P_local - np.outer(gain, Pu)) / forgetting
        P_local = 0.5 * (P_local + P_local.T)
        predictions[t] = prediction
        errors[t] = error
    P[:] = P_local
    return predictions, errors


def apa_run(x, d, taps, window, U, d_ring, mu, epsilon,
            context="ApaFilter"):
    """Affine-projection adaptation over whole waveforms.

    ``taps``, ``window``, the input-window ring ``U`` (rows, newest
    first) and the desired-sample ring ``d_ring`` are updated in place.
    Returns ``(predictions, errors)``.
    """
    from scipy import linalg

    order = U.shape[0]
    predictions = np.empty(x.size)
    errors = np.empty(x.size)
    eye = np.eye(order)
    for t in range(x.size):
        window[1:] = window[:-1]
        window[0] = x[t]
        U[1:] = U[:-1]
        U[0] = window
        d_ring[1:] = d_ring[:-1]
        d_ring[0] = d[t]

        prediction = float(np.dot(taps, window))
        error = float(d[t]) - prediction
        guard_divergence(error, context)

        # Error vector over the projection window.
        e_vec = d_ring - U @ taps
        gram = U @ U.T + epsilon * eye
        try:
            solved = linalg.solve(gram, e_vec, assume_a="pos")
        except linalg.LinAlgError:   # pragma: no cover - eps prevents this
            solved = linalg.lstsq(gram, e_vec)[0]
        taps += mu * (U.T @ solved)
        predictions[t] = prediction
        errors[t] = error
    return predictions, errors


def multiref_run(states, taps_list, d, mu, normalized=True, leak=0.0,
                 adapt=True, context="MultiRefLancFilter"):
    """Multi-reference two-sided FxLMS: one fresh state per branch.

    All branches share the error signal and the (true) secondary path
    of ``states[0]``; the NLMS step is normalized by the *total*
    filtered-window power across branches.  Each branch's taps are
    updated in place.  Returns ``(errors, outputs)``.
    """
    s_true = states[0].secondary_true
    n_past = states[0].n_past
    T = d.size
    branches = [padded_reference(st.x, 0, n_past)
                + padded_reference(st.xf, 0, n_past) + (st.n_future,)
                for st in states]

    y_recent = np.zeros(s_true.size)
    errors = np.empty(T)
    outputs = np.empty(T)

    for t in range(T):
        y = 0.0
        windows_f = []
        for taps, (xp, off, xfp, offf, n_future) in zip(taps_list,
                                                        branches):
            win = tap_window(xp, off, t, n_future, n_past)
            y += float(np.dot(taps, win))
            if adapt:
                windows_f.append(
                    tap_window(xfp, offf, t, n_future, n_past)
                )
        outputs[t] = y
        y_recent[1:] = y_recent[:-1]
        y_recent[0] = y
        e = d[t] + float(np.dot(s_true, y_recent))
        errors[t] = e
        guard_divergence(e, context)
        if adapt:
            total_power = sum(float(np.dot(w, w)) for w in windows_f)
            step = (mu / (total_power + 1e-8) if normalized else mu)
            for taps, winf in zip(taps_list, windows_f):
                if leak:
                    taps *= (1.0 - leak)
                taps -= step * e * winf
    return errors, outputs
