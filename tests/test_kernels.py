"""The kernel layer's contract: the kernels match their oracle.

Two families of guarantees (see ``docs/KERNELS.md``):

* **the loop oracle is the reference** — for the engines that still
  expose a per-sample ``step()`` (LMS/RLS/APA), a ``run()`` through the
  ``tests/reference/loop.py`` oracle is *bit-identical* to stepping
  sample by sample;
* **the kernels match the oracle to ≤ 1e-10** on every engine (and on
  the secondary-path probe built on one), property-tested over random
  scenes, tap geometries and block schedules.

``reference_kernels()`` swaps the oracle in at the engines' kernel
call sites, so each comparison runs the same engine code twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import kernels
from repro.core.adaptive.apa import ApaFilter
from repro.core.adaptive.kernels import KernelState
from repro.core.adaptive.lanc import LancFilter, StreamingLanc
from repro.core.adaptive.lms import LmsFilter
from repro.core.adaptive.multiref import MultiRefLancFilter
from repro.core.adaptive.rls import RlsFilter
from repro.core.secondary_path import estimate_secondary_path
from repro.errors import ConfigurationError, ConvergenceError
from repro.utils import fastpath
from tests.reference import reference_kernels

TOL = 1e-10
S_HAT = np.array([0.7, 0.25, -0.1])
S_TRUE = np.array([0.65, 0.3, -0.12])


def _scene(seed, T=1500):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    d = -np.convolve(x, np.array([0.4, 0.2, 0.1]))[:T]
    return x, d


def _oracle_and_kernel(run):
    """``run()`` through the loop oracle, then through the kernels."""
    with reference_kernels():
        oracle = run()
    return oracle, run()


class TestBackendEquivalence:
    """The kernels match the loop oracle to ≤ 1e-10 on every engine."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=1, max_value=48))
    def test_lanc_batch(self, seed, n_future, n_past):
        x, d = _scene(seed)
        ra, rb = _oracle_and_kernel(
            lambda: LancFilter(n_future, n_past, S_HAT, mu=0.3).run(
                x, d, secondary_path_true=S_TRUE))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.output, ra.output, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_lanc_batch_frozen_and_masked(self, seed):
        x, d = _scene(seed)
        rng = np.random.default_rng(seed + 1)
        mask = rng.random(x.size) > 0.4
        warm = rng.standard_normal(4 + 24) * 0.01
        for kwargs in ({"adapt": False}, {"adapt_mask": mask}):
            def run():
                f = LancFilter(4, 24, S_HAT, mu=0.3)
                f.set_taps(warm)
                return f.run(x, d, secondary_path_true=S_TRUE, **kwargs)
            ra, rb = _oracle_and_kernel(run)
            np.testing.assert_allclose(rb.error, ra.error, atol=TOL,
                                       rtol=0)
            np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=300))
    def test_streaming_blocks(self, seed, block):
        x, d = _scene(seed)
        n_future = 6

        def run():
            f = LancFilter(n_future, 32, S_HAT, mu=0.3)
            stream = StreamingLanc(f, secondary_path_true=S_TRUE)
            stream.close(x)
            for t0 in range(0, x.size, block):
                stream.process(d[t0: t0 + block])
            return stream

        streams = _oracle_and_kernel(run)
        np.testing.assert_allclose(streams[1].error_signal(),
                                   streams[0].error_signal(),
                                   atol=TOL, rtol=0)
        np.testing.assert_allclose(streams[1].filter.taps,
                                   streams[0].filter.taps,
                                   atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=32),
           st.booleans())
    def test_lms(self, seed, n_taps, normalized):
        x, d = _scene(seed, T=800)
        ra, rb = _oracle_and_kernel(
            lambda: LmsFilter(n_taps, mu=0.2 if normalized else 0.01,
                              normalized=normalized).run(x, d))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=24))
    def test_rls(self, seed, n_taps):
        x, d = _scene(seed, T=600)

        def run():
            f = RlsFilter(n_taps, forgetting=0.995)
            return f, f.run(x, d)

        (lo, ra), (ve, rb) = _oracle_and_kernel(run)
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)
        np.testing.assert_allclose(ve._P, lo._P, atol=TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=6))
    def test_apa(self, seed, order):
        x, d = _scene(seed, T=600)

        def run():
            f = ApaFilter(16, order=order, mu=0.4)
            return f, f.run(x, d)

        (lo, ra), (ve, rb) = _oracle_and_kernel(run)
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)
        np.testing.assert_allclose(ve._U, lo._U, atol=TOL, rtol=0)
        np.testing.assert_allclose(ve._d, lo._d, atol=TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_multiref(self, seed, nf_a, nf_b):
        x1, d = _scene(seed, T=900)
        x2, __ = _scene(seed + 7, T=900)
        ra, rb = _oracle_and_kernel(
            lambda: MultiRefLancFilter([nf_a, nf_b], 20, S_HAT,
                                       mu=0.2).run(
                [x1, x2], d, secondary_path_true=S_TRUE))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    def test_vector_also_diverges(self):
        x, d = _scene(0, T=2000)
        with pytest.raises(ConvergenceError), reference_kernels():
            LmsFilter(8, mu=5.0, normalized=False).run(x, 10.0 * d)
        with pytest.raises(ConvergenceError):
            LmsFilter(8, mu=5.0, normalized=False).run(x, 10.0 * d)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.0, max_value=0.05))
    def test_secondary_path_probe(self, seed, ambient_rms):
        """The secondary-path probe's multi-pass LMS walk."""
        channel = np.array([0.0, 0.6, 0.3, -0.15, 0.05])
        ra, rb = _oracle_and_kernel(
            lambda: estimate_secondary_path(
                channel, 12, probe_duration_s=0.1,
                ambient_noise_rms=ambient_rms, seed=seed))
        np.testing.assert_allclose(rb.impulse_response,
                                   ra.impulse_response, atol=TOL, rtol=0)
        assert abs(rb.residual_rms - ra.residual_rms) <= TOL


class TestLoopIsReference:
    """run() through the loop oracle ≡ the engines' per-sample step()."""

    def test_lms_run_matches_step(self):
        x, d = _scene(3, T=500)
        a = LmsFilter(12, mu=0.3)
        with reference_kernels():
            ra = a.run(x, d)
        b = LmsFilter(12, mu=0.3)
        stepped = np.array([b.step(x[t], d[t])[1] for t in range(x.size)])
        np.testing.assert_array_equal(ra.error, stepped)
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_rls_run_matches_step(self):
        x, d = _scene(4, T=400)
        a = RlsFilter(10)
        with reference_kernels():
            ra = a.run(x, d)
        b = RlsFilter(10)
        stepped = np.array([b.step(x[t], d[t])[1] for t in range(x.size)])
        np.testing.assert_array_equal(ra.error, stepped)
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a._P, b._P)

    def test_apa_run_matches_step(self):
        x, d = _scene(5, T=400)
        a = ApaFilter(10, order=3)
        with reference_kernels():
            ra = a.run(x, d)
        b = ApaFilter(10, order=3)
        stepped = np.array([b.step(x[t], d[t])[1] for t in range(x.size)])
        np.testing.assert_array_equal(ra.error, stepped)
        np.testing.assert_array_equal(a.taps, b.taps)


class TestStreamingEdgeCases:
    def _stream(self, n_future=4, n_past=16):
        f = LancFilter(n_future, n_past, S_HAT, mu=0.2)
        return StreamingLanc(f, secondary_path_true=S_TRUE)

    def test_underrun_error_message(self):
        x, d = _scene(0, T=200)
        stream = self._stream()
        stream.feed(x[:100])
        with pytest.raises(ConfigurationError,
                           match=r"reference underrun: need 104 fed "
                                 r"samples, have 100"):
            stream.process(d[:100])
        # Nothing was processed: time did not advance.
        assert stream.time == 0
        stream.process(d[:96])
        assert stream.time == 96

    def test_peek_future_past_fed_horizon(self):
        x, __ = _scene(1, T=50)
        stream = self._stream()
        stream.feed(x)
        np.testing.assert_array_equal(stream.peek_future(20), x[:20])
        # Asking beyond what was fed returns only what exists.
        assert stream.peek_future(80).size == 50
        np.testing.assert_array_equal(stream.peek_future(80), x)
        stream.process(np.zeros(30))
        np.testing.assert_array_equal(stream.peek_future(80), x[30:])

    def test_inactive_ringing_equivalent_across_backends(self):
        # Converge, then mute the speaker: the anti-noise already in
        # flight must ring through s_true identically on the oracle and
        # the kernels.
        x, d = _scene(2, T=900)

        def run():
            stream = self._stream()
            stream.feed(x)
            stream.process(d[:600])
            return stream.process(d[600:850], active=False)

        tails = _oracle_and_kernel(run)
        np.testing.assert_allclose(tails[1], tails[0], atol=TOL, rtol=0)
        # The first s_len-1 muted samples still carry ringing; after
        # that the residual is exactly the disturbance.
        s_len = S_TRUE.size
        assert not np.array_equal(tails[0][:s_len - 1], d[600:600 + s_len - 1])
        np.testing.assert_array_equal(tails[0][s_len - 1:],
                                      d[600 + s_len - 1: 850])


class TestOneImplementation:
    def test_reports_ignore_the_removed_switches(self, monkeypatch):
        """The fingerprint reports are constants, not env lookups."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "loop")
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert kernels.resolve_backend_name(None) == "vector"
        assert fastpath.enabled() is True


class TestKernelState:
    def test_segment_windows_match_convention(self):
        x = np.arange(10.0)
        state = KernelState(2, 3, np.array([1.0]))
        state.extend(x)
        state.close()

        def window(t):
            # The forward segment row for t, reversed: window[i] =
            # x(t + n_future - i), zeros outside the signal.
            seg, __ = state._segment(t - 2, t + 1 + 2)
            return seg[::-1]

        np.testing.assert_array_equal(window(4),
                                      np.array([6., 5., 4., 3., 2.]))
        np.testing.assert_array_equal(window(0),
                                      np.array([2., 1., 0., 0., 0.]))
        np.testing.assert_array_equal(window(9),
                                      np.array([0., 0., 9., 8., 7.]))
        # Writing into caller buffers gives the same layout.
        out = (np.full(8, np.nan), np.full(8, np.nan))
        state._segment(-2, 6, out=out)
        np.testing.assert_array_equal(out[0], state._segment(-2, 6)[0])
        np.testing.assert_array_equal(out[1], state._segment(-2, 6)[1])
        np.testing.assert_array_equal(out[0], [0., 0., 0., 1., 2., 3.,
                                               4., 5.])

    def test_streaming_filtered_reference_matches_batch(self):
        # Block-fed xf is the whole-signal convolution (lfilter's carry
        # is exact up to rounding across calls), and close() keeps the
        # ŝ ring-out of the last real samples.
        x, __ = _scene(8, T=300)
        stream = KernelState(2, 8, S_HAT)
        for t0 in range(0, 300, 37):
            stream.extend(x[t0: t0 + 37])
        assert stream.fed() == 300
        np.testing.assert_allclose(stream.xf, np.convolve(x, S_HAT)[:300],
                                   atol=1e-12, rtol=0)
        stream.close()
        assert stream.fed() == 302
        np.testing.assert_array_equal(stream.x[300:], np.zeros(2))
        np.testing.assert_allclose(stream.xf, np.convolve(x, S_HAT),
                                   atol=1e-12, rtol=0)
        # A known signal fed whole by close(x): its zero extension's
        # convolution, bit for bit.
        whole = KernelState(2, 8, S_HAT)
        whole.close(x)
        np.testing.assert_array_equal(whole.xf, np.convolve(x, S_HAT))
