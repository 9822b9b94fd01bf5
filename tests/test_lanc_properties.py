"""Property-based tests on the LANC algorithm's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FxlmsFilter, LancFilter, StreamingLanc

SECONDARY = np.array([0.0, 1.0, 0.1])


def _scene(seed, T=2500, delta=10):
    rng = np.random.default_rng(seed)
    n = rng.standard_normal(T)
    x = np.zeros(T)
    x[delta:] = np.convolve(n, [1.0, 1.3])[:T][:-delta]
    d = np.zeros(T)
    d[delta:] = n[:-delta]
    return x, d


class TestScaleEquivariance:
    """NLMS trajectories are invariant to joint input scaling.

    Exact up to the step-size regularizer epsilon (1e-8), which is not
    scale-invariant — hence the loose-but-tiny tolerances.
    """

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=50),
           st.floats(min_value=0.05, max_value=20.0))
    def test_error_scales_linearly(self, seed, gain):
        x, d = _scene(seed)
        f1 = LancFilter(4, 24, SECONDARY, mu=0.5)
        e1 = f1.run(x, d).error
        f2 = LancFilter(4, 24, SECONDARY, mu=0.5)
        e2 = f2.run(gain * x, gain * d).error
        np.testing.assert_allclose(e2, gain * e1, rtol=1e-4,
                                   atol=1e-5 * gain)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=50),
           st.floats(min_value=0.1, max_value=10.0))
    def test_taps_invariant_to_joint_scaling(self, seed, gain):
        x, d = _scene(seed)
        f1 = LancFilter(4, 24, SECONDARY, mu=0.5)
        f1.run(x, d)
        f2 = LancFilter(4, 24, SECONDARY, mu=0.5)
        f2.run(gain * x, gain * d)
        np.testing.assert_allclose(f1.taps, f2.taps, rtol=1e-4,
                                   atol=1e-6)


class TestZeroInputs:
    def test_zero_disturbance_keeps_taps_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        f = LancFilter(4, 16, SECONDARY, mu=0.5)
        result = f.run(x, np.zeros(1000))
        np.testing.assert_array_equal(f.taps, 0.0)
        np.testing.assert_array_equal(result.error, 0.0)

    def test_zero_reference_never_updates(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal(1000)
        f = LancFilter(4, 16, SECONDARY, mu=0.5)
        result = f.run(np.zeros(1000), d)
        np.testing.assert_array_equal(f.taps, 0.0)
        np.testing.assert_array_equal(result.error, d)


class TestMonotoneResources:
    """More taps / more lookahead never hurt (statistically)."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=30))
    def test_more_future_taps_not_worse(self, seed):
        x, d = _scene(seed, T=6000)
        errors = []
        for n_future in (0, 8):
            f = LancFilter(n_future, 32, SECONDARY, mu=0.5)
            errors.append(f.run(x, d).converged_error())
        assert errors[1] <= errors[0] * 1.1

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=30))
    def test_fxlms_is_special_case(self, seed):
        x, d = _scene(seed, T=1500)
        a = FxlmsFilter(24, SECONDARY, mu=0.5)
        ra = a.run(x, d)
        b = LancFilter(0, 24, SECONDARY, mu=0.5)
        rb = b.run(x, d)
        np.testing.assert_array_equal(ra.error, rb.error)


class TestEnergyAccounting:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=50))
    def test_converged_error_below_disturbance(self, seed):
        x, d = _scene(seed, T=6000)
        f = LancFilter(8, 32, SECONDARY, mu=0.5)
        result = f.run(x, d)
        d_rms = float(np.sqrt(np.mean(d[-1500:] ** 2)))
        assert result.converged_error() < d_rms

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=50))
    def test_output_finite(self, seed):
        x, d = _scene(seed, T=2000)
        f = LancFilter(8, 32, SECONDARY, mu=0.5)
        result = f.run(x, d)
        assert np.all(np.isfinite(result.output))
        assert np.all(np.isfinite(result.taps))


class TestBlocksEqualWholeSignal:
    """Processing in blocks equals processing the whole signal."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=10),
           st.lists(st.integers(min_value=1, max_value=1200), min_size=1,
                    max_size=6),
           st.booleans(), st.booleans())
    def test_run_equals_stream_over_any_partition(self, seed, n_future,
                                                  cuts, adapt, warm):
        x, d = _scene(seed)
        T = x.size
        start = (np.random.default_rng(seed).standard_normal(
            n_future + 24) * 0.05 if warm else np.zeros(n_future + 24))
        f1 = LancFilter(n_future, 24, SECONDARY, mu=0.5)
        f1.set_taps(start)
        whole = f1.run(x, d, adapt=adapt)

        f2 = LancFilter(n_future, 24, SECONDARY, mu=0.5)
        f2.set_taps(start)
        stream = StreamingLanc(f2)
        stream.close(x)
        bounds = sorted({c for c in np.cumsum(cuts) if c < T}) + [T]
        t0 = 0
        for t1 in bounds:
            stream.process(d[t0:t1], adapt=adapt)
            t0 = t1
        np.testing.assert_array_equal(stream.error_signal(), whole.error)
        np.testing.assert_array_equal(f2.taps, f1.taps)
