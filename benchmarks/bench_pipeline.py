"""End-to-end pipeline benchmark: the program vs its reference oracles.

The committed regression gate for the profile-guided fast-path work
(``docs/PERFORMANCE.md``): one fig12-style workload — the bench
scenario, an :class:`~repro.wireless.relay.AnalogRelay` FM chain, and
seeded white noise — is run end to end through
:meth:`MuteSystem.run <repro.core.system.MuteSystem.run>` twice:

* **baseline** — the slow formulations in ``tests/reference``, swapped
  in at the program's call sites: the per-sample ``loop`` kernels and
  the pre-fast-path signal arithmetic (``fftconvolve`` / ``lfilter`` /
  uncached ``resample_poly`` / textbook FM and AM), so this bench has
  an honest denominator;
* **fast** — the program as shipped: vectorized BLAS kernels,
  cached-FFT overlap-save convolution, cached polyphase resampling,
  in-place mod/demod.

The bench asserts both the **speedup floor** (fast must beat baseline
by ≥ :data:`PIPELINE_SPEEDUP_FLOOR`) and the **correctness contract**
(residuals agree to ≤ :data:`RESIDUAL_TOLERANCE` max abs), and writes
the result to ``BENCH_pipeline.json`` — the artifact the CI perf-smoke
job runs and uploads.

Run with::

    pytest benchmarks/bench_pipeline.py -s
"""

import contextlib

import numpy as np

from _bench_utils import time_call, write_bench_json
from repro.core.system import MuteSystem
from repro.eval.experiments.common import bench_scenario, default_config
from repro.signals import WhiteNoise
from repro.wireless.relay import AnalogRelay
from tests.reference import reference_kernels, reference_signal_path

#: The fast configuration must beat the slow baseline end to end by at
#: least this much (measured ~5x on the reference container; committed
#: floor leaves headroom for slower CI machines).
PIPELINE_SPEEDUP_FLOOR = 2.0

#: Max abs deviation allowed between fast and baseline residuals — the
#: kernel-vs-oracle contract; every conv/resample fast path is
#: individually bit-identical or ≤ 1e-12 (tests/test_fastconv.py).
RESIDUAL_TOLERANCE = 1e-10

#: Simulated seconds of the fig12 workload.
DURATION_S = 4.0

#: Workload seed (the Figure 12 seed).
SEED = 7


def _build_system():
    scenario = bench_scenario()
    relay = AnalogRelay(audio_rate=scenario.sample_rate, seed=SEED)
    config = default_config(relay=relay, seed=SEED)
    return MuteSystem(scenario, config)


@contextlib.contextmanager
def _reference(signal_path=True):
    """The loop oracle kernels, plus the signal-path oracles if asked."""
    with reference_kernels(), (reference_signal_path() if signal_path
                               else contextlib.nullcontext()):
        yield


def _run_once(noise, signal_path):
    """One end-to-end run on the loop oracle kernels."""
    with _reference(signal_path):
        return _build_system().run(noise)


def test_pipeline_fast_vs_slow(report):
    """Fast vs slow end to end: speedup floor + residual agreement.

    The timed region is :meth:`MuteSystem.run` — the per-workload
    pipeline (propagate, relay, align, adapt, collect).  System
    construction (secondary-path probe, relay latency calibration) is
    a one-time setup cost shared by both variants and sits outside the
    timer; both variants make the same number of ``run`` calls so the
    relay's seeded RF-noise stream stays comparable.
    """
    noise = WhiteNoise(sample_rate=8000.0, level_rms=0.1,
                       seed=SEED).generate(DURATION_S)

    variants = {
        "baseline": ("tests/reference oracles", _reference),
        "fast": ("program", contextlib.nullcontext),
    }
    rows = {}
    for name, (path, context) in variants.items():
        with context():
            system = _build_system()
            timing = time_call(lambda: system.run(noise),
                               repeats=3, warmup=1)
        rows[name] = {"path": path, **timing.to_dict()}
        rows[name]["result"] = timing.result

    base, fast = rows["baseline"], rows["fast"]
    max_dev = float(np.max(np.abs(
        fast["result"].residual - base["result"].residual)))
    speedup = base["median_s"] / fast["median_s"]
    cancellation_db = float(
        fast["result"].mean_cancellation_db(f_high=1000.0))
    for row in rows.values():
        del row["result"]

    path = write_bench_json("pipeline", {
        "schema": "repro.bench.pipeline/v1",
        "workload": {
            "kind": "fig12-white-noise",
            "duration_s": DURATION_S,
            "seed": SEED,
            "relay": "analog",
            "scenario": "bench (6x5x3 m room)",
        },
        "pipeline_speedup_floor": PIPELINE_SPEEDUP_FLOOR,
        "residual_tolerance": RESIDUAL_TOLERANCE,
        "baseline": base,
        "fast": fast,
        "speedup": speedup,
        "max_abs_residual_deviation": max_dev,
        "mean_cancellation_db_low_band": cancellation_db,
    })

    report(
        f"end-to-end MuteSystem.run, {DURATION_S:.0f} s fig12 workload\n"
        f"  baseline (reference oracles) {base['median_s']:.3f} s\n"
        f"  fast (program)               {fast['median_s']:.3f} s\n"
        f"  speedup {speedup:.2f}x (floor {PIPELINE_SPEEDUP_FLOOR}x), "
        f"max residual dev {max_dev:.2e}\n"
        f"[written to {path}]"
    )

    assert max_dev <= RESIDUAL_TOLERANCE, \
        f"fast pipeline diverges from baseline: {max_dev:.3e}"
    assert speedup >= PIPELINE_SPEEDUP_FLOOR, \
        f"pipeline speedup {speedup:.2f}x < {PIPELINE_SPEEDUP_FLOOR}x"


def test_fastpath_alone_is_transparent(report):
    """Same oracle kernels, signal-path oracles on vs off.

    Isolates the conv/resample/mod-demod fast paths from the kernel
    change — on the same ``loop`` oracle kernels the only deviations
    left are the FFT-plan reuse effects (≤ ~1e-12 end to end).
    """
    noise = WhiteNoise(sample_rate=8000.0, level_rms=0.1,
                       seed=SEED).generate(1.0)
    slow = _run_once(noise, signal_path=True)
    fast = _run_once(noise, signal_path=False)
    max_dev = float(np.max(np.abs(fast.residual - slow.residual)))
    report(f"fastpath-only max residual dev: {max_dev:.2e}")
    assert max_dev <= RESIDUAL_TOLERANCE
