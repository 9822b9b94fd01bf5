"""End-to-end pipeline benchmark: the program vs its reference oracles.

The committed regression gate for the fast-path work
(``docs/PERFORMANCE.md``): one fig12-style workload — the bench
scenario, an :class:`~repro.wireless.relay.AnalogRelay` FM chain, and
seeded white noise — is timed in two legs, each twice:

* **run** — :meth:`MuteSystem.run <repro.core.system.MuteSystem.run>`
  on an already constructed system (propagate, relay, align, adapt,
  collect);
* **construct_and_run** — what a user pays: ``AnalogRelay(...)``
  (latency calibration) and ``MuteSystem(...)`` (image-source channels,
  secondary-path probe), then ``run()``.

and each leg as

* **baseline** — the slow formulations in ``tests/reference``, swapped
  in at the program's call sites: the per-sample ``loop`` kernels and
  the pre-fast-path signal arithmetic (per-image RIR loop,
  ``fftconvolve`` / ``lfilter``, ``resample_poly``, textbook FM/AM,
  out-of-place RF channel), so this bench has an honest denominator;
* **fast** — the program as shipped.

Each leg asserts the **speedup floor** (fast beats baseline by ≥
:data:`PIPELINE_SPEEDUP_FLOOR`) and the **correctness contract**
(residuals agree to ≤ :data:`RESIDUAL_TOLERANCE` max abs).  Both legs
land in ``BENCH_pipeline.json`` — median/best/worst of N per variant
and the host fingerprint — the artifact the CI perf-smoke job runs and
uploads.

Run with::

    pytest benchmarks/bench_pipeline.py -s
"""

import contextlib
import json

import numpy as np
import pytest

from _bench_utils import host_fingerprint, time_call, write_bench_json
from repro.core.system import MuteSystem
from repro.eval.experiments.common import bench_scenario, default_config
from repro.signals import WhiteNoise
from repro.wireless.relay import AnalogRelay
from tests.reference import reference_kernels, reference_signal_path

#: The fast configuration must beat the slow baseline end to end by at
#: least this much, in both legs (committed floor leaves headroom for
#: slower CI machines).
PIPELINE_SPEEDUP_FLOOR = 2.0

#: Max abs deviation allowed between fast and baseline residuals — the
#: kernel-vs-oracle contract; every signal-path fast path is
#: individually bit-identical or ≤ 1e-12 (tests/test_fastconv.py,
#: tests/test_fm.py, tests/test_rir.py).
RESIDUAL_TOLERANCE = 1e-10

#: Simulated seconds of the fig12 workload.
DURATION_S = 4.0

#: Workload seed (the Figure 12 seed).
SEED = 7

#: Timed repeats per variant (after one warm-up call).
REPEATS = 3


def _build_system():
    scenario = bench_scenario()
    relay = AnalogRelay(audio_rate=scenario.sample_rate, seed=SEED)
    config = default_config(relay=relay, seed=SEED)
    return MuteSystem(scenario, config)


def _construct_and_run(noise):
    """One whole job: construction (channels included) plus run."""
    return _build_system().run(noise)


@contextlib.contextmanager
def _reference(signal_path=True):
    """The loop oracle kernels, plus the signal-path oracles if asked."""
    with reference_kernels(), (reference_signal_path() if signal_path
                               else contextlib.nullcontext()):
        yield


VARIANTS = {
    "baseline": ("tests/reference oracles", _reference),
    "fast": ("program", contextlib.nullcontext),
}


def _time_leg(noise, leg):
    """One leg: baseline and fast rows, speedup and residual deviation."""
    rows, residuals = {}, {}
    for name, (path, context) in VARIANTS.items():
        with context():
            if leg == "run":
                system = _build_system()
                timing = time_call(lambda: system.run(noise),
                                   repeats=REPEATS, warmup=1)
            else:
                timing = time_call(lambda: _construct_and_run(noise),
                                   repeats=REPEATS, warmup=1)
        rows[name] = {"path": path, **timing.to_dict()}
        residuals[name] = timing.result
    base, fast = rows["baseline"], rows["fast"]
    return {
        "baseline": base,
        "fast": fast,
        "speedup": base["median_s"] / fast["median_s"],
        "max_abs_residual_deviation": float(np.max(np.abs(
            residuals["fast"].residual - residuals["baseline"].residual))),
        "mean_cancellation_db_low_band": float(
            residuals["fast"].mean_cancellation_db(f_high=1000.0)),
    }


@pytest.fixture(scope="module")
def legs():
    """Both legs, timed once per test module and written to the artifact."""
    noise = WhiteNoise(sample_rate=8000.0, level_rms=0.1,
                       seed=SEED).generate(DURATION_S)
    results = {leg: _time_leg(noise, leg)
               for leg in ("run", "construct_and_run")}
    path = write_bench_json("pipeline", {
        "schema": "repro.bench.pipeline/v2",
        "host": host_fingerprint(),
        "workload": {
            "kind": "fig12-white-noise",
            "duration_s": DURATION_S,
            "seed": SEED,
            "relay": "analog",
            "relay_rf_rate_hz": AnalogRelay(audio_rate=8000.0).rf_rate,
            "scenario": "bench (6x5x3 m room)",
        },
        "pipeline_speedup_floor": PIPELINE_SPEEDUP_FLOOR,
        "residual_tolerance": RESIDUAL_TOLERANCE,
        "legs": results,
    })
    return results, path


def _report_leg(report, name, leg, path):
    base, fast = leg["baseline"], leg["fast"]

    def row(label, r):
        return (f"  {label:<29} median {r['median_s']:.3f} s  best "
                f"{r['best_s']:.3f}  worst {r['worst_s']:.3f}\n")

    report(
        f"end-to-end {name}, {DURATION_S:.0f} s fig12 workload\n"
        + row("baseline (reference oracles)", base)
        + row("fast (program)", fast)
        + f"  speedup {leg['speedup']:.2f}x (floor "
        f"{PIPELINE_SPEEDUP_FLOOR}x), max residual dev "
        f"{leg['max_abs_residual_deviation']:.2e}\n"
        f"[written to {path}]"
    )


def _check_leg(leg):
    assert leg["max_abs_residual_deviation"] <= RESIDUAL_TOLERANCE, \
        f"fast pipeline diverges from baseline: " \
        f"{leg['max_abs_residual_deviation']:.3e}"
    assert leg["speedup"] >= PIPELINE_SPEEDUP_FLOOR, \
        f"pipeline speedup {leg['speedup']:.2f}x < {PIPELINE_SPEEDUP_FLOOR}x"


def test_pipeline_fast_vs_slow(report, legs):
    """``MuteSystem.run``: speedup floor + residual agreement.

    Construction sits outside the timer here; both variants make the
    same number of ``run`` calls, so the relay's seeded RF-noise stream
    stays comparable.
    """
    results, path = legs
    _report_leg(report, "MuteSystem.run", results["run"], path)
    _check_leg(results["run"])


def test_construct_and_run_fast_vs_slow(report, legs):
    """Relay + system construction, then ``run()``."""
    results, path = legs
    _report_leg(report, "construct-and-run", results["construct_and_run"],
                path)
    _check_leg(results["construct_and_run"])
    json.loads(path.read_text(encoding="utf-8"))


def test_fastpath_alone_is_transparent(report):
    """Same oracle kernels, signal-path oracles on vs off.

    Isolates the RIR/conv/resample/mod-demod/RF fast paths from the
    kernel change — on the same ``loop`` oracle kernels, construction
    included, the only deviations left are rounding-level (≤ ~1e-12 end
    to end).
    """
    noise = WhiteNoise(sample_rate=8000.0, level_rms=0.1,
                       seed=SEED).generate(1.0)
    with _reference(signal_path=True):
        slow = _construct_and_run(noise)
    with _reference(signal_path=False):
        fast = _construct_and_run(noise)
    max_dev = float(np.max(np.abs(fast.residual - slow.residual)))
    report(f"fastpath-only max residual dev: {max_dev:.2e}")
    assert max_dev <= RESIDUAL_TOLERANCE
