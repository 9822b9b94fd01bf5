"""Microbenchmarks of the hot computational kernels.

Unlike the figure benches these are true repeated-timing benchmarks:
the LANC sample loop (the per-sample cost a real DSP must sustain), the
image-source RIR builder, GCC-PHAT, and the FM chain.

``test_kernel_backend_sweep`` times every adaptation engine on the
program's kernels (``vector``) and on the per-sample ``loop`` oracle
from ``tests/reference`` swapped in at the engines' call sites (see
``docs/KERNELS.md``), and writes the table — median/best/worst of N
per backend, the best-of-N speedup, and the host fingerprint — to
``BENCH_kernels.json``; every engine must match its oracle to ≤ 1e-10,
the LANC row must clear the 3x contract and the RLS row the 2x
contract.
"""

import contextlib

import numpy as np
import pytest

from _bench_utils import host_fingerprint, time_call, write_bench_json
from repro.acoustics import Point, Room, room_impulse_response
from repro.core import (ApaFilter, LancFilter, LmsFilter,
                        MultiRefLancFilter, RlsFilter, StreamingLanc,
                        gcc_phat)
from repro.signals import WhiteNoise
from repro.wireless import FmDemodulator, FmModulator
from tests.reference import reference_kernels

#: The kernels must beat the loop oracle by at least this much on the
#: LANC sample loop (the contract in docs/KERNELS.md).
LANC_SPEEDUP_FLOOR = 3.0

#: And on the RLS walk, whose kernel rides BLAS ``dsymv`` / ``dsyr``
#: symmetric rank-1 updates (see docs/PERFORMANCE.md).
RLS_SPEEDUP_FLOOR = 2.0

#: Timed repeats per engine and backend.
REPEATS = 3

#: ``backend`` name -> the context its engines run in.
_KERNELS = {"loop": reference_kernels, "vector": contextlib.nullcontext}


@pytest.fixture(scope="module")
def white_second():
    return WhiteNoise(seed=0, level_rms=0.2).generate(1.0)


@pytest.mark.parametrize("backend", ["loop", "vector"])
def test_lanc_loop_one_second(benchmark, white_second, backend):
    """One second of 8 kHz audio through a 64+512-tap LANC filter."""
    s = np.zeros(8)
    s[2] = 1.0
    d = np.convolve(white_second, np.array([0.0] * 12 + [0.5]))[:8000]

    def run():
        f = LancFilter(n_future=64, n_past=512, secondary_path=s, mu=0.1)
        with _KERNELS[backend]():
            return f.run(white_second, d)

    result = benchmark(run)
    assert np.all(np.isfinite(result.error))


def _sweep_workloads(x, d, s):
    """(name, run) per engine; run() -> the engine's error signal.

    Fresh filter per call — taps mutate, so a shared instance would
    time convergence from different starting points.
    """

    def lanc():
        f = LancFilter(n_future=64, n_past=512, secondary_path=s, mu=0.1)
        return f.run(x, d).error

    def streaming():
        f = LancFilter(n_future=64, n_past=512, secondary_path=s, mu=0.1)
        st = StreamingLanc(f)
        st.close(x)
        out = [st.process(d[i:i + 160]) for i in range(0, d.size, 160)]
        return np.concatenate(out)

    def lms():
        return LmsFilter(n_taps=128, mu=0.1).run(x, d).error

    def rls():
        return RlsFilter(n_taps=48).run(x, d).error

    def apa():
        return ApaFilter(n_taps=128, order=4, mu=0.2).run(x, d).error

    def multiref():
        f = MultiRefLancFilter(n_futures=[32, 32], n_past=192,
                               secondary_path=s, mu=0.1)
        return f.run([x, np.roll(x, 3)], d).error

    return [("lanc", lanc), ("streaminglanc", streaming), ("lms", lms),
            ("rls", rls), ("apa", apa), ("multiref", multiref)]


def test_kernel_backend_sweep(white_second, report):
    """Every engine, kernels vs loop oracle: wall times + speedups -> JSON."""
    s = np.zeros(8)
    s[2] = 1.0
    d = np.convolve(white_second, np.array([0.0] * 12 + [0.5]))[:8000]

    rows = []
    for name, run in _sweep_workloads(white_second, d, s):
        timings = {}
        outputs = {}
        for backend, kernels in _KERNELS.items():
            with kernels():
                timing = time_call(run, repeats=REPEATS)
            outputs[backend] = timing.result
            timings[backend] = timing
        max_dev = float(np.max(np.abs(outputs["vector"] - outputs["loop"])))
        rows.append({
            "engine": name,
            "loop": timings["loop"].to_dict(),
            "vector": timings["vector"].to_dict(),
            "speedup": timings["loop"].best_s / timings["vector"].best_s,
            "max_abs_deviation": max_dev,
        })
        assert max_dev <= 1e-10, f"{name}: kernel and oracle disagree " \
            f"({max_dev})"

    path = write_bench_json("kernels", {
        "schema": "repro.bench.kernels/v2",
        "host": host_fingerprint(),
        "workload": "1 s of white noise at 8 kHz",
        "backends": {
            "loop": "tests/reference/loop.py oracle",
            "vector": "repro.core.adaptive.kernels (the program)",
        },
        "speedup": "best-of-N loop / best-of-N vector",
        "lanc_speedup_floor": LANC_SPEEDUP_FLOOR,
        "rls_speedup_floor": RLS_SPEEDUP_FLOOR,
        "rows": rows,
    })

    lines = [f"{'engine':<14} {'loop (median)':>14} {'vector (median)':>16} "
             f"{'speedup':>8}"]
    for row in rows:
        lines.append(f"{row['engine']:<14} {row['loop']['median_s']:>13.3f}s "
                     f"{row['vector']['median_s']:>15.3f}s "
                     f"{row['speedup']:>7.2f}x")
    report("\n".join(lines) + f"\n[written to {path}]")

    by_engine = {row["engine"]: row for row in rows}
    assert by_engine["lanc"]["speedup"] >= LANC_SPEEDUP_FLOOR, \
        f"LANC kernel speedup {by_engine['lanc']['speedup']:.2f}x < " \
        f"{LANC_SPEEDUP_FLOOR}x"
    assert by_engine["rls"]["speedup"] >= RLS_SPEEDUP_FLOOR, \
        f"RLS kernel speedup {by_engine['rls']['speedup']:.2f}x < " \
        f"{RLS_SPEEDUP_FLOOR}x"


def test_rir_build(benchmark):
    """Third-order image-source RIR for the bench room."""
    room = Room(6.0, 5.0, 3.0, absorption=0.3)

    ir = benchmark(room_impulse_response, room, Point(1.0, 0.8, 1.2),
                   Point(4.5, 2.5, 1.2), 8000.0)
    assert ir.size > 100


def test_gcc_phat_one_second(benchmark, white_second):
    """Relay-selection correlation over 1 s of audio."""
    ear = np.zeros_like(white_second)
    ear[40:] = white_second[:-40]

    lags, corr = benchmark(gcc_phat, white_second, ear, 8000.0)
    assert lags[np.argmax(corr)] > 0


def test_fm_roundtrip_one_second(benchmark, white_second):
    """Modulate + demodulate 1 s of audio at 96 kHz baseband."""
    mod = FmModulator()
    dem = FmDemodulator()

    def roundtrip():
        return dem.demodulate(mod.modulate(white_second))

    out = benchmark(roundtrip)
    assert out.size == white_second.size


def test_block_lanc_one_second(benchmark, white_second):
    """Block LANC on the same workload — the 'faster DSP' speed path."""
    import numpy as np

    from repro.core import BlockLancFilter

    s = np.zeros(8)
    s[2] = 1.0
    d = np.convolve(white_second, np.array([0.0] * 12 + [0.5]))[:8000]

    def run():
        f = BlockLancFilter(n_future=64, n_past=512, secondary_path=s,
                            mu=0.1, block_size=64)
        return f.run(white_second, d)

    result = benchmark(run)
    assert np.all(np.isfinite(result.error))
