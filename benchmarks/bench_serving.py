"""Serving-runtime benchmark: sessions vs throughput, batched vs serial.

The tentpole claim of :mod:`repro.serving` is that stacking sessions
into one cross-session kernel call beats advancing them one at a time
— the Python-level per-call overhead is paid once per *block*, not
once per *session-block*.  This bench sweeps the fleet size over both
schedules, verifies the outputs stay bit-identical (the serving
contract), writes the sweep — each schedule's repeat spread plus the
host fingerprint — to ``BENCH_serving.json``
(``repro.bench.serving/v2``), and asserts the floor: **batched ≥ 3x
serial at 64 concurrent sessions** (on the best repeat).

Run with::

    pytest benchmarks/bench_serving.py -s
"""

import time

from _bench_utils import host_fingerprint, time_call, write_bench_json
from repro.serving import ServerConfig, SessionServer, SessionWorkload

#: Batched serving must beat serial serving by at least this much at
#: the widest fleet (the contract in docs/SERVING.md).
SERVING_SPEEDUP_FLOOR = 3.0

#: Fleet sizes swept (the floor applies to the last one).
FLEET_SIZES = (1, 8, 64)

#: Simulated seconds of audio per session.
DURATION_S = 0.25


def _drain(sessions, batched, seed=0):
    """Build a fleet and drain it; returns the ServingReport."""
    config = ServerConfig(batched=batched, max_sessions=max(sessions, 1))
    server = SessionServer(config)
    for i in range(sessions):
        server.submit(SessionWorkload.synthetic(
            f"user{i}", duration_s=DURATION_S, seed=seed + i,
            sample_rate=config.session.sample_rate))
    return server.run_until_drained()


def test_serving_throughput_sweep(report):
    """Fleet sweep, both schedules: wall times + speedups -> JSON."""
    rows = []
    for sessions in FLEET_SIZES:
        timings = {}
        digests = {}
        blocks = {}
        for schedule in ("serial", "batched"):
            timing = time_call(
                lambda s=sessions, b=(schedule == "batched"):
                _drain(s, batched=b),
                repeats=2)
            rep = timing.result
            timings[schedule] = timing
            digests[schedule] = rep.digests()
            blocks[schedule] = rep.session_blocks
        assert digests["serial"] == digests["batched"], \
            f"serving schedules disagree at {sessions} session(s)"
        serial_s = timings["serial"].best_s
        batched_s = timings["batched"].best_s
        rows.append({
            "sessions": sessions,
            "session_blocks": blocks["batched"],
            "serial_s": serial_s,
            "batched_s": batched_s,
            "serial": timings["serial"].to_dict(),
            "batched": timings["batched"].to_dict(),
            "serial_blocks_per_s": blocks["serial"] / serial_s,
            "batched_blocks_per_s": blocks["batched"] / batched_s,
            "speedup": serial_s / batched_s,
        })

    path = write_bench_json("serving", {
        "schema": "repro.bench.serving/v2",
        "host": host_fingerprint(),
        "workload": f"{DURATION_S} s of white noise per session at 8 kHz, "
                    f"block 256, 224 taps",
        "serving_speedup_floor": SERVING_SPEEDUP_FLOOR,
        "rows": rows,
    })

    lines = [f"{'sessions':>8} {'serial':>9} {'batched':>9} "
             f"{'speedup':>8} {'blocks/s':>10}"]
    for row in rows:
        lines.append(
            f"{row['sessions']:>8} {row['serial_s']:>8.3f}s "
            f"{row['batched_s']:>8.3f}s {row['speedup']:>7.2f}x "
            f"{row['batched_blocks_per_s']:>10.0f}")
    report("\n".join(lines) + f"\n[written to {path}]")

    widest = rows[-1]
    assert widest["sessions"] == max(FLEET_SIZES)
    assert widest["speedup"] >= SERVING_SPEEDUP_FLOOR, \
        f"batched serving speedup {widest['speedup']:.2f}x < " \
        f"{SERVING_SPEEDUP_FLOOR}x at {widest['sessions']} sessions"


def test_serving_admission_overhead(report):
    """Submission + admission cost for a deep queue (no kernel work)."""
    from repro.serving import SessionManager

    started = time.perf_counter()
    manager = SessionManager(max_sessions=32, queue_depth=1024)
    for i in range(256):
        manager.submit(SessionWorkload.synthetic(
            f"user{i}", duration_s=0.05, seed=i))
    admitted = manager.admit(0)
    wall = time.perf_counter() - started
    assert len(admitted) == 32
    assert len(manager.pending) == 224
    report(f"256 submissions + first admission wave in {wall * 1e3:.1f} ms")
