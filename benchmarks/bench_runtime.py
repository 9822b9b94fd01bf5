"""The repro.runtime executor: whole-suite wall time, serial vs a pool.

Times every registered experiment through
:func:`repro.runtime.run_experiments`, serially and with ``jobs=2``,
``REPEATS`` times each with the shared timer (``repro.obs.time_call``),
and writes the spreads plus the host fingerprint to
``BENCH_runtime.json`` (``repro.bench.runtime/v2``).  The wall times are
reported, not asserted: whether the pool wins depends on the host's
cores.  What the runtime *guarantees* is result equality — every
report string identical under both schedules — and that is asserted
here and in ``tests/test_runtime.py``.

Opt-in (``runtime_bench`` marker): this times the infrastructure, not
the paper's figures, so the default bench sweep skips it::

    pytest benchmarks/bench_runtime.py --runtime-bench -s
"""

from __future__ import annotations

import pytest

from _bench_utils import host_fingerprint, time_call, write_bench_json

from repro import runtime
from repro.eval import experiments

pytestmark = pytest.mark.runtime_bench

#: Worker count of the pooled schedule.
JOBS = 2

#: Timed repeats per schedule (one whole suite each).
REPEATS = 2


def test_runtime_suite_serial_vs_pool(report):
    names = experiments.experiment_names()
    request = runtime.RunRequest(with_obs=False)
    timings = {
        schedule: time_call(
            lambda jobs=jobs: runtime.run_experiments(
                names, request=request.replace(jobs=jobs)),
            repeats=REPEATS)
        for schedule, jobs in (("serial", 1), ("pool", JOBS))
    }
    serial, pool = (timings[k].result for k in ("serial", "pool"))
    failed = [o.name for o in serial.outcomes + pool.outcomes if not o.ok]
    equal = not failed and all(
        serial.results()[name].report() == pool.results()[name].report()
        for name in names)

    path = write_bench_json("runtime", {
        "schema": "repro.bench.runtime/v2",
        "host": host_fingerprint(),
        "experiments": names,
        "jobs": JOBS,
        "pool_used": pool.parallel,
        "serial": timings["serial"].to_dict(),
        "pool": timings["pool"].to_dict(),
        "results_equal": equal,
    })
    report("\n".join([
        f"repro.runtime bench: {len(names)} experiments, "
        f"{REPEATS} repeats per schedule",
        *(f"  {k:>6}: median {t.median_s:6.2f} s  best {t.best_s:6.2f} s  "
          f"worst {t.worst_s:6.2f} s" for k, t in timings.items()),
        f"  pool used: {pool.parallel}, results equal: {equal}",
        f"  [written to {path.name}]",
    ]))

    assert not failed, failed
    assert equal
