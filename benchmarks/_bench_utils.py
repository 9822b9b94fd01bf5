"""Helpers shared by the figure benchmarks.

Besides the pytest-benchmark shim, this module is where benches pick up
the **shared observability schema**: any bench can snapshot the metrics
the instrumented pipeline recorded (``repro.obs.metrics/v1``) and emit
them next to its figure table, so every ``bench_*.py`` speaks the same
JSON dialect as ``repro perf-profile``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from repro import obs
# The one shared timer: every bench that reports a wall time uses the
# same median-of-N summary (``repro.obs.Timing``) as the
# ``repro perf-profile`` ledger rows, so numbers in BENCH_*.json and
# repro.obs.report/v1 documents are directly comparable (see
# docs/PERFORMANCE.md).
from repro.obs import time_call  # noqa: F401  (re-export)


def run_once(benchmark, fn, **kwargs):
    """Execute ``fn`` once under the benchmark timer; return its result."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)


def write_bench_json(name, payload):
    """Write ``BENCH_<name>.json`` next to the benchmarks; return the path.

    The standing artifact a bench leaves behind (wall times, speedups,
    metrics snapshots) so runs are comparable across commits without
    re-reading terminal output.
    """
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n",
                    encoding="utf-8")
    return path


def metrics_snapshot():
    """The global obs metrics as a ``repro.obs.metrics/v1`` document.

    Empty (but schema-stamped) unless the bench enabled observability
    around the code it measured — see ``bench_obs_overhead.py`` for the
    pattern.
    """
    return obs.get_registry().to_dict()


def host_fingerprint():
    """The machine and numeric stack a timing was taken on."""
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}
