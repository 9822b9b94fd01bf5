"""Shared benchmark fixtures.

Every figure bench runs its experiment once under pytest-benchmark
(rounds=1 — these are multi-second simulations, not microbenchmarks) and
prints the same rows/series the paper's figure plots.  Run with::

    pytest benchmarks/ --benchmark-only -s

Runtime benches (``runtime_bench`` marker) measure the
:mod:`repro.runtime` layer itself — executor wall times — and are
**opt-in**: pass ``--runtime-bench`` or set ``REPRO_RUNTIME_BENCH=1``,
e.g.::

    pytest benchmarks/bench_runtime.py --runtime-bench -s

The speedup gates (``bench_pipeline.py``, ``bench_kernels.py``) time
the program against the slow reference formulations in
``tests/reference``; the repository root goes on ``sys.path`` so that
package imports however pytest was launched.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_addoption(parser):
    parser.addoption(
        "--runtime-bench", action="store_true", default=False,
        help="run the repro.runtime benches (executor timings)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "runtime_bench: repro.runtime timing bench (opt in with "
        "--runtime-bench or REPRO_RUNTIME_BENCH=1)",
    )


def _runtime_bench_enabled(config):
    if config.getoption("--runtime-bench"):
        return True
    return os.environ.get("REPRO_RUNTIME_BENCH", "").strip().lower() in (
        "1", "true", "yes", "on")


def pytest_collection_modifyitems(config, items):
    if _runtime_bench_enabled(config):
        return
    skip = pytest.mark.skip(
        reason="runtime bench; opt in with --runtime-bench "
               "or REPRO_RUNTIME_BENCH=1")
    for item in items:
        if "runtime_bench" in item.keywords:
            item.add_marker(skip)


@pytest.fixture()
def report(capsys):
    """Print a report so it survives pytest's capture (shown with -s)."""

    def _print(text):
        with capsys.disabled():
            print()
            print(text)

    return _print
