"""repro.obs — observability for the MUTE pipeline.

Tracing, metrics, and profiling hooks threaded through
:class:`repro.core.system.MuteSystem`, the adaptive engines, the
wireless relay, and the profile switcher.  Everything is **off by
default** and gated behind one global flag, so the un-instrumented
library is bit-identical to this one; see ``docs/OBSERVABILITY.md`` for
the full guide and JSON schemas.

Four layers:

* :mod:`~repro.obs.config` — the global enable/disable switch
  (:func:`enable`, :func:`disable`, :func:`enabled`,
  :func:`enabled_scope`);
* :mod:`~repro.obs.trace` — span tracer (:func:`span`,
  :func:`get_tracer`, JSON + text-tree export);
* :mod:`~repro.obs.metrics` — labeled counters/gauges/histograms
  (:func:`get_registry`);
* :mod:`~repro.obs.profile` — maps a recorded construct-and-run trace
  onto the paper's lookahead budget (:func:`timing_budget_report`),
  bundles the ``repro perf-profile`` document (:func:`obs_report_dict`),
  and owns the shared median-of-N timer (:class:`Timing`,
  :func:`time_call`) the ledger and the benchmarks report with.

Minimal session::

    from repro import obs

    with obs.enabled_scope():
        result = system.run(noise)

    print(obs.get_tracer().render())        # span tree
    print(obs.get_registry().render())      # metrics table
    report = obs.timing_budget_report(
        obs.get_tracer(), system.lookahead_budget,
        system.sample_rate, n_samples=noise.size)
    print(report.report())

Call :func:`reset` between experiments to drop recorded data.
"""

from __future__ import annotations

from .config import disable, enable, enabled, enabled_scope
from .metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .profile import (
    REPORT_SCHEMA,
    OneOffCost,
    StageBudget,
    Timing,
    TimingBudgetReport,
    obs_report_dict,
    obs_report_json,
    time_call,
    timing_budget_report,
)
from .trace import TRACE_SCHEMA, Span, Tracer, get_tracer, span

__all__ = [
    # config
    "enabled", "enable", "disable", "enabled_scope", "reset",
    # trace
    "Span", "Tracer", "span", "get_tracer", "TRACE_SCHEMA",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "METRICS_SCHEMA",
    # profile
    "Timing", "time_call",
    "OneOffCost", "StageBudget", "TimingBudgetReport",
    "timing_budget_report",
    "obs_report_dict", "obs_report_json", "REPORT_SCHEMA",
]


def reset():
    """Clear the global tracer and metrics registry (state, not the flag)."""
    get_tracer().reset()
    get_registry().reset()
