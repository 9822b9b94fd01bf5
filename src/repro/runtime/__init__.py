"""repro.runtime — parallel experiment runtime.

The layer between the experiment catalog and its callers:

* :mod:`~repro.runtime.executor` — fans independent experiment runs
  out over a process pool (serial fallback included) and merges each
  worker's :mod:`repro.obs` spans/metrics into one report; backs the
  ``repro run-all --jobs N`` CLI.  Worker deaths and stuck jobs are
  governed by a :class:`JobRetryPolicy` (bounded retry with jittered
  backoff, per-job deadlines, partial :class:`SuiteReport` on abort —
  see ``docs/RESILIENCE.md``).
* :mod:`~repro.runtime.request` — :class:`RunRequest`, the one frozen
  context object (seed, duration, fault plan, obs switch, worker
  count) accepted by ``Experiment.run``,
  :func:`run_experiments`, and ``repro.serving``.

Quick tour::

    from repro import runtime

    request = runtime.RunRequest(jobs=2, seed=1)
    suite = runtime.run_experiments(["fig13", "timing"], request=request)
    print(suite.report())                       # merged obs included

Full guide: ``docs/RUNTIME.md``.
"""

from __future__ import annotations

from .executor import (
    SUITE_SCHEMA,
    JobOutcome,
    JobRetryPolicy,
    SuiteReport,
    run_experiments,
)
from .merge import (
    merge_metrics_documents,
    merge_trace_documents,
    render_metrics_document,
)
from .request import RunRequest

__all__ = [
    # executor
    "SUITE_SCHEMA",
    "JobOutcome",
    "JobRetryPolicy",
    "SuiteReport",
    "run_experiments",
    # request
    "RunRequest",
    # merge
    "merge_metrics_documents",
    "merge_trace_documents",
    "render_metrics_document",
]
