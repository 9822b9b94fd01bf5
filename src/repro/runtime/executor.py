"""Parallel experiment executor: fan experiment runs out over processes.

The experiment suite is embarrassingly parallel — every registered
experiment is an independent simulation.  :func:`run_experiments` fans
them out over a ``concurrent.futures`` process pool, with a serial
in-process fallback whenever a pool is unavailable or ``jobs=1``, and
folds each worker's :mod:`repro.obs` trace/metrics documents into one
merged report (:class:`SuiteReport`).

Run context travels as a :class:`~repro.runtime.request.RunRequest`:
the request is pickled into each worker and applied *there* (seed,
duration, fault plan, obs switch), so parallel workers see exactly the
context a serial run would.

This is what backs ``repro run-all --jobs N``.  Determinism: a worker
runs exactly the same registry entry point with exactly the same
params and request as a serial call, so parallel results equal serial
ones — the property ``tests/test_runtime.py`` locks in.

Worker loss and deadlines
-------------------------
A worker process can die outright (OOM killer, segfaulting native
code, a chaos injection) — that surfaces as ``BrokenProcessPool``, not
as a Python exception the job could catch.  The executor treats it as
a *retryable* event governed by a :class:`JobRetryPolicy`: the pool is
rebuilt (bounded by ``max_pool_rebuilds``), the suspect job is retried
after a deterministic jittered backoff (``max_retries`` attempts),
innocent jobs that were queued behind it are resubmitted uncharged,
and a job that keeps killing its worker is recorded as a failed
outcome instead of sinking the suite.  A per-job completion deadline
(``timeout_s``) bounds stuck jobs the same way — recorded as failures,
never retried (a deterministic overrun would just hang again).  When
the rebuild budget runs out the suite **aborts deliberately**:
:attr:`SuiteReport.aborted` is set and every unfinished job carries an
abort error — a partial report, never a hang, and never a serial
re-run of a job that just killed two processes.  Retry activity is
counted under the ``runtime.retry.*`` obs metrics.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import time
from concurrent import futures

from .. import obs
from ..errors import ConfigurationError
from ..serving.server import REPORT_SCHEMA
from .merge import (
    merge_metrics_documents,
    merge_trace_documents,
    render_metrics_document,
)
from .request import RunRequest

__all__ = ["JobOutcome", "JobRetryPolicy", "SuiteReport", "run_experiments"]

#: Schema identifier of :meth:`SuiteReport.to_dict` — the ``report/v2``
#: envelope family (documents carry ``kind: "suite"``).
SUITE_SCHEMA = REPORT_SCHEMA


@dataclasses.dataclass(frozen=True)
class JobRetryPolicy:
    """How the executor treats worker loss and stuck jobs.

    Parameters
    ----------
    max_retries:
        Attempts *beyond the first* a job gets after killing its
        worker.  ``0`` records the first worker death as the job's
        failure.
    timeout_s:
        Per-job completion deadline in seconds, or ``None`` (default)
        for no deadline.  Measured from when the executor starts
        waiting on the job (jobs are awaited in submission order, so
        earlier waits give queued jobs running time).  A timed-out job
        is recorded as failed and **not** retried; its worker is
        abandoned to finish in the background while the remaining jobs
        proceed.
    backoff_s / backoff_factor / max_backoff_s:
        Backoff slept before a crashed job's retry: ``backoff_s *
        backoff_factor**(attempt - 1)``, capped.
    jitter:
        Uniform jitter fraction on the backoff, drawn from a generator
        seeded by the request seed — reproducible, but two retrying
        suites don't thundering-herd in lock step.
    max_pool_rebuilds:
        Worker deaths tolerated suite-wide before the executor stops
        rebuilding pools and aborts with a partial report.
    """

    max_retries: int = 1
    timeout_s: float | None = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.25
    max_pool_rebuilds: int = 3

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be > 0 (or None)")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("backoff windows must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError("max_pool_rebuilds must be >= 0")

    def backoff_for(self, attempt, rng):
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff_s * self.backoff_factor ** (attempt - 1),
                   self.max_backoff_s)
        return base * (1.0 + self.jitter * rng.random())


@dataclasses.dataclass
class JobOutcome:
    """One experiment run plus the observability it recorded."""

    name: str
    params: dict
    result: object        # the runner's ExperimentResult envelope
    trace: dict           # repro.obs.trace/v1
    metrics: dict         # repro.obs.metrics/v1
    wall_s: float
    error: str | None = None  # traceback text when the run failed

    @property
    def ok(self):
        """Did the run produce a result?"""
        return self.error is None


def _execute_job(name, params, request):
    """Worker entry point (module-level so process pools can pickle it).

    Runs one registered experiment with a clean observability slate and
    returns a :class:`JobOutcome`; exceptions are captured as text so a
    single failing experiment doesn't sink the whole suite.  The
    :class:`RunRequest` is applied *here*, inside the worker — its
    seed, fault plan, and obs switch reach the run the same way serial
    execution would apply them.
    """
    # Imported here, not at module top: worker processes pay the import
    # only when they actually run something.
    from ..eval import experiments

    obs.reset()
    started = time.perf_counter()
    error = None
    result = None
    try:
        entry = experiments.get(name)
        if request.with_obs:
            with obs.enabled_scope():
                result = entry.run(request=request, **params)
        else:
            result = entry.run(request=request, **params)
    except Exception:  # noqa: BLE001 — reported, not swallowed
        import traceback
        error = traceback.format_exc()
    outcome = JobOutcome(
        name=name,
        params=dict(params),
        result=result,
        trace=obs.get_tracer().to_dict(),
        metrics=obs.get_registry().to_dict(),
        wall_s=time.perf_counter() - started,
        error=error,
    )
    obs.reset()
    return outcome


@dataclasses.dataclass
class SuiteReport:
    """Everything one ``run_experiments`` call produced, merged."""

    outcomes: list
    jobs: int
    wall_s: float
    parallel: bool        # did the pool actually run, or the fallback?
    request: object = None    # the RunRequest (or its dict after from_json)
    metrics_doc: dict | None = None   # merged-doc overrides installed by
    trace_doc: dict | None = None     # from_json (no live obs to re-merge)
    aborted: bool = False     # pool rebuild budget exhausted mid-suite

    def results(self):
        """``name -> ExperimentResult`` for the successful runs."""
        return {o.name: o.result for o in self.outcomes if o.ok}

    def failures(self):
        """``name -> traceback text`` for the failed runs."""
        return {o.name: o.error for o in self.outcomes if not o.ok}

    @property
    def merged_metrics(self):
        """All workers' metrics as one ``repro.obs.metrics/v1`` doc."""
        if self.metrics_doc is not None:
            return self.metrics_doc
        return merge_metrics_documents(o.metrics for o in self.outcomes)

    @property
    def merged_trace(self):
        """All workers' spans as one ``repro.obs.trace/v1`` forest."""
        if self.trace_doc is not None:
            return self.trace_doc
        return merge_trace_documents(
            (o.name, o.trace) for o in self.outcomes)

    def _request_doc(self):
        if self.request is None:
            return None
        if hasattr(self.request, "to_dict"):
            return self.request.to_dict()
        return dict(self.request)

    def to_dict(self):
        """JSON-able ``report/v2`` suite document.

        Each run record is the run's ``report/v2`` result document
        (envelope metadata + report text) extended with the suite-level
        ``wall_s``/``ok``/``error`` fields; the rich result objects
        hold numpy arrays and stay in :attr:`outcomes`.
        """
        runs = []
        for o in self.outcomes:
            if o.ok:
                record = o.result.to_dict()
            else:
                record = {
                    "schema": SUITE_SCHEMA,
                    "kind": "result",
                    "name": o.name,
                    "params": o.params,
                    "report": None,
                }
            record.update(wall_s=o.wall_s, ok=o.ok, error=o.error)
            runs.append(record)
        return {
            "schema": SUITE_SCHEMA,
            "kind": "suite",
            "jobs": self.jobs,
            "parallel": self.parallel,
            "aborted": self.aborted,
            "wall_s": self.wall_s,
            "request": self._request_doc(),
            "runs": runs,
            "metrics": self.merged_metrics,
            "trace": self.merged_trace,
        }

    def to_json(self, **kwargs):
        """:meth:`to_dict` as a JSON string (kwargs go to ``json.dumps``)."""
        kwargs.setdefault("default", str)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, document):
        """Rebuild a report from a ``report/v2`` suite document.

        Result envelopes come back with
        :class:`~repro.eval.experiments.registry.RehydratedResults`
        placeholders (report text only); per-outcome obs documents are
        gone, but the merged metrics/trace are restored, so
        ``from_dict(x.to_dict()).to_dict() == x.to_dict()``.
        """
        from ..eval.experiments.registry import ExperimentResult

        schema = document.get("schema")
        if schema != SUITE_SCHEMA:
            raise ConfigurationError(
                f"cannot load suite document with schema {schema!r}; "
                f"expected {SUITE_SCHEMA!r}"
            )
        if document.get("kind") not in (None, "suite"):
            raise ConfigurationError(
                f"expected a 'suite' document, got kind "
                f"{document.get('kind')!r}"
            )
        outcomes = []
        for record in document.get("runs", []):
            ok = bool(record.get("ok"))
            result = None
            if ok:
                envelope = {k: v for k, v in record.items()
                            if k not in ("wall_s", "ok", "error")}
                result = ExperimentResult.from_dict(envelope)
            outcomes.append(JobOutcome(
                name=record["name"],
                params=dict(record.get("params") or {}),
                result=result,
                trace={},
                metrics={},
                wall_s=float(record.get("wall_s", 0.0)),
                error=record.get("error"),
            ))
        return cls(
            outcomes=outcomes,
            jobs=int(document.get("jobs", 1)),
            wall_s=float(document.get("wall_s", 0.0)),
            parallel=bool(document.get("parallel", False)),
            aborted=bool(document.get("aborted", False)),
            request=document.get("request"),
            metrics_doc=document.get("metrics"),
            trace_doc=document.get("trace"),
        )

    @classmethod
    def from_json(cls, text):
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def report(self):
        """Terminal summary: per-run wall times plus merged metrics."""
        lines = [
            f"== runtime suite: {len(self.outcomes)} experiment(s), "
            f"jobs={self.jobs}"
            f"{' (parallel)' if self.parallel else ' (serial)'}"
            f"{' ABORTED' if self.aborted else ''}, "
            f"total {self.wall_s:.1f}s =="
        ]
        for o in self.outcomes:
            status = "ok" if o.ok else "FAILED"
            lines.append(f"  {o.name:<12} {o.wall_s:7.1f}s  {status}")
        lines.append("")
        lines.append("--- merged metrics ---")
        lines.append(render_metrics_document(self.merged_metrics))
        return "\n".join(lines)


def _run_serial(jobs_list, request):
    return [_execute_job(name, params, request)
            for name, params in jobs_list]


def _count_retry(event):
    if obs.enabled():
        obs.get_registry().counter(f"runtime.retry.{event}").inc()


def _failed_outcome(name, params, error):
    """A synthesized failure record (worker death / deadline / abort)."""
    return JobOutcome(name=name, params=dict(params), result=None,
                     trace={}, metrics={}, wall_s=0.0, error=error)


class _PoolAborted(Exception):
    """Internal: the rebuild budget ran out; carries partial outcomes."""

    def __init__(self, outcomes):
        super().__init__("process pool rebuild budget exhausted")
        self.outcomes = outcomes


def _run_pool(jobs_list, request, policy, n_workers):
    """Run ``jobs_list`` on a process pool under ``policy``.

    Returns ``(outcomes, aborted)`` with one outcome per job in input
    order.  Worker deaths are retried per :class:`JobRetryPolicy`;
    the first pool *construction* failure is not handled here — the
    caller's serial fallback owns that case.
    """
    total = len(jobs_list)
    outcomes = [None] * total
    attempts = [0] * total
    rebuilds = 0
    rng = random.Random(0 if request.seed is None else int(request.seed))
    queue = list(range(total))
    timed_out = False
    pool = futures.ProcessPoolExecutor(max_workers=n_workers)

    def rebuild():
        nonlocal pool, rebuilds
        rebuilds += 1
        if rebuilds > policy.max_pool_rebuilds:
            for idx in range(total):
                if outcomes[idx] is None:
                    name, params = jobs_list[idx]
                    outcomes[idx] = _failed_outcome(
                        name, params,
                        f"suite aborted: {rebuilds} worker death(s) "
                        f"exceeded max_pool_rebuilds="
                        f"{policy.max_pool_rebuilds}")
            _count_retry("aborts")
            raise _PoolAborted(outcomes)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = futures.ProcessPoolExecutor(max_workers=n_workers)

    def harvest(fut_by_idx, pending):
        """After a breakage: keep finished results, requeue the rest.

        Jobs that completed before the pool broke keep their outcomes;
        undone jobs go back on the queue *uncharged* — only the job
        whose wait surfaced the breakage is a suspect.
        """
        for idx in pending:
            fut = fut_by_idx[idx]
            if fut.done() and not fut.cancelled() \
                    and fut.exception() is None:
                outcomes[idx] = fut.result()
            else:
                attempts[idx] -= 1
                queue.append(idx)

    try:
        while queue:
            pending = list(queue)
            queue = []
            fut_by_idx = {}
            charged = []
            try:
                for idx in pending:
                    name, params = jobs_list[idx]
                    attempts[idx] += 1
                    charged.append(idx)
                    fut_by_idx[idx] = pool.submit(
                        _execute_job, name, params, request)
            except futures.BrokenExecutor:
                # The pool died before this wave even started; nobody
                # is a suspect — requeue everything uncharged, rebuild.
                for idx in charged:
                    attempts[idx] -= 1
                queue.extend(pending)
                rebuild()
                continue

            wave = list(pending)
            while wave:
                idx = wave.pop(0)
                name, params = jobs_list[idx]
                fut = fut_by_idx[idx]
                try:
                    outcomes[idx] = fut.result(timeout=policy.timeout_s)
                except futures.TimeoutError:
                    # Stuck job: record the deadline miss and move on.
                    # Its worker finishes (or dies) in the background;
                    # no retry — a deterministic overrun would only
                    # hang again.
                    fut.cancel()
                    timed_out = True
                    _count_retry("timeouts")
                    outcomes[idx] = _failed_outcome(
                        name, params,
                        f"deadline exceeded: job still running after "
                        f"{policy.timeout_s}s (JobRetryPolicy.timeout_s)")
                except futures.BrokenExecutor:
                    # The worker running (or about to run) this job
                    # died.  Charge this job, requeue the innocent
                    # bystanders, rebuild the pool.
                    _count_retry("worker_deaths")
                    if attempts[idx] <= policy.max_retries:
                        queue.append(idx)
                        delay = policy.backoff_for(attempts[idx], rng)
                        if delay > 0:
                            time.sleep(delay)
                        _count_retry("retries")
                    else:
                        _count_retry("exhausted")
                        outcomes[idx] = _failed_outcome(
                            name, params,
                            f"worker died running {name!r} "
                            f"({attempts[idx]} attempt(s); "
                            f"max_retries={policy.max_retries})")
                    harvest(fut_by_idx, wave)
                    wave = []
                    rebuild()
    except _PoolAborted:
        return outcomes, True
    finally:
        pool.shutdown(wait=not timed_out, cancel_futures=True)
    return outcomes, False


def run_experiments(names, request=None, per_experiment=None, retry=None):
    """Run several experiments, optionally in parallel processes.

    Parameters
    ----------
    names:
        Iterable of registry names, or ``(name, params)`` pairs for
        per-run params (duplicates allowed).
    request:
        A :class:`~repro.runtime.request.RunRequest` carrying the run
        context: worker count (``request.jobs``; ``1`` runs serially
        in-process), seed/duration/fault plan/extra params broadcast
        to every run (applied where each runner accepts them), and the
        obs switch.  ``None`` means the default request.
    per_experiment:
        ``name -> params dict`` merged per run (these are strict: an
        unknown name raises ``UnknownParameterError``).
    retry:
        A :class:`JobRetryPolicy` governing worker-death retries,
        per-job deadlines, and the abort budget (defaults apply when
        ``None``).  Only meaningful on the parallel path — the serial
        path runs in-process, where a worker cannot die separately
        and a deadline cannot be enforced.

    Returns a :class:`SuiteReport`.  If the process pool cannot be
    *created* (pickling limits, a sandboxed platform), the work falls
    back to the serial path — results are identical either way, only
    the wall clock differs.  Worker deaths *during* the run are
    handled by the retry policy instead (see the module docstring) —
    re-running a worker-killing job in the caller's own process is
    never a safe fallback.
    """
    request = request if request is not None else RunRequest()
    retry = retry or JobRetryPolicy()
    jobs_list = []
    for item in names:
        if isinstance(item, str):
            name, own = item, {}
        else:
            name, own = item
        merged = dict((per_experiment or {}).get(name, {}))
        merged.update(own)
        jobs_list.append((name, merged))

    # Validate every name up front — a typo should fail fast here, not
    # half-way through a worker fan-out.
    from ..eval import experiments
    for name, __ in jobs_list:
        experiments.get(name)

    started = time.perf_counter()
    n_workers = min(request.jobs, max(len(jobs_list), 1))
    # A pool is used whenever the request asks for workers — even for a
    # single job, so the retry policy (deadlines, worker-death
    # isolation) applies to it.
    parallel = request.jobs > 1 and bool(jobs_list)
    aborted = False
    if not parallel:
        outcomes = _run_serial(jobs_list, request)
    else:
        try:
            outcomes, aborted = _run_pool(jobs_list, request, retry,
                                          n_workers)
        except (pickle.PicklingError, OSError, ImportError):
            # No usable pool on this platform — same work, one process.
            parallel = False
            outcomes = _run_serial(jobs_list, request)

    return SuiteReport(
        outcomes=outcomes,
        jobs=request.jobs,
        wall_s=time.perf_counter() - started,
        parallel=parallel,
        request=request,
        aborted=aborted,
    )
