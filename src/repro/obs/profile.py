"""Profiling ledger: price a traced construct-and-run against lookahead.

The paper's central constraint is a timing budget: a conventional ANC
headphone must produce each anti-noise sample within ~30 µs, while MUTE
can spend up to the *usable lookahead* (acoustic lead minus pipeline and
relay latency — ``LookaheadBudget``, Eqs. 3/4).  This module turns a
recorded trace of one or more construct-and-run *jobs* into that
ledger.  A job is every root span up to and including one ``mute.run``
root: the relay calibration and ``MuteSystem`` construction that
precede the run, then the run itself.

1. Construction spans (``relay.calibrate``, ``mute.construct`` and
   their subtrees) are **one-off** costs: paid once per job, never per
   block, so they are listed but not priced.
2. The direct children of ``mute.run`` (the prepare / adapt / collect
   stages) are amortized over the samples processed to a per-sample
   cost, then a per-block cost at a chosen block size, and compared
   against the **real-time deadline** for that block — the block's own
   duration (processing may lag playback by at most one block) *plus*
   the usable lookahead the relay bought.  Stages that would blow it
   are flagged ``OVER``.
3. When the trace holds several jobs (``repro perf-profile --repeats``),
   each row is summarised over them as median, best and worst.

``coverage`` says how much of each job's end-to-end wall time the
ledger's top-level rows account for.  The end-to-end time is the job
wall measured from outside the trace when the caller passes
``job_walls_s``, else the job's own top-level spans.  The reported
figure is the worst job's.

Stages flagged ``OVER`` could not run in real time on this host at that
block size; the simulation still completes (it is offline), which is
exactly why the report exists — it localizes *where* the budget goes.

Entry points: :func:`timing_budget_report` builds a
:class:`TimingBudgetReport` from a tracer + budget;
:func:`obs_report_dict` bundles trace + metrics + budget into the
``repro.obs.report/v1`` JSON document that ``repro perf-profile``
emits.

:class:`Timing` is the one "summarize N timed repeats" type: the ledger
builds one from each span's durations over the jobs, and
:func:`time_call` builds one by timing a callable for the
``benchmarks/bench_*.py`` suites and the ``perf-profile`` job walls.  So
a speedup in ``BENCH_kernels.json`` and a ledger row mean the same
thing: **median of N repeats** (robust to a single noisy run), with the
best and worst repeats kept alongside.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time

from ..errors import ConfigurationError

__all__ = [
    "Timing", "time_call",
    "OneOffCost", "StageBudget", "TimingBudgetReport",
    "timing_budget_report", "obs_report_dict", "REPORT_SCHEMA",
]

#: Schema identifier of the bundled obs report document.
REPORT_SCHEMA = "repro.obs.report/v1"


@dataclasses.dataclass(frozen=True)
class Timing:
    """Wall times of one repeated measurement, plus the last result."""

    result: object            #: return value of the final repeat
    times_s: tuple            #: every repeat's wall time, in run order

    @property
    def median_s(self):
        """Median repeat — the headline number every artifact reports."""
        return float(statistics.median(self.times_s))

    @property
    def best_s(self):
        """Fastest repeat (the least-interference bound)."""
        return float(min(self.times_s))

    @property
    def worst_s(self):
        """Slowest repeat (the cold or most-interfered bound)."""
        return float(max(self.times_s))

    @property
    def repeats(self):
        return len(self.times_s)

    def to_dict(self):
        """JSON-able summary (no ``result`` — callers own their payloads)."""
        return {
            "median_s": self.median_s,
            "best_s": self.best_s,
            "worst_s": self.worst_s,
            "repeats": self.repeats,
            "times_s": [float(t) for t in self.times_s],
        }


def time_call(fn, repeats=3, warmup=0):
    """Run ``fn()`` ``repeats`` times; return a :class:`Timing`.

    ``warmup`` extra untimed calls run first — use 1 for code with
    one-time caches (FFT plans, polyphase designs) when measuring the
    steady state, 0 when the cold cost is the point.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    for __ in range(int(warmup)):
        fn()
    times = []
    result = None
    for __ in range(int(repeats)):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return Timing(result=result, times_s=tuple(times))


@dataclasses.dataclass
class OneOffCost:
    """One construction span: paid once per job, not per block.

    ``wall_s`` / ``cpu_s`` are medians over the jobs that ran the span;
    ``depth`` is its nesting below the job's top-level spans.
    """

    stage: str
    depth: int
    wall_s: float
    cpu_s: float
    best_s: float
    worst_s: float
    repeats: int

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass
class StageBudget:
    """One run stage priced against the real-time deadline.

    Attributes
    ----------
    stage:
        Span name (e.g. ``"mute.adapt"``).
    wall_s / cpu_s:
        Measured stage time, median over the jobs.
    per_sample_us:
        Median wall time amortized per audio sample.
    per_block_ms:
        Median wall time for one block of ``block_size`` samples.
    deadline_ms:
        Block duration + usable lookahead — the latest the block's
        anti-noise may be ready without missing playback.
    ok:
        ``per_block_ms <= deadline_ms``.
    best_s / worst_s / repeats:
        Spread of the stage's wall time over the jobs.
    """

    stage: str
    wall_s: float
    cpu_s: float
    per_sample_us: float
    per_block_ms: float
    deadline_ms: float
    ok: bool
    best_s: float
    worst_s: float
    repeats: int

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass
class TimingBudgetReport:
    """One-off construction costs and per-block run stage costs."""

    stages: list
    total_wall_s: float   # median end-to-end wall of one job
    coverage: float       # worst job: top-level ledger rows / end-to-end
    n_samples: int
    sample_rate: float
    block_size: int
    usable_lookahead_s: float
    construction: list
    job_walls_s: list     # end-to-end wall of each job
    job_coverage: list

    def over_budget(self):
        """Names of stages that would miss the real-time deadline."""
        return [s.stage for s in self.stages if not s.ok]

    def to_dict(self):
        return {
            "stages": [s.to_dict() for s in self.stages],
            "total_wall_s": self.total_wall_s,
            "coverage": self.coverage,
            "n_samples": self.n_samples,
            "sample_rate": self.sample_rate,
            "block_size": self.block_size,
            "usable_lookahead_s": self.usable_lookahead_s,
            "over_budget": self.over_budget(),
            "construction": [c.to_dict() for c in self.construction],
            "repeats": len(self.job_walls_s),
            "job_walls_s": list(self.job_walls_s),
            "job_coverage": list(self.job_coverage),
        }

    def report(self):
        """Terminal table: one-off rows, then per-block stage rows."""
        walls = Timing(result=None, times_s=tuple(self.job_walls_s))
        header = (f"{'span':<26} {'median ms':>10} {'best ms':>9} "
                  f"{'worst ms':>9} {'ms/block':>9} {'deadline ms':>12}"
                  f"  verdict")
        lines = [
            "Timing ledger — one-off construction, then run stages "
            "priced per block against the real-time deadline",
            f"({walls.repeats} job(s) of {self.n_samples} samples at "
            f"{self.sample_rate:.0f} Hz, block {self.block_size}, usable "
            f"lookahead {self.usable_lookahead_s * 1e3:.2f} ms)",
            f"end-to-end per job: median {walls.median_s * 1e3:.1f} ms,"
            f" best {walls.best_s * 1e3:.1f} ms, worst "
            f"{walls.worst_s * 1e3:.1f} ms; ledger coverage "
            f"{self.coverage * 100.0:.1f}% (worst job)",
            header,
            "-" * len(header),
        ]
        for c in self.construction:
            name = "  " * c.depth + c.stage
            lines.append(
                f"{name:<26} {c.wall_s * 1e3:>10.3f} {c.best_s * 1e3:>9.3f}"
                f" {c.worst_s * 1e3:>9.3f} {'-':>9} {'-':>12}  one-off")
        for s in self.stages:
            lines.append(
                f"{s.stage:<26} {s.wall_s * 1e3:>10.3f} "
                f"{s.best_s * 1e3:>9.3f} {s.worst_s * 1e3:>9.3f} "
                f"{s.per_block_ms:>9.4f} {s.deadline_ms:>12.4f}  "
                f"{'ok' if s.ok else 'OVER'}"
            )
        return "\n".join(lines)


def _jobs(tracer, root_name):
    """Split the trace's finished roots into ``(setup roots, run root)``."""
    jobs, setup = [], []
    for root in tracer.roots:
        if not root.finished:
            continue
        if root.name == root_name:
            jobs.append((setup, root))
            setup = []
        else:
            setup.append(root)
    return jobs


def _walk(sp, path=()):
    """Yield ``(name path, span)`` over ``sp``'s finished subtree."""
    path = path + (sp.name,)
    yield path, sp
    for child in sp.children:
        if child.finished:
            yield from _walk(child, path)


def _add(rows, key, sp):
    """Add ``sp``'s wall/CPU time into ``rows[key]``."""
    wall, cpu = rows.get(key, (0.0, 0.0))
    rows[key] = (wall + sp.wall_s, cpu + sp.cpu_s)


def _summarise(per_job):
    """``{key: [(wall, cpu) per job]}`` -> ``{key: (wall Timing, cpu)}``."""
    return {
        key: (Timing(result=None, times_s=tuple(w for w, __ in samples)),
              statistics.median(c for __, c in samples))
        for key, samples in per_job.items()
    }


def timing_budget_report(tracer, budget, sample_rate, n_samples,
                         block_size=64, root_name="mute.run",
                         job_walls_s=None):
    """Build a :class:`TimingBudgetReport` from a recorded trace.

    Parameters
    ----------
    tracer:
        A :class:`repro.obs.trace.Tracer` holding at least one finished
        ``root_name`` root span (record one by running a ``MuteSystem``
        with observability enabled).  Root spans before each run root
        are that job's construction.
    budget:
        The run's :class:`repro.core.lookahead.LookaheadBudget` (only
        ``usable_lookahead_s`` is read, so any duck-type works).
    sample_rate / n_samples:
        Audio rate and length of each traced run, for amortization.
    block_size:
        Samples per processing block when pricing the deadline.
    root_name:
        Name of the run span whose direct children are the stages.
    job_walls_s:
        Optional wall time of each job measured outside the trace, in
        job order; coverage is then reported against it.
    """
    if sample_rate <= 0:
        raise ConfigurationError(f"sample_rate must be > 0, got {sample_rate}")
    if n_samples <= 0:
        raise ConfigurationError(f"n_samples must be > 0, got {n_samples}")
    if block_size <= 0:
        raise ConfigurationError(f"block_size must be > 0, got {block_size}")
    jobs = _jobs(tracer, root_name)
    if not jobs:
        raise ConfigurationError(
            f"no finished {root_name!r} root span recorded — run the "
            "system with observability enabled first"
        )
    if job_walls_s is not None and len(job_walls_s) != len(jobs):
        raise ConfigurationError(
            f"{len(job_walls_s)} job wall times for {len(jobs)} traced jobs"
        )

    setup_rows, stage_rows, totals, coverage = {}, {}, [], []
    for index, (setup, run) in enumerate(jobs):
        job_setup, job_stages = {}, {}
        for root in setup:
            for path, sp in _walk(root):
                _add(job_setup, path, sp)
        for child in run.children:
            if child.finished:
                _add(job_stages, child.name, child)
        for rows, job_rows in ((setup_rows, job_setup),
                               (stage_rows, job_stages)):
            for key, sample in job_rows.items():
                rows.setdefault(key, []).append(sample)

        setup_s = sum(root.wall_s for root in setup)
        covered = setup_s + sum(w for w, __ in job_stages.values())
        total = (float(job_walls_s[index]) if job_walls_s is not None
                 else setup_s + run.wall_s)
        totals.append(total)
        coverage.append(covered / total if total > 0 else 0.0)

    usable = float(budget.usable_lookahead_s)
    deadline_s = block_size / sample_rate + max(usable, 0.0)
    construction = [
        OneOffCost(stage=path[-1], depth=len(path) - 1,
                   wall_s=wall.median_s, cpu_s=cpu_s, best_s=wall.best_s,
                   worst_s=wall.worst_s, repeats=wall.repeats)
        for path, (wall, cpu_s) in _summarise(setup_rows).items()
    ]
    stages = []
    for name, (wall, cpu_s) in _summarise(stage_rows).items():
        per_sample = wall.median_s / n_samples
        per_block = per_sample * block_size
        stages.append(StageBudget(
            stage=name,
            wall_s=wall.median_s,
            cpu_s=cpu_s,
            per_sample_us=per_sample * 1e6,
            per_block_ms=per_block * 1e3,
            deadline_ms=deadline_s * 1e3,
            ok=per_block <= deadline_s,
            best_s=wall.best_s,
            worst_s=wall.worst_s,
            repeats=wall.repeats,
        ))
    return TimingBudgetReport(
        stages=stages,
        total_wall_s=Timing(result=None, times_s=tuple(totals)).median_s,
        coverage=min(coverage),
        n_samples=int(n_samples),
        sample_rate=float(sample_rate),
        block_size=int(block_size),
        usable_lookahead_s=usable,
        construction=construction,
        job_walls_s=totals,
        job_coverage=coverage,
    )


def obs_report_dict(tracer, registry, budget_report):
    """Bundle trace + metrics + budget into ``repro.obs.report/v1``."""
    return {
        "schema": REPORT_SCHEMA,
        "trace": tracer.to_dict(),
        "metrics": registry.to_dict(),
        "budget": budget_report.to_dict(),
    }


def obs_report_json(tracer, registry, budget_report, indent=2):
    """:func:`obs_report_dict` serialized for files/pipes."""
    return json.dumps(obs_report_dict(tracer, registry, budget_report),
                      indent=indent, default=str)
