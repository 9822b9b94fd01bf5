"""RunRequest — the one context object a run is asked *with*.

Before this module existed, run context leaked through side channels:
ad-hoc ``**overrides`` kwargs on :meth:`Experiment.run` and a
``params`` dict threaded through :func:`run_experiments`.  A
:class:`RunRequest` replaces them: it names the seed, the duration, the
fault plan, the observability switch, and the worker count in one
frozen, picklable value that travels *with* the job — into
:meth:`repro.eval.experiments.registry.Experiment.run`,
:func:`repro.runtime.run_experiments` workers, and
:meth:`repro.serving.SessionManager.submit` alike.

Determinism contract: two identical requests produce bit-identical
results regardless of ``jobs`` — the request is applied inside the
worker, not smuggled via process-global state, so serial and parallel
execution see the same context.  ``tests/test_runtime.py`` locks this
in end-to-end.
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigurationError

__all__ = ["RunRequest"]


def _frozen_params(params):
    """Params as a sorted, hashable tuple of pairs (dataclass-friendly)."""
    if params is None:
        return ()
    if isinstance(params, tuple):
        params = dict(params)
    return tuple(sorted(params.items()))


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """Everything a caller wants to say about *how* to run something.

    All fields are optional; an empty request means "the defaults".
    The object is frozen and picklable, so it can ride into process-pool
    workers unchanged.

    Attributes
    ----------
    seed:
        Random seed forwarded to runners that accept one.
    duration_s:
        Simulated seconds forwarded to runners that accept it.
    fault_plan:
        A :class:`repro.faults.FaultPlan` forwarded to runners (and
        serving sessions) that accept one.
    with_obs:
        Record :mod:`repro.obs` traces/metrics around the run.
    jobs:
        Worker-process count for suite-level calls
        (:func:`run_experiments`); ignored by single runs.
    params:
        Extra runner parameters, stored as a sorted tuple of
        ``(name, value)`` pairs (pass a dict; it is frozen on init).
    """

    seed: int | None = None
    duration_s: float | None = None
    fault_plan: object | None = None
    with_obs: bool = True
    jobs: int = 1
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _frozen_params(self.params))
        if self.jobs < 1:
            raise ConfigurationError(
                f"RunRequest.jobs must be >= 1, got {self.jobs}"
            )

    def replace(self, **changes):
        """A copy with some fields changed (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    def experiment_params(self):
        """The runner-parameter dict this request contributes.

        ``seed`` / ``duration_s`` / ``fault_plan`` are included only
        when set, then :attr:`params` entries are laid on top — so a
        generic request composes with per-run parameter points the way
        ``run_experiments`` merges its own layers.
        """
        merged = {}
        if self.seed is not None:
            merged["seed"] = self.seed
        if self.duration_s is not None:
            merged["duration_s"] = self.duration_s
        if self.fault_plan is not None:
            merged["fault_plan"] = self.fault_plan
        merged.update(dict(self.params))
        return merged

    def to_dict(self):
        """JSON-able summary (the fault plan appears as its plan key)."""
        plan = self.fault_plan
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "fault_plan": (None if plan is None
                           else getattr(plan, "plan_key", lambda: repr(plan))()),
            "with_obs": self.with_obs,
            "jobs": self.jobs,
            "params": {k: v for k, v in self.params},
        }
