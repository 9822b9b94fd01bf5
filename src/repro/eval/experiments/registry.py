"""First-class experiment registry and the uniform result envelope.

Every figure/extension runner used to be wired into three hand-rolled
tables: the CLI's ``EXPERIMENTS`` tuple-dict, the per-figure benchmark
files, and whatever ad-hoc loop a caller wrote.  This module replaces
all of that with one API:

* :class:`Experiment` — name, runner, description, and an inspectable
  ``defaults`` dict (read straight off the runner's signature);
* :func:`register` / :func:`get` / :func:`all_experiments` — the
  registry itself;
* :class:`ExperimentResult` — the normalized envelope every runner
  returns: a ``dict`` with top-level keys ``name`` / ``params`` /
  ``results``, so sweep output is mergeable and JSON-friendly, while
  attribute access still reaches the figure's rich result object
  (``result.curves``, ``result.report()``, …).

The registry is what makes the :mod:`repro.runtime` executor possible:
a worker process only needs an experiment *name* and a params dict to
run anything — see ``docs/RUNTIME.md``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

from ...errors import ConfigurationError, UnknownParameterError
from ...serving.server import REPORT_SCHEMA

__all__ = [
    "REPORT_SCHEMA",
    "Experiment",
    "ExperimentResult",
    "RehydratedResults",
    "all_experiments",
    "experiment_names",
    "experiment_result",
    "get",
    "register",
]


def _jsonable_param(value):
    """Coerce one runner parameter to a JSON-friendly, mergeable value.

    Scalars pass through; containers recurse; anything structured (a
    Scenario, a Point, a signal source) is recorded by its ``repr`` so
    the params dict stays printable and picklable without dragging the
    object graph along.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable_param(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable_param(v) for k, v in value.items()}
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


class RehydratedResults:
    """Results placeholder rebuilt from a serialized ``report/v2`` doc.

    A deserialized envelope cannot restore the figure's rich result
    dataclass (numpy arrays never enter the JSON document); this stands
    in for it, carrying the one thing the document preserved — the
    rendered report text — so ``result.report()`` keeps working after
    :meth:`ExperimentResult.from_json`.
    """

    def __init__(self, report_text):
        self.report_text = report_text

    def report(self):
        """The report text as serialized (``None`` if absent)."""
        return self.report_text

    def __repr__(self):
        return f"{type(self).__name__}(report_text=...)"


class ExperimentResult(dict):
    """The normalized runner return value (``report/v2`` envelope).

    A plain ``dict`` (mergeable, picklable, iterable like any sweep
    record) with top-level keys ``schema`` / ``name`` / ``params`` /
    ``results``, whose attribute access falls through to the
    ``results`` object, so legacy call sites keep reading
    ``result.curves`` or calling ``result.report()`` unchanged.
    :meth:`to_json` / :meth:`from_json` round-trip the JSON-able
    subset (schema, name, params, report text).
    """

    def __init__(self, name, params, results):
        super().__init__(
            schema=REPORT_SCHEMA,
            name=str(name),
            params={str(k): _jsonable_param(v) for k, v in params.items()},
            results=results,
        )

    @property
    def schema(self):
        """The envelope schema identifier (:data:`REPORT_SCHEMA`)."""
        return self["schema"]

    @property
    def name(self):
        """The experiment's registry name."""
        return self["name"]

    @property
    def params(self):
        """The (JSON-friendly) parameters this run was invoked with."""
        return self["params"]

    @property
    def results(self):
        """The figure's rich result dataclass."""
        return self["results"]

    def report(self):
        """The figure's text report (tables the paper's figure plots)."""
        results = self["results"]
        if hasattr(results, "report"):
            return results.report()
        return str(results)

    # ------------------------------------------------------------------
    # report/v2 serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        """JSON-able ``report/v2`` result document.

        Carries the envelope metadata and the rendered report text; the
        rich results object (numpy arrays and all) stays on the live
        envelope only.
        """
        return {
            "schema": REPORT_SCHEMA,
            "kind": "result",
            "name": self["name"],
            "params": self["params"],
            "report": self.report(),
        }

    def to_json(self, **kwargs):
        """:meth:`to_dict` as a JSON string (kwargs go to ``json.dumps``)."""
        kwargs.setdefault("default", str)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, document):
        """Rebuild an envelope from a ``report/v2`` result document.

        The results object comes back as :class:`RehydratedResults`
        (report text only); ``from_dict(x.to_dict()).to_dict() ==
        x.to_dict()`` is the round-trip contract.
        """
        schema = document.get("schema")
        if schema != REPORT_SCHEMA:
            raise ConfigurationError(
                f"cannot load result document with schema {schema!r}; "
                f"expected {REPORT_SCHEMA!r}"
            )
        if document.get("kind") not in (None, "result"):
            raise ConfigurationError(
                f"expected a 'result' document, got kind "
                f"{document.get('kind')!r}"
            )
        return cls(document["name"], document.get("params", {}),
                   RehydratedResults(document.get("report")))

    @classmethod
    def from_json(cls, text):
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def __getattr__(self, attr):
        try:
            results = self["results"]
        except KeyError:
            # Mid-unpickle the items are not restored yet; behave like a
            # plain attribute miss so pickle's protocol probes pass.
            raise AttributeError(attr) from None
        try:
            return getattr(results, attr)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!s} has no attribute {attr!r} "
                f"(and neither does its results object "
                f"{type(results).__name__!s})"
            ) from None


def experiment_result(name, params, results):
    """Wrap a runner's output in the normalized envelope.

    Every ``run_*`` entry point ends with this call; ``params`` is the
    dict of arguments the run actually used (defaults included), which
    is what makes sweep output self-describing.
    """
    return ExperimentResult(name, params, results)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registered experiment: the unit the CLI and executor dispatch.

    Attributes
    ----------
    name:
        Registry key (``"fig12"``, ``"timing"``, …).
    runner:
        The ``run_*`` entry point.  Normalized signature: positional
        ``duration_s`` first, everything after it keyword-only, and
        ``seed`` / ``scenario`` accepted uniformly.
    description:
        One line for ``repro list``.
    defaults:
        Parameter name → default value, read off the runner's signature —
        inspectable without calling anything.
    """

    name: str
    runner: object
    description: str
    defaults: dict

    def run(self, request=None, **overrides):
        """Invoke the runner; returns the :class:`ExperimentResult` dict.

        Parameters
        ----------
        request:
            Optional :class:`repro.runtime.RunRequest`.  Its
            ``seed`` / ``duration_s`` / ``fault_plan`` / extra params
            are applied *where the runner accepts them* (a broadcast
            context must compose with runners of differing
            signatures).
        overrides:
            Per-run parameters, laid over the request's.  Unknown
            names raise :class:`~repro.errors.UnknownParameterError`
            up front (rather than a ``TypeError`` from deep inside a
            worker); values set to ``None`` fall back to the runner
            default so callers can pass CLI values through
            unconditionally.
        """
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise UnknownParameterError(
                f"experiment {self.name!r} has no parameter(s) "
                f"{', '.join(unknown)}; valid: {', '.join(self.defaults)}",
                unknown=unknown, valid=tuple(self.defaults),
            )
        kwargs = {}
        if request is not None:
            kwargs.update((k, v)
                          for k, v in request.experiment_params().items()
                          if k in self.defaults)
        kwargs.update(overrides)
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        result = self.runner(**kwargs)
        if not isinstance(result, ExperimentResult):
            result = ExperimentResult(self.name, kwargs, result)
        return result


_REGISTRY = {}


def register(name, runner, description):
    """Add (or replace) one experiment; returns the registry entry."""
    defaults = {}
    for param in inspect.signature(runner).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        defaults[param.name] = (None if param.default is param.empty
                                else param.default)
    entry = Experiment(name=str(name), runner=runner,
                       description=str(description), defaults=defaults)
    _REGISTRY[entry.name] = entry
    return entry


def get(name):
    """Look one experiment up; raises ``ConfigurationError`` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def experiment_names():
    """All registered names, sorted."""
    return sorted(_REGISTRY)


def all_experiments():
    """All registry entries, sorted by name."""
    return [_REGISTRY[name] for name in experiment_names()]
