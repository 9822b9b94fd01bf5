"""Span-based tracing for the MUTE pipeline.

A **span** is one timed region of the pipeline — ``mute.prepare``,
``mute.adapt``, ``relay.forward`` — with wall-clock *and* CPU time,
free-form attributes, and children for regions it encloses.  The
:class:`Tracer` collects spans into a forest (one root per top-level
operation) and exports it two ways:

* :meth:`Tracer.to_dict` / :meth:`Tracer.to_json` — the
  ``repro.obs.trace/v1`` JSON schema (documented in
  ``docs/OBSERVABILITY.md``), consumed by ``repro perf-profile`` and
  the timing ledger;
* :meth:`Tracer.render` — an indented text tree for terminals.

Spans nest by runtime containment: a span opened while another is open
becomes its child, which is how one ``mute.run`` trace decomposes into
the prepare / adapt / collect stages the budget report prices.

The module-level :func:`span` is the hook the instrumented code calls::

    from repro import obs

    with obs.span("mute.prepare", samples=noise.size):
        ...

When observability is disabled (the default) it returns a shared no-op
context manager — one function call and no allocation, which is what
keeps the disabled overhead at zero.
"""

from __future__ import annotations

import json
import time

from ..errors import ConfigurationError
from . import config

__all__ = ["Span", "Tracer", "span", "get_tracer", "TRACE_SCHEMA"]

#: Schema identifier stamped into every exported trace.
TRACE_SCHEMA = "repro.obs.trace/v1"


class Span:
    """One timed region: name, wall/CPU interval, attributes, children.

    Created by :meth:`Tracer.span` — not directly.  While open, extra
    attributes can be attached::

        with tracer.span("mute.prepare") as sp:
            sp.set_attribute("n_future", n_future)
    """

    __slots__ = ("name", "attributes", "children", "t_start_s",
                 "_wall0", "_cpu0", "wall_s", "cpu_s")

    def __init__(self, name, attributes):
        self.name = str(name)
        self.attributes = dict(attributes)
        self.children = []
        self.t_start_s = None   # relative to the tracer epoch
        self._wall0 = None
        self._cpu0 = None
        self.wall_s = None
        self.cpu_s = None

    def set_attribute(self, key, value):
        """Attach one attribute (stringifiable key, JSON-able value)."""
        self.attributes[str(key)] = value

    @property
    def finished(self):
        """Has the span been closed (timings final)?"""
        return self.wall_s is not None

    def self_wall_s(self):
        """Wall time not covered by child spans (>= 0)."""
        if not self.finished:
            raise ConfigurationError(f"span {self.name!r} still open")
        covered = sum(c.wall_s for c in self.children if c.finished)
        return max(self.wall_s - covered, 0.0)

    def to_dict(self):
        """This span and its subtree as plain dicts (JSON-ready)."""
        if not self.finished:
            raise ConfigurationError(f"span {self.name!r} still open")
        return {
            "name": self.name,
            "t_start_s": self.t_start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


class _OpenSpan:
    """Context manager that times one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, sp):
        self._tracer = tracer
        self._span = sp

    def __enter__(self):
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._tracer._pop(self._span)
        return False


class _NoopSpan:
    """Shared do-nothing span/context-manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set_attribute(self, key, value):
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects spans into a forest and exports it.

    All span timestamps are relative to the tracer's *epoch* (its
    construction or last :meth:`reset`), so traces are self-contained
    and diffable.
    """

    def __init__(self):
        self._epoch = time.perf_counter()
        self._stack = []
        self.roots = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name, **attributes):
        """Open a span; use as a context manager.

        Nested calls attach the inner span as a child of the currently
        open one.
        """
        return _OpenSpan(self, Span(name, attributes))

    def _push(self, sp):
        sp.t_start_s = time.perf_counter() - self._epoch
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        sp._wall0 = time.perf_counter()
        sp._cpu0 = time.process_time()

    def _pop(self, sp):
        sp.wall_s = time.perf_counter() - sp._wall0
        sp.cpu_s = time.process_time() - sp._cpu0
        if not self._stack or self._stack[-1] is not sp:
            raise ConfigurationError(
                f"span {sp.name!r} closed out of order"
            )
        self._stack.pop()

    def reset(self):
        """Drop all recorded spans and restart the epoch."""
        if self._stack:
            raise ConfigurationError(
                f"cannot reset with open span {self._stack[-1].name!r}"
            )
        self._epoch = time.perf_counter()
        self.roots = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def walk(self):
        """Yield ``(depth, span)`` over the forest, pre-order."""
        def _walk(sp, depth):
            yield depth, sp
            for child in sp.children:
                yield from _walk(child, depth + 1)

        for root in self.roots:
            yield from _walk(root, 0)

    def find(self, name):
        """First finished span with ``name`` (depth-first), or ``None``."""
        for __, sp in self.walk():
            if sp.name == name and sp.finished:
                return sp
        return None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self):
        """The whole trace in the ``repro.obs.trace/v1`` schema."""
        return {
            "schema": TRACE_SCHEMA,
            "spans": [r.to_dict() for r in self.roots],
        }

    def to_json(self, indent=None):
        """:meth:`to_dict` serialized (attributes must be JSON-able)."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self):
        """Indented text tree — wall/CPU per span, attrs inline."""
        lines = []
        for depth, sp in self.walk():
            if not sp.finished:
                continue
            attrs = ""
            if sp.attributes:
                pairs = ", ".join(f"{k}={v}" for k, v in
                                  sorted(sp.attributes.items()))
                attrs = f"  [{pairs}]"
            lines.append(
                f"{'  ' * depth}{sp.name}  "
                f"wall {sp.wall_s * 1e3:.3f} ms  "
                f"cpu {sp.cpu_s * 1e3:.3f} ms{attrs}"
            )
        return "\n".join(lines) if lines else "(no spans recorded)"


#: Process-global tracer used by the module-level :func:`span`.
_GLOBAL = Tracer()


def get_tracer():
    """The process-global :class:`Tracer` the pipeline hooks write to."""
    return _GLOBAL


def span(name, **attributes):
    """Open a span on the global tracer — or a no-op when disabled.

    This is the only tracing entry point the instrumented pipeline
    uses; its disabled cost is one flag check.
    """
    if not config.enabled():
        return _NOOP
    return _GLOBAL.span(name, **attributes)
