"""Metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-flavored but dependency-free.  A metric is identified by a
``name`` plus a set of string **labels** (``engine="lanc"``,
``stage="prepare"``, ``profile="speech"``); the registry hands out the
same instrument object for the same (name, labels) pair, so hot paths
can fetch an instrument once and observe repeatedly::

    from repro import obs

    hist = obs.get_registry().histogram("adaptive.block_update_s",
                                        engine="block-lanc")
    for block in blocks:
        t0 = time.perf_counter()
        ...
        hist.observe(time.perf_counter() - t0)

Instrument kinds
----------------
:class:`Counter`
    Monotone accumulator (``inc``) — runs, samples, switches, hits.
:class:`Gauge`
    Last-written value (``set``) plus the number of writes — levels
    like misadjustment or relay SNR.
:class:`Histogram`
    Fixed-bucket distribution (``observe``) with quantile *summaries*
    estimated by linear interpolation inside the matching bucket and
    clamped to the observed range.  The default buckets are exponential
    from 1 µs to 10 s, sized for latencies; pass explicit ``buckets``
    for other units.

Export: :meth:`MetricsRegistry.to_dict` emits the
``repro.obs.metrics/v1`` schema shared by ``repro perf-profile`` and the
benchmark suite (see ``benchmarks/README.md``);
:meth:`MetricsRegistry.render` prints a terminal table.
"""

from __future__ import annotations

import bisect
import json

from ..errors import ConfigurationError

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "METRICS_SCHEMA", "DEFAULT_LATENCY_BUCKETS",
]

#: Schema identifier stamped into every exported metrics payload.
METRICS_SCHEMA = "repro.obs.metrics/v1"

#: Exponential bucket upper bounds (seconds) for latency histograms:
#: 1 µs … 10 s, three buckets per decade, plus the +inf overflow.
DEFAULT_LATENCY_BUCKETS = tuple(
    round(mantissa * 10.0 ** exponent, 12)
    for exponent in range(-6, 1)
    for mantissa in (1.0, 2.0, 5.0)
) + (10.0,)


def _check_labels(labels):
    out = {}
    for key, value in labels.items():
        out[str(key)] = str(value)
    return out


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount=1.0):
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def to_dict(self):
        return {"value": self.value}


class Gauge:
    """Last-set value, with a write count so rates can be derived."""

    kind = "gauge"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = None
        self.writes = 0

    def set(self, value):
        """Record the current level."""
        self.value = float(value)
        self.writes += 1

    def to_dict(self):
        return {"value": self.value, "writes": self.writes}


class Histogram:
    """Fixed-bucket histogram with interpolated quantile summaries.

    ``buckets`` are the upper bounds of each bin, strictly increasing;
    an implicit +inf bucket catches overflow.  Quantiles are therefore
    *estimates* whose resolution is the bucket width — exact enough for
    latency reporting, constant-memory regardless of sample count.
    """

    kind = "histogram"

    def __init__(self, name, labels, buckets=None):
        self.name = name
        self.labels = labels
        bounds = tuple(float(b) for b in
                       (buckets or DEFAULT_LATENCY_BUCKETS))
        if len(bounds) < 1 or any(b2 <= b1 for b1, b2 in
                                  zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self):
        """Exact mean of all observations (``None`` when empty)."""
        return self.sum / self.count if self.count else None

    def quantile(self, q):
        """Estimated ``q``-quantile (0 <= q <= 1), ``None`` when empty.

        Linear interpolation inside the bucket containing the target
        rank; the overflow bucket reports the observed maximum.  The
        estimate is clamped to the observed ``[min, max]``, so a single
        observation reads back exactly and no quantile lies outside
        what was seen.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile q must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                if i == len(self.bounds):       # overflow bucket
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else min(self.min or 0.0, 0.0)
                hi = self.bounds[i]
                fraction = (target - cumulative) / n
                estimate = lo + fraction * (hi - lo)
                return min(max(estimate, self.min), self.max)
            cumulative += n
        return self.max

    def summary(self):
        """count / sum / mean / min / max / p50 / p90 / p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def to_dict(self):
        d = self.summary()
        d["buckets"] = [
            {"le": bound, "count": n}
            for bound, n in zip(self.bounds, self.counts)
        ]
        d["overflow"] = self.counts[-1]
        return d


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name + labels."""

    def __init__(self):
        self._instruments = {}

    def _get(self, factory, kind, name, labels, **kwargs):
        labels = _check_labels(labels)
        key = (kind, str(name), tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(str(name), labels, **kwargs)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name, **labels):
        """The :class:`Counter` for (name, labels), created on first use."""
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name, **labels):
        """The :class:`Gauge` for (name, labels), created on first use."""
        return self._get(Gauge, "gauge", name, labels)

    def histogram(self, name, buckets=None, **labels):
        """The :class:`Histogram` for (name, labels), created on first use.

        ``buckets`` only applies at creation; later calls with different
        buckets return the existing instrument unchanged.
        """
        return self._get(Histogram, "histogram", name, labels,
                         buckets=buckets)

    def __len__(self):
        return len(self._instruments)

    def instruments(self):
        """All instruments, sorted by (name, labels)."""
        return [self._instruments[k] for k in sorted(self._instruments,
                                                     key=lambda k: k[1:])]

    def reset(self):
        """Forget every instrument."""
        self._instruments = {}

    def to_dict(self):
        """Everything recorded, in the ``repro.obs.metrics/v1`` schema."""
        return {
            "schema": METRICS_SCHEMA,
            "metrics": [
                {
                    "name": inst.name,
                    "kind": inst.kind,
                    "labels": dict(inst.labels),
                    **inst.to_dict(),
                }
                for inst in self.instruments()
            ],
        }

    def to_json(self, indent=None):
        """:meth:`to_dict` serialized."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self):
        """Terminal table: one row per instrument."""
        rows = []
        for inst in self.instruments():
            labels = ",".join(f"{k}={v}" for k, v in
                              sorted(inst.labels.items()))
            if inst.kind == "histogram":
                s = inst.summary()
                detail = (f"n={s['count']} mean={s['mean']:.3e} "
                          f"p50={s['p50']:.3e} p99={s['p99']:.3e}"
                          if s["count"] else "n=0")
            elif inst.kind == "gauge":
                detail = (f"{inst.value:.6g} (writes={inst.writes})"
                          if inst.writes else "unset")
            else:
                detail = f"{inst.value:g}"
            rows.append(f"{inst.name:<28} {inst.kind:<9} "
                        f"{labels:<24} {detail}")
        if not rows:
            return "(no metrics recorded)"
        header = f"{'name':<28} {'kind':<9} {'labels':<24} value"
        return "\n".join([header, "-" * len(header)] + rows)


#: Process-global registry the pipeline hooks write to.
_GLOBAL = MetricsRegistry()


def get_registry():
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL
