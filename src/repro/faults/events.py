"""Fault events and plans: the deterministic fault model of the relay path.

MUTE's premise is a wireless relay that delivers the noise reference
*ahead of time* (paper §4, Figure 9).  Everything in this module exists
to take that premise away — on a schedule, reproducibly:

* a :class:`FaultEvent` is one timed impairment of the relay path
  (outage window, RF SNR fade, burst interference, digital packet
  loss/reorder, clock drift, relay handoff blackout);
* a :class:`FaultPlan` is an ordered collection of events plus a seed —
  the complete, content-addressed description of "what goes wrong when"
  for one simulated run.  Its frozen-tuple, sorting and
  :meth:`~EventPlan.plan_key` machinery lives in :class:`EventPlan`,
  which :class:`repro.chaos.ChaosPlan` shares.

Plans are *data*, never behavior: applying one is the job of
:mod:`repro.faults.injector`, which wraps a relay's ``forward()``
without touching the wrapped object.  Because a
plan is a frozen value with a deterministic :meth:`FaultPlan.plan_key`,
two processes given equal plans inject bit-identical faults — which is
what keeps :mod:`repro.runtime`'s parallel executor and channel cache
honest (the cache never sees faults at all: plans perturb *signals*,
not room geometry).

Time convention
---------------
Event times are **seconds from the start of the forwarded waveform**.
The injector treats each ``forward()`` call as ``t = 0``; MUTE
experiments forward one waveform per run, so plan time equals
simulation time.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..errors import ConfigurationError

__all__ = [
    "FaultEvent",
    "RelayOutage",
    "SnrFade",
    "BurstInterference",
    "PacketLoss",
    "PacketReorder",
    "ClockDrift",
    "RelayHandoff",
    "EventPlan",
    "FaultPlan",
    "outage_plan",
    "packet_loss_plan",
]


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One timed impairment window on the relay path.

    Parameters
    ----------
    start_s : float
        Window start, seconds from the beginning of the forwarded
        waveform (inclusive).
    stop_s : float
        Window end, seconds (exclusive).  Must be ``> start_s``.

    Notes
    -----
    Subclasses add the impairment-specific knobs; this base class only
    owns the window arithmetic shared by all of them.
    """

    start_s: float
    stop_s: float

    def __post_init__(self):
        if self.start_s < 0.0:
            raise ConfigurationError(
                f"{type(self).__name__}: start_s must be >= 0, "
                f"got {self.start_s}"
            )
        if self.stop_s <= self.start_s:
            raise ConfigurationError(
                f"{type(self).__name__}: stop_s ({self.stop_s}) must be "
                f"> start_s ({self.start_s})"
            )

    @property
    def duration_s(self):
        """Window length in seconds."""
        return self.stop_s - self.start_s

    def window(self, sample_rate, n_samples):
        """The event's sample window clipped to a waveform.

        Parameters
        ----------
        sample_rate : float
            Rate of the waveform the event is applied to (Hz).
        n_samples : int
            Length of that waveform.

        Returns
        -------
        (int, int)
            ``(lo, hi)`` slice bounds with ``0 <= lo <= hi <= n_samples``;
            an empty window (``lo == hi``) means the event falls entirely
            outside the waveform.
        """
        lo = int(round(self.start_s * sample_rate))
        hi = int(round(self.stop_s * sample_rate))
        lo = min(max(lo, 0), int(n_samples))
        hi = min(max(hi, lo), int(n_samples))
        return lo, hi


@dataclasses.dataclass(frozen=True)
class RelayOutage(FaultEvent):
    """Total loss of the relay link — the forwarded stream goes silent.

    Models an RF fade below the demodulator threshold, a powered-off
    relay, or a user walking out of range.  The severest fault: the
    ear-device keeps running but its reference is gone, which is the
    case Friot's non-causality analysis says cancellation cannot
    survive — the degradation controller's job is to fail to passive
    instead of diverging.
    """


@dataclasses.dataclass(frozen=True)
class SnrFade(FaultEvent):
    """A graded RF fade: the link stays up but its SNR collapses.

    Parameters
    ----------
    snr_db : float
        Received SNR during the fade, dB.  Applied as additive white
        noise scaled against the in-window signal power.
    """

    snr_db: float = 10.0


@dataclasses.dataclass(frozen=True)
class BurstInterference(FaultEvent):
    """Impulsive co-channel interference riding on the forwarded audio.

    Parameters
    ----------
    level_rms : float
        RMS of the additive interference during the window, at the
        audio signal level.
    """

    level_rms: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if self.level_rms < 0:
            raise ConfigurationError("level_rms must be >= 0")


@dataclasses.dataclass(frozen=True)
class PacketLoss(FaultEvent):
    """Frame-wise erasure of a digital relay stream inside the window.

    Parameters
    ----------
    loss_rate : float
        Per-frame loss probability in ``[0, 1)``.
    frame_s : float
        Frame duration; lost frames play out as silence, exactly the
        concealment-free behavior of
        :class:`repro.wireless.digital.DigitalRelay`.
    """

    loss_rate: float = 0.1
    frame_s: float = 10e-3

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        if self.frame_s <= 0:
            raise ConfigurationError("frame_s must be > 0")


@dataclasses.dataclass(frozen=True)
class PacketReorder(FaultEvent):
    """Adjacent-frame swaps inside the window (late-arriving packets).

    Parameters
    ----------
    swap_rate : float
        Probability that a frame pair inside the window is swapped.
    frame_s : float
        Frame duration.
    """

    swap_rate: float = 0.1
    frame_s: float = 10e-3

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.swap_rate <= 1.0:
            raise ConfigurationError("swap_rate must be in [0, 1]")
        if self.frame_s <= 0:
            raise ConfigurationError("frame_s must be > 0")


@dataclasses.dataclass(frozen=True)
class ClockDrift(FaultEvent):
    """A drifting relay clock: the forwarded stream slowly de-aligns.

    Parameters
    ----------
    ppm : float
        Drift rate, parts-per-million.  During the window the forwarded
        samples slip by ``ppm * 1e-6 * (t - start_s)`` seconds — a ramp,
        resynchronized at ``stop_s`` (the online device re-measures
        alignment with GCC-PHAT; the window models the span between
        re-measurements).
    """

    ppm: float = 200.0


@dataclasses.dataclass(frozen=True)
class RelayHandoff(FaultEvent):
    """The blackout while the client re-associates to another relay.

    Constructed from an instant plus a blackout length (a handoff is an
    event, not a window the user picks end-points for)::

        RelayHandoff.at(3.0, blackout_s=0.08)

    During the blackout the forwarded stream is silent, like a short
    :class:`RelayOutage`; keeping it a distinct type lets reports count
    handoffs separately from RF outages.
    """

    @classmethod
    def at(cls, at_s, blackout_s=0.05):
        """Build a handoff blackout starting at ``at_s`` seconds."""
        if blackout_s <= 0:
            raise ConfigurationError("blackout_s must be > 0")
        return cls(start_s=at_s, stop_s=at_s + blackout_s)


def _event_blob(event):
    """``Type(field=value,...)`` with exact float reprs — key material."""
    fields = ",".join(
        f"{f.name}={getattr(event, f.name)!r}"
        for f in dataclasses.fields(event)
    )
    return f"{type(event).__name__}({fields})"


@dataclasses.dataclass(frozen=True)
class EventPlan:
    """A frozen, content-addressed schedule of events plus a seed.

    The shared half of :class:`FaultPlan` and
    :class:`repro.chaos.ChaosPlan`.  A subclass supplies three class
    attributes: ``event_type`` (what its events must be), ``sort_key``
    (the order events are stored in, so two plans with the same events
    in different order are the same plan) and ``key_prefix`` (the
    schema tag that opens :meth:`plan_key`).
    """

    events: tuple = ()
    seed: int = 0

    def __post_init__(self):
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, self.event_type):
                raise ConfigurationError(
                    f"plan events must be {self.event_type.__name__} "
                    f"instances, got {type(event).__name__}"
                )
        object.__setattr__(self, "events",
                           tuple(sorted(events, key=self.sort_key)))

    def __len__(self):
        return len(self.events)

    @property
    def empty(self):
        """True when the plan injects nothing (the identity plan)."""
        return not self.events

    def plan_key(self):
        """Deterministic SHA-256 content key for this plan.

        SHA-256 over ``key_prefix``, ``seed:<repr(seed)>`` and one
        ``Type(field=repr(value),...)`` blob per event in plan order,
        joined by ``|``.  Floats round-trip exactly through ``repr``
        and no ``hash()`` is involved, so the key is stable across
        processes and ``PYTHONHASHSEED`` values.  Experiment envelopes
        and obs spans carry it so a result can always be traced back to
        the exact schedule that produced it.
        """
        parts = [self.key_prefix, f"seed:{self.seed!r}"]
        parts.extend(_event_blob(event) for event in self.events)
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def events_of(self, *types):
        """The plan's events that are instances of the given types."""
        return tuple(e for e in self.events if isinstance(e, types))

    def describe(self):
        """One line per event — for reports and logs."""
        name = type(self).__name__
        if self.empty:
            return f"{name}: (no events)"
        lines = [f"{name} seed={self.seed} key={self.plan_key()[:12]}"]
        lines.extend(f"  {_event_blob(event)}" for event in self.events)
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class FaultPlan(EventPlan):
    """A deterministic, content-addressed schedule of fault events.

    Parameters
    ----------
    events : tuple of FaultEvent
        The impairments, in any order (stored sorted by ``start_s`` so
        two plans with the same events in different order are the same
        plan — same key, same injection).
    seed : int
        Root seed for every stochastic event.  Event ``i`` draws from
        ``default_rng([seed, i])``, so adding an event never perturbs
        the noise of the others.

    Notes
    -----
    The plan is pure data: frozen, picklable, and hashable by content
    via :meth:`plan_key`.  A plan with no events is the **identity**:
    the injector forwards the wrapped object's output bit-identically
    (``tests/test_failure_injection.py`` holds this as a property test).
    """

    event_type = FaultEvent
    key_prefix = "repro.faults/v1"

    @staticmethod
    def sort_key(event):
        return (event.start_s, event.stop_s, type(event).__name__)

    def outage_fraction(self, duration_s):
        """Fraction of ``[0, duration_s]`` covered by silence events.

        Counts :class:`RelayOutage` and :class:`RelayHandoff` windows
        (merged, clipped); the x-axis of the ``resilience`` experiment.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be > 0")
        windows = sorted(
            (max(e.start_s, 0.0), min(e.stop_s, duration_s))
            for e in self.events_of(RelayOutage, RelayHandoff)
        )
        covered, cursor = 0.0, 0.0
        for lo, hi in windows:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / duration_s


def outage_plan(duration_s, fraction, center=0.5, seed=0):
    """One mid-run relay outage covering ``fraction`` of the run.

    Parameters
    ----------
    duration_s : float
        Total run length the plan is designed for.
    fraction : float
        Outage length as a fraction of ``duration_s`` in ``[0, 1)``;
        ``0`` returns the empty (identity) plan.
    center : float
        Where the outage is centered, as a fraction of the run.
    seed : int
        Plan seed (unused by the outage itself — kept so derived plans
        stay content-distinct when callers vary it).

    Returns
    -------
    FaultPlan
    """
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be > 0")
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError("fraction must be in [0, 1)")
    if fraction == 0.0:
        return FaultPlan(seed=seed)
    half = 0.5 * fraction * duration_s
    mid = center * duration_s
    start = max(mid - half, 0.0)
    stop = min(mid + half, duration_s)
    return FaultPlan(events=(RelayOutage(start, stop),), seed=seed)


def packet_loss_plan(duration_s, loss_rate, frame_s=10e-3, seed=0):
    """Uniform frame loss over the whole run (the Xiao & Doclo axis).

    ``loss_rate == 0`` returns the empty (identity) plan.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be > 0")
    if loss_rate == 0.0:
        return FaultPlan(seed=seed)
    return FaultPlan(
        events=(PacketLoss(0.0, duration_s, loss_rate=loss_rate,
                           frame_s=frame_s),),
        seed=seed,
    )
