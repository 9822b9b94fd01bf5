"""Reference-health watchdog and the graceful-degradation controller.

When the relay path fails, an adaptive feedforward canceler has three
choices, in order of preference (Xiao & Doclo's delay study: degradation
is graded, not binary):

1. **mute** — the reference is healthy: full LANC, adapting, anti-noise
   on (the normal MUTE operating point);
2. **feedback** — the reference is degraded (fade, bursts, heavy
   loss): keep cancelling with the last converged taps but *freeze
   adaptation*, so a corrupt reference cannot walk the filter away from
   its solution (the device behaves like a fixed feedback canceler on
   cached state);
3. **passive** — the reference is lost: stop driving the anti-noise
   speaker entirely and let the earcup's passive attenuation carry the
   ear (driving a converged filter with silence just outputs silence
   *plus* adaptation noise; muting is strictly better and is what a
   production device must do).

:class:`ReferenceHealthMonitor` is the watchdog: a per-block
energy/spike detector with hysteresis, so one noisy block cannot flap
the mode.  :class:`DegradationController` maps health to modes, owns the
tap snapshot/restore that makes **recovery** fast (on re-entering
``mute`` it restores the pre-fault taps and resumes adapting — the
filter re-converges from its old solution rather than from zero), and
emits a :mod:`repro.obs` span plus counters for every transition.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..utils.validation import check_positive, check_positive_int

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "LOST",
    "MODE_MUTE",
    "MODE_FEEDBACK",
    "MODE_PASSIVE",
    "ReferenceHealthMonitor",
    "ModeTransition",
    "DegradationController",
]

#: Reference-health states, in increasing severity.
HEALTHY = "healthy"
DEGRADED = "degraded"
LOST = "lost"

_SEVERITY = {HEALTHY: 0, DEGRADED: 1, LOST: 2}

#: Degradation modes, in decreasing capability.
MODE_MUTE = "mute"
MODE_FEEDBACK = "feedback"
MODE_PASSIVE = "passive"

_MODE_FOR_STATE = {HEALTHY: MODE_MUTE, DEGRADED: MODE_FEEDBACK,
                   LOST: MODE_PASSIVE}

#: Numeric encoding for the ``resilience.mode`` gauge.
MODE_LEVEL = {MODE_MUTE: 2, MODE_FEEDBACK: 1, MODE_PASSIVE: 0}


class ReferenceHealthMonitor:
    """Block-wise energy/SNR watchdog over the relay reference.

    The monitor learns a baseline reference level (an EMA over healthy
    blocks) and classifies each new block against it:

    * RMS below ``lost_ratio``  × baseline → :data:`LOST`
      (outage/handoff: the stream went silent);
    * RMS below ``degraded_ratio`` × baseline **or** above
      ``spike_ratio`` × baseline → :data:`DEGRADED` (a fade or burst
      interference floods the stream with energy that is not signal —
      the SNR side of the watchdog);
    * otherwise → :data:`HEALTHY`.

    Parameters
    ----------
    lost_ratio : float
        RMS ratio under which the reference counts as gone.
    degraded_ratio : float
        RMS ratio under which it counts as degraded.
        Must satisfy ``lost_ratio < degraded_ratio < 1``.
    spike_ratio : float
        RMS ratio above which excess energy counts as interference.
    recovery_blocks : int
        Hysteresis: the reported state only *improves* after this many
        consecutive better-than-current assessments.  Worsening is
        immediate — failing fast is safe, flapping is not.
    baseline_alpha : float
        EMA coefficient for the baseline level (updated on healthy
        blocks only, so an outage cannot drag the baseline down).
    floor_rms : float
        Absolute silence floor used before a baseline exists.

    Notes
    -----
    The monitor is pure state-machine — no randomness, no wall clock —
    so resilient runs stay bit-reproducible.
    """

    def __init__(self, lost_ratio=0.1, degraded_ratio=0.5, spike_ratio=4.0,
                 recovery_blocks=2, baseline_alpha=0.25, floor_rms=1e-8):
        if not 0.0 < lost_ratio < degraded_ratio < 1.0:
            raise ConfigurationError(
                "need 0 < lost_ratio < degraded_ratio < 1, got "
                f"({lost_ratio}, {degraded_ratio})"
            )
        if spike_ratio <= 1.0:
            raise ConfigurationError("spike_ratio must be > 1")
        if not 0.0 < baseline_alpha <= 1.0:
            raise ConfigurationError("baseline_alpha must be in (0, 1]")
        self.lost_ratio = float(lost_ratio)
        self.degraded_ratio = float(degraded_ratio)
        self.spike_ratio = float(spike_ratio)
        self.recovery_blocks = check_positive_int("recovery_blocks",
                                                  recovery_blocks)
        self.baseline_alpha = float(baseline_alpha)
        self.floor_rms = check_positive("floor_rms", floor_rms)
        self.baseline_rms = None
        self.state = HEALTHY
        self._better_streak = 0

    def _raw_state(self, rms):
        """Classification of one block, hysteresis not yet applied."""
        if self.baseline_rms is None:
            return LOST if rms < self.floor_rms else HEALTHY
        ratio = rms / max(self.baseline_rms, self.floor_rms)
        if ratio < self.lost_ratio:
            return LOST
        if ratio < self.degraded_ratio or ratio > self.spike_ratio:
            return DEGRADED
        return HEALTHY

    def assess(self, reference_block):
        """Classify one reference block; returns the (hysteretic) state.

        Parameters
        ----------
        reference_block : array_like
            The aligned reference samples about to be consumed.

        Returns
        -------
        str
            :data:`HEALTHY`, :data:`DEGRADED`, or :data:`LOST`.
        """
        block = np.asarray(reference_block, dtype=np.float64)
        rms = float(np.sqrt(np.mean(np.square(block)))) if block.size \
            else 0.0
        raw = self._raw_state(rms)
        if _SEVERITY[raw] > _SEVERITY[self.state]:
            # Worsening is immediate.
            self.state = raw
            self._better_streak = 0
        elif _SEVERITY[raw] < _SEVERITY[self.state]:
            self._better_streak += 1
            if self._better_streak >= self.recovery_blocks:
                self.state = raw
                self._better_streak = 0
        else:
            self._better_streak = 0
        if self.state == HEALTHY:
            if self.baseline_rms is None:
                self.baseline_rms = rms
            else:
                a = self.baseline_alpha
                self.baseline_rms = (1.0 - a) * self.baseline_rms + a * rms
        return self.state


@dataclasses.dataclass(frozen=True)
class ModeTransition:
    """One mode change of the degradation controller."""

    block_index: int      #: which observe() call triggered it
    sample_index: int     #: first sample of that block
    time_s: float         #: sample_index / sample_rate
    from_mode: str
    to_mode: str
    state: str            #: the monitor state that triggered the change


class DegradationController:
    """Maps reference health to filter gating; owns recovery.

    Parameters
    ----------
    lanc_filter : LancFilter
        The adaptive filter being protected.  The controller snapshots
        its taps when leaving :data:`MODE_MUTE` and restores them when
        re-entering it, so recovery resumes from the pre-fault solution.
    monitor : ReferenceHealthMonitor, optional
        The watchdog; a default-configured one if omitted.
    sample_rate : float
        Used only to timestamp transitions.

    Notes
    -----
    Every transition appends a :class:`ModeTransition`, emits a
    ``resilience.transition`` span (attributes ``from``/``to``/
    ``state``/``t_s``) into the active trace, ticks the
    ``resilience.transitions{from,to}`` counter, and sets the
    ``resilience.mode`` gauge (2 = mute, 1 = feedback, 0 = passive) —
    so a mid-run outage is visible in the recorded trace and metrics.
    """

    def __init__(self, lanc_filter, monitor=None, sample_rate=8000.0):
        if not hasattr(lanc_filter, "get_taps") \
                or not hasattr(lanc_filter, "set_taps"):
            raise ConfigurationError(
                "lanc_filter must expose get_taps()/set_taps()"
            )
        self.filter = lanc_filter
        self.monitor = monitor or ReferenceHealthMonitor()
        self.sample_rate = check_positive("sample_rate", sample_rate)
        self.mode = MODE_MUTE
        self.transitions = []
        self.modes = []          #: mode chosen for each observed block
        self._snapshot = None
        self._blocks = 0

    def observe(self, reference_block, sample_index):
        """Assess one block and return the mode to run it under.

        Parameters
        ----------
        reference_block : array_like
            Aligned reference for the upcoming block.
        sample_index : int
            Absolute start sample of the block (for transition records).

        Returns
        -------
        str
            :data:`MODE_MUTE`, :data:`MODE_FEEDBACK`, or
            :data:`MODE_PASSIVE`.
        """
        state = self.monitor.assess(reference_block)
        target = _MODE_FOR_STATE[state]
        if target != self.mode:
            self._transition(target, state, sample_index)
        self.modes.append(self.mode)
        self._blocks += 1
        return self.mode

    def _transition(self, target, state, sample_index):
        if self.mode == MODE_MUTE:
            # Leaving healthy operation: preserve the converged taps
            # before a corrupt reference can touch them.
            self._snapshot = self.filter.get_taps()
        if target == MODE_MUTE and self._snapshot is not None:
            # Recovery: resume adapting from the pre-fault solution.
            self.filter.set_taps(self._snapshot)
        transition = ModeTransition(
            block_index=self._blocks,
            sample_index=int(sample_index),
            time_s=float(sample_index) / self.sample_rate,
            from_mode=self.mode,
            to_mode=target,
            state=state,
        )
        self.transitions.append(transition)
        if obs.enabled():
            with obs.span("resilience.transition",
                          **{"from": transition.from_mode,
                             "to": transition.to_mode,
                             "state": state,
                             "t_s": round(transition.time_s, 6)}):
                pass
            registry = obs.get_registry()
            registry.counter("resilience.transitions",
                             **{"from": transition.from_mode,
                                "to": transition.to_mode}).inc()
            registry.gauge("resilience.mode").set(MODE_LEVEL[target])
        self.mode = target

    @staticmethod
    def gates(mode):
        """``(adapt, active)`` filter gating for a mode.

        ``adapt`` — whether the LANC taps may update this block;
        ``active`` — whether the anti-noise speaker is driven at all.
        """
        if mode == MODE_MUTE:
            return True, True
        if mode == MODE_FEEDBACK:
            return False, True
        if mode == MODE_PASSIVE:
            return False, False
        raise ConfigurationError(f"unknown mode {mode!r}")

    @property
    def recovered(self):
        """True when the controller is back in full MUTE operation."""
        return self.mode == MODE_MUTE

    def mode_fractions(self):
        """``{mode: fraction of observed blocks}`` (for reports)."""
        if not self.modes:
            return {}
        n = len(self.modes)
        return {mode: self.modes.count(mode) / n
                for mode in (MODE_MUTE, MODE_FEEDBACK, MODE_PASSIVE)
                if mode in self.modes}
