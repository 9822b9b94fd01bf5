"""Figures 7–8 — adaptive-filter convergence behavior.

Three timelines the paper uses to motivate profiling:

* (8a) persistent machine hum: the filter converges once and stays
  converged;
* (8b) intermittent speech with a single filter: the error spikes and
  re-converges at every onset;
* (8c) the same speech with predictive switching: the spikes shrink.

The runner reports sliding-RMS envelopes and a transition-spike metric
(mean residual in the first 150 ms after each speech onset).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...signals import MachineHum, segments_from_mask
from ..metrics import convergence_envelope
from ..reporting import format_table, sparkline
from .common import bench_scenario, build_system
from .fig17_profiling import build_two_source_scene, single_vs_switching
from .registry import experiment_result

__all__ = ["ConvergenceResult", "run_convergence"]


@dataclasses.dataclass
class ConvergenceResult:
    """Envelopes + onset-spike statistics for the three timelines."""

    envelopes: dict            # label -> (times, rms)
    onset_spike_single: float  # mean RMS in post-onset windows, single filter
    onset_spike_switching: float
    steady_hum_rms: float      # converged residual on persistent noise
    initial_hum_rms: float     # pre-convergence residual

    def spike_reduction_db(self):
        """Switching's improvement in post-onset residual."""
        if self.onset_spike_single <= 0:
            return 0.0
        return 20.0 * np.log10(
            max(self.onset_spike_switching, 1e-12) / self.onset_spike_single
        )

    def report(self):
        rows = [
            ("hum residual, first 0.5 s", f"{self.initial_hum_rms:.4f}"),
            ("hum residual, converged", f"{self.steady_hum_rms:.4f}"),
            ("post-onset residual, single filter",
             f"{self.onset_spike_single:.4f}"),
            ("post-onset residual, with switching",
             f"{self.onset_spike_switching:.4f}"),
            ("switching spike reduction",
             f"{self.spike_reduction_db():+.1f} dB"),
        ]
        table = format_table(["metric", "value"], rows,
                             title="Figures 7-8 — convergence behavior")
        lines = [table]
        for label, (times, env) in self.envelopes.items():
            step = max(len(env) // 160, 1)
            lines.append(f"{label}: {sparkline(env[::step])}")
        return "\n".join(lines)


def _onset_spike(error, mask, sample_rate, window_s=0.15, skip_first=1):
    """Mean RMS of the residual right after each speech onset."""
    window = int(window_s * sample_rate)
    onsets = [start for start, __, active in segments_from_mask(mask)
              if active][skip_first:]
    if not onsets:
        return 0.0
    chunks = [error[s: s + window] for s in onsets if s + window <= error.size]
    if not chunks:
        return 0.0
    stacked = np.concatenate(chunks)
    return float(np.sqrt(np.mean(np.square(stacked))))


def run_convergence(duration_s=12.0, *, seed=41, scenario=None):
    """Produce the three timelines and their statistics."""
    scenario = scenario or bench_scenario()
    fs = scenario.sample_rate

    # --- (a) persistent machine hum -----------------------------------
    hum = MachineHum(sample_rate=fs, level_rms=0.1, seed=seed)
    system = build_system(scenario)
    hum_run = system.run(hum.generate(duration_s / 2.0))
    t_hum, env_hum = convergence_envelope(hum_run.residual, fs)
    half_second = int(0.5 * fs)
    initial_hum = float(np.sqrt(np.mean(hum_run.residual[:half_second] ** 2)))
    steady_hum = float(np.sqrt(np.mean(hum_run.residual[-half_second:] ** 2)))

    # --- (b)+(c) intermittent speech over background -------------------
    scene, n_past = build_two_source_scene(duration_s=duration_s,
                                           seed=seed + 1, scenario=scenario)
    err_single, err_switching, __ = single_vs_switching(scene, n_past)

    t_single, env_single = convergence_envelope(err_single, fs)
    t_switch, env_switch = convergence_envelope(err_switching, fs)

    result = ConvergenceResult(
        envelopes={
            "(a) persistent hum": (t_hum, env_hum),
            "(b) speech, single filter": (t_single, env_single),
            "(c) speech, with switching": (t_switch, env_switch),
        },
        onset_spike_single=_onset_spike(err_single, scene.speech_mask, fs),
        onset_spike_switching=_onset_spike(err_switching, scene.speech_mask,
                                           fs),
        steady_hum_rms=steady_hum,
        initial_hum_rms=initial_hum,
    )
    return experiment_result(
        "convergence",
        dict(duration_s=duration_s, seed=seed, scenario=scenario),
        result,
    )
