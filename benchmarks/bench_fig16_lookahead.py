"""Figure 16 — cancellation vs lookahead (delayed-line-buffer sweep)."""

from _bench_utils import run_once

from repro.eval.experiments import run_fig16


def test_fig16_lookahead_curve(benchmark, report):
    result = run_once(benchmark, run_fig16, duration_s=8.0, seed=7)
    report(result.report())

    means = result.monotone_improvement()
    # The Eq.-3 lower bound (zero anti-causal taps) is clearly the worst
    # setting, and the largest extra lookahead is clearly better.
    assert means[0] > means[-1] + 2.0
    # Future taps grow along the sweep exactly as injected delay shrinks.
    taps = list(result.future_taps.values())
    assert taps == sorted(taps)
    assert taps[0] == 0
