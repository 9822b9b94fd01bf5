"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig12_fm --seed 5 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass (see README.md).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every correctness check passed.  ``--workload all`` runs every workload,
each in its own process so that one's peak memory cannot leak into
another's.
"""

import sys

# Checked-in bytecode must not be rewritten by a benchmark run.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

#: Least number of cold set-ups per pass; ``setup_s`` is their median.
N_SETUPS = 5
TRACE_SETUPS = 2

#: End-to-end metrics and their units, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "audio_x": "s/s",
    "op_p50_ms": "ms",
    "quality_db": "dB",
    "peak_rss_mb": "MB",
}

WORKLOAD_NAMES = ("fig12_fm", "serve_mix", "relay_map")


def load_program():
    """Import ``repro`` from this checkout's ``src``, or fail.

    Runs the program at its defaults: the variables that select a
    kernel backend, the fast paths or a disk cache are removed first.
    """
    host.pin_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def spread(values, scale=1.0):
    """``median [min, max] of n`` — how every timing is stated."""
    vals = [v * scale for v in values]
    return (f"{statistics.median(vals):.4g} [{min(vals):.4g}, "
            f"{max(vals):.4g}] of {len(vals)}")


def check(workload, untraced):
    """``(attempted, failure lines)`` of an untraced pass."""
    import measure

    attempted, lines = measure.tally(untraced.rounds,
                                     untraced.rounds[0].digests, "round 1")
    extra, failures = workload.final_check(untraced.rounds[0])
    lines += [f"final {k}: {v}" for k, v in failures.items()]
    return attempted + extra, lines


def end_to_end(workload, seconds):
    """Untraced pass: every end-to-end metric, plus a readable summary."""
    import measure

    p = measure.run_pass(workload, N_SETUPS, seconds=seconds)
    attempted, failures = check(workload, p)
    clock = p.clock
    metrics = {
        "setup_s": statistics.median(clock.ref_setup_s()),
        "audio_x": p.audio_x(),
        "op_p50_ms": statistics.median(clock.ref_op_s()) * 1e3,
        "quality_db": statistics.median(r.quality_db for r in p.rounds),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    tail = measure.tail(clock.op_s)
    factors = [s / measure.CAL_REF_S for s in clock.cal_s]
    print(f"  host factor     {spread(factors)}; the wall figures below "
          "are not divided by it")
    print(f"  set-up s        {spread(clock.setup_s)}")
    print(f"  operation ms    {spread(clock.op_s, 1e3)}")
    print("  operation tail  " + (
        f"p{tail[0]} {tail[1] * 1e3:.4g} ms over {len(clock.op_s)} "
        "operations" if tail else
        f"none: {len(clock.op_s)} operations leave fewer than 10 beyond "
        "p75"))
    print("  audio_x per op  " + spread(
        [a / t for a, t in zip(clock.op_audio_s, clock.op_s) if a > 0]))
    return metrics, attempted, failures


def per_layer(workload, seconds, seed):
    """Untraced pass, then a fixed traced pass: every per-layer metric."""
    import measure
    import spans

    untraced = measure.run_pass(workload, N_SETUPS, seconds=seconds)
    attempted, failures = check(workload, untraced)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = measure.run_pass(workload, TRACE_SETUPS,
                                  rounds=workload.trace_rounds)
    more, traced_failures = measure.tally(
        traced.rounds, untraced.rounds[0].digests, "the untraced pass")
    attempted += more
    failures += [f"traced {line}" for line in traced_failures]

    k = traced.clock.host_factor()
    metrics = spans.layer_metrics(tracer, traced.wall_s, k)
    metrics["trace.overhead_frac"] = (untraced.audio_x() / traced.audio_x()
                                      - 1.0)
    # A tick is serve_mix's operation. Its p95 is stated with the sample
    # count, and only when at least ten ticks lie beyond it.
    ticks = (untraced.clock.ref_op_s() if workload.name == "serve_mix"
             else [])
    metrics["serving.ticks"] = len(ticks)
    metrics["serving.tick_p95_ms"] = (
        statistics.quantiles(ticks, n=20, method="inclusive")[-1] * 1e3
        if len(ticks) >= 200 else 0.0)
    for name in workload.zero_layers:
        if metrics[name] != 0:
            failures.append(f"layer map: {name} = {metrics[name]:.6g}, "
                            "predicted zero")

    wall = traced.wall_s
    print(f"  traced wall {wall:.4f} s, host factor {k:.4f}, coverage "
          f"{metrics['trace.coverage']:.4f}, overhead "
          f"{metrics['trace.overhead_frac']:+.4f} (wall audio_x untraced "
          f"{untraced.audio_x(ref=False):.4g}, traced "
          f"{traced.audio_x(ref=False):.4g})")
    times, __ = tracer.layer_times()
    print(f"  {'span':<26}{'calls':>8}{'wall self s':>12}{'share':>8}")
    for name, (calls, self_s) in times.items():
        if calls:
            print(f"  {name:<26}{calls:>8}{self_s:>12.4f}"
                  f"{self_s / wall:>8.1%}")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload.name}-seed{seed}.json"
    origin = min((s[1] for s in tracer.spans), default=0.0)
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "fingerprint": host.fingerprint(ROOT),
        "metrics": metrics,
        "layers": {n: {"calls": c, "wall_self_s": s}
                   for n, (c, s) in times.items()},
        "spans": tracer.dump(origin),
    }))
    print(f"  trace written to {path}")
    return metrics, attempted, failures


def run_one(args):
    load_program()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("fingerprint " + json.dumps(host.fingerprint(ROOT)))
    if args.trace:
        values, attempted, failures = per_layer(workload, args.seconds,
                                                args.seed)
        units = spans.PER_LAYER_UNITS
    else:
        values, attempted, failures = end_to_end(workload, args.seconds)
        units = END_TO_END
    for line in failures:
        print(f"  FAILED {line}")
    print(f"  failed {len(failures)} of {attempted} attempted")
    return {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }


def run_all(args):
    """Every workload in its own process; metrics keyed ``workload.metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, "-B", str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"perfbench: {name} printed no result "
                             f"(exit {proc.returncode})") from None
        total["correct"] &= bool(result["correct"]) and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="MUTE benchmark: one workload, end-to-end or traced.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20,
                        help="how long the timed phase runs (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
