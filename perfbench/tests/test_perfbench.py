"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -p no:cacheprovider perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets sys.dont_write_bytecode before anything else)

run.load_program()

import measure  # noqa: E402
import workloads  # noqa: E402
from repro.core.system import MuteSystem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    code = run.main(["--seed", "3", "--seconds", "1", "--tiny", *argv])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_emitted_with_its_unit(capsys, workload, trace,
                                            section):
    code, result = _result(capsys, "--workload", workload,
                           "--trace", str(trace))
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seeded_run_reproduces_its_digests(workload):
    def digests(seed):
        w = workloads.WORKLOADS[workload](seed, tiny=True)
        return w.round(measure.Clock()).digests

    first = digests(3)
    assert digests(3) == first
    assert digests(4) != first


def test_corrupted_residual_trips_the_check(capsys, monkeypatch):
    original = MuteSystem.run

    def corrupted(self, noise):
        result = original(self, noise)
        result.residual[len(result.residual) // 2] = np.nan
        return result

    monkeypatch.setattr(MuteSystem, "run", corrupted)
    code, result = _result(capsys, "--workload", "fig12_fm")
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_nondeterministic_residual_trips_the_check(capsys, monkeypatch):
    original = MuteSystem.run
    calls = []

    def drifting(self, noise):
        result = original(self, noise)
        calls.append(None)
        if len(calls) > 1:
            result.residual[-1] += 1e-12
        return result

    monkeypatch.setattr(MuteSystem, "run", drifting)
    # Enough seconds for a second round, whose output then differs.
    code, result = _result(capsys, "--workload", "fig12_fm", "--seconds", "3")
    assert code != 0 and not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig12_fm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
