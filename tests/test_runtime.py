"""The cached + parallel simulation runtime (repro.runtime)."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import obs, runtime
from repro.acoustics.geometry import Point
from repro.core.scenario import office_scenario
from repro.errors import ConfigurationError
from repro.eval import experiments
from repro.runtime.cache import ChannelCache, scenario_cache_key


def _assert_channels_equal(a, b):
    assert np.array_equal(a.h_ne.ir, b.h_ne.ir)
    assert np.array_equal(a.h_se.ir, b.h_se.ir)
    assert len(a.h_nr) == len(b.h_nr)
    for x, y in zip(a.h_nr, b.h_nr):
        assert np.array_equal(x.ir, y.ir)
    assert a.acoustic_lead_samples == b.acoustic_lead_samples
    assert a.sample_rate == b.sample_rate


class TestCacheKey:
    def test_deterministic_within_process(self):
        scenario = office_scenario()
        assert scenario_cache_key(scenario) == scenario_cache_key(scenario)

    def test_stable_across_processes(self):
        """The key must not depend on PYTHONHASHSEED or process state."""
        script = (
            "from repro.core.scenario import office_scenario\n"
            "from repro.runtime.cache import scenario_cache_key\n"
            "print(scenario_cache_key(office_scenario()))\n"
        )
        keys = set()
        for hashseed in ("0", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            keys.add(proc.stdout.strip())
        keys.add(scenario_cache_key(office_scenario()))
        assert len(keys) == 1

    def test_sensitive_to_every_input(self):
        base = office_scenario()
        variants = [
            base.with_source(Point(0.51, 3.5, 1.6)),
            dataclasses.replace(base, sample_rate=16000.0),
            dataclasses.replace(base, speaker_offset_m=0.03),
            dataclasses.replace(
                base, rir_settings=dataclasses.replace(
                    base.rir_settings, max_order=2)),
            dataclasses.replace(
                base, room=dataclasses.replace(base.room, absorption=0.6)),
        ]
        keys = {scenario_cache_key(s) for s in [base] + variants}
        assert len(keys) == len(variants) + 1


class TestMemoryCache:
    def test_hit_is_bit_identical_to_cold_compute(self):
        scenario = office_scenario()
        cache = ChannelCache()
        cold = cache.get_or_build(scenario)
        warm = cache.get_or_build(scenario)
        uncached = scenario.compute_channels()
        _assert_channels_equal(warm, cold)
        _assert_channels_equal(warm, uncached)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_hits_return_fresh_objects(self):
        """Streaming state must never leak between cache consumers."""
        scenario = office_scenario()
        cache = ChannelCache()
        first = cache.get_or_build(scenario)
        second = cache.get_or_build(scenario)
        assert first.h_ne is not second.h_ne
        assert first.h_ne.ir is not second.h_ne.ir
        # Streaming through one copy leaves the other one untouched: a
        # fresh consumer must see exactly what a reset channel sees.
        x = np.random.default_rng(0).standard_normal(256)
        y1 = first.h_ne.process_block(x)
        before = second.h_ne.process_block(x)
        second.h_ne.reset()
        after = second.h_ne.process_block(x)
        assert np.array_equal(before, after)
        assert np.array_equal(y1, before)

    def test_lru_eviction(self):
        cache = ChannelCache(max_entries=1)
        a = office_scenario()
        b = office_scenario(relay_on_door=False)
        cache.get_or_build(a)
        cache.get_or_build(b)          # evicts a
        cache.get_or_build(a)          # miss again
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["misses"] == 3
        assert len(cache) == 1

    def test_build_channels_uses_explicit_cache(self):
        scenario = office_scenario()
        cache = ChannelCache()
        scenario.build_channels(cache=cache)
        scenario.build_channels(cache=cache)
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1,
            "disk_hits": 0, "disk_discards": 0, "quarantined": 0,
            "evictions": 0,
        }

    def test_build_channels_cache_false_bypasses(self):
        scenario = office_scenario()
        cache = ChannelCache()
        previous = runtime.set_channel_cache(cache)
        try:
            scenario.build_channels(cache=False)
        finally:
            runtime.set_channel_cache(previous)
        assert cache.stats()["misses"] == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            ChannelCache(max_entries=0)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        scenario = office_scenario()
        writer = ChannelCache(disk_dir=tmp_path)
        cold = writer.get_or_build(scenario)
        # A different process would start with an empty memory layer.
        reader = ChannelCache(disk_dir=tmp_path)
        warm = reader.get_or_build(scenario)
        _assert_channels_equal(warm, cold)
        assert reader.stats()["disk_hits"] == 1
        assert reader.stats()["misses"] == 0

    def test_corrupt_entry_recovered(self, tmp_path):
        scenario = office_scenario()
        writer = ChannelCache(disk_dir=tmp_path)
        writer.get_or_build(scenario)
        (entry_path,) = tmp_path.glob("*.npz")
        entry_path.write_bytes(b"this is not an npz archive")

        reader = ChannelCache(disk_dir=tmp_path)
        channels = reader.get_or_build(scenario)
        _assert_channels_equal(channels, scenario.compute_channels())
        stats = reader.stats()
        assert stats["disk_discards"] == 1
        assert stats["quarantined"] == 1
        assert stats["misses"] == 1
        # The bad bytes were moved aside for inspection, not destroyed.
        quarantined = list((tmp_path / ".quarantine").glob("*.npz"))
        assert [p.name for p in quarantined] == [entry_path.name]
        assert quarantined[0].read_bytes() == b"this is not an npz archive"
        # The slot itself was replaced with a clean rewrite.
        again = ChannelCache(disk_dir=tmp_path)
        again.get_or_build(scenario)
        assert again.stats()["disk_hits"] == 1

    def test_corruption_counted_in_obs(self, tmp_path):
        scenario = office_scenario()
        writer = ChannelCache(disk_dir=tmp_path)
        writer.get_or_build(scenario)
        (entry_path,) = tmp_path.glob("*.npz")
        entry_path.write_bytes(b"garbage")

        obs.reset()
        with obs.enabled_scope():
            ChannelCache(disk_dir=tmp_path).get_or_build(scenario)
            metrics = obs.get_registry().to_dict()["metrics"]
        obs.reset()
        by_name = {m["name"]: m for m in metrics}
        assert by_name["cache.corruption_total"]["value"] == 1

    def test_truncated_entry_recovered(self, tmp_path):
        scenario = office_scenario()
        writer = ChannelCache(disk_dir=tmp_path)
        writer.get_or_build(scenario)
        (entry_path,) = tmp_path.glob("*.npz")
        blob = entry_path.read_bytes()
        entry_path.write_bytes(blob[: len(blob) // 2])

        reader = ChannelCache(disk_dir=tmp_path)
        channels = reader.get_or_build(scenario)
        _assert_channels_equal(channels, scenario.compute_channels())
        assert reader.stats()["disk_discards"] == 1

    def test_unwritable_disk_degrades_to_memory(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should go")
        cache = ChannelCache(disk_dir=target)
        scenario = office_scenario()
        cache.get_or_build(scenario)
        channels = cache.get_or_build(scenario)
        _assert_channels_equal(channels, scenario.compute_channels())
        assert cache.stats()["hits"] == 1

    def test_clear_disk(self, tmp_path):
        cache = ChannelCache(disk_dir=tmp_path)
        cache.get_or_build(office_scenario())
        assert list(tmp_path.glob("*.npz"))
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.npz"))
        assert len(cache) == 0


class TestWarmSpeedup:
    def test_warm_build_is_10x_faster(self):
        """Acceptance criterion: warm build >= 10x faster than cold."""
        import time

        scenario = office_scenario()
        cache = ChannelCache()
        t0 = time.perf_counter()
        cache.get_or_build(scenario)
        cold_s = time.perf_counter() - t0

        # Best-of-five warm builds: timer noise, not cache behaviour.
        warm_s = min(
            _timed(cache.get_or_build, scenario) for _ in range(5))
        assert warm_s * 10 <= cold_s, (cold_s, warm_s)


def _timed(fn, *args):
    import time

    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


class TestRegistry:
    def test_every_catalog_entry_registered(self):
        names = experiments.experiment_names()
        assert "fig12" in names and "timing" in names and "edge" in names
        assert "resilience" in names and "serving" in names
        assert "chaos" in names
        assert len(names) == 20

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            experiments.get("fig99")

    def test_defaults_are_inspectable(self):
        entry = experiments.get("fig16")
        assert "duration_s" in entry.defaults
        assert "seed" in entry.defaults
        assert "scenario" in entry.defaults
        assert entry.defaults["scenario"] is None

    def test_uniform_signature_across_runners(self):
        """Every runner accepts duration_s / seed / scenario."""
        for entry in experiments.all_experiments():
            missing = {"duration_s", "seed", "scenario"} - set(entry.defaults)
            assert not missing, (entry.name, missing)

    def test_run_rejects_unknown_param(self):
        with pytest.raises(ConfigurationError):
            experiments.get("timing").run(nonsense=1)

    def test_run_drops_none_overrides(self):
        result = experiments.get("timing").run(duration_s=None, seed=None)
        assert result["name"] == "timing"
        assert "duration_s" not in result["params"]

    def test_envelope_keys_and_attribute_proxy(self):
        result = experiments.get("timing").run()
        assert set(result) == {"schema", "name", "params", "results"}
        assert result.schema == "repro.runtime.report/v2"
        assert result.name == "timing"
        # Attribute access falls through to the rich results object.
        assert result.report() == result.results.report()
        with pytest.raises(AttributeError):
            result.no_such_attribute

    def test_envelope_pickles(self):
        result = experiments.get("timing").run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone["name"] == "timing"
        assert clone.report() == result.report()


class TestExecutor:
    def test_serial_equals_parallel(self):
        """Acceptance criterion: parallel results equal serial (same seeds)."""
        names = ["timing", "fig13"]
        request = runtime.RunRequest(duration_s=1.0, seed=0)
        serial = runtime.run_experiments(names, request=request)
        parallel = runtime.run_experiments(
            names, request=request.replace(jobs=2))
        assert not serial.failures() and not parallel.failures()
        for name in names:
            assert (serial.results()[name].report()
                    == parallel.results()[name].report()), name

    def test_merged_obs_documents(self):
        suite = runtime.run_experiments(
            ["timing", "fig13"], request=runtime.RunRequest(jobs=2))
        trace = suite.merged_trace
        assert trace["schema"] == "repro.obs.trace/v1"
        assert [s["name"] for s in trace["spans"]] == [
            "experiment:timing", "experiment:fig13"]
        assert suite.merged_metrics["schema"] == "repro.obs.metrics/v1"

    def test_suite_document_schema(self):
        suite = runtime.run_experiments(["timing"])
        document = suite.to_dict()
        assert document["schema"] == "repro.runtime.report/v2"
        assert document["runs"][0]["ok"] is True
        assert document["runs"][0]["report"]

    def test_failure_captured_not_raised(self):
        # convergence's profile scheduler legitimately rejects a 0.5 s
        # run — the suite must report it, not crash.
        suite = runtime.run_experiments(
            [("convergence", {"duration_s": 0.5}), "timing"])
        assert set(suite.failures()) == {"convergence"}
        assert "timing" in suite.results()
        assert suite.to_dict()["runs"][0]["ok"] is False

    def test_unknown_name_fails_fast(self):
        with pytest.raises(ConfigurationError):
            runtime.run_experiments(["fig99"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            runtime.run_experiments(
                ["timing"], request=runtime.RunRequest(jobs=0))

    def test_per_experiment_params(self):
        suite = runtime.run_experiments(
            ["timing"],
            per_experiment={"timing": {"bench_lead_s": 6e-3}})
        assert suite.results()["timing"]["params"]["bench_lead_s"] == 6e-3


class TestRunRequest:
    def test_unknown_parameter_error_lists_names(self):
        from repro.errors import UnknownParameterError

        with pytest.raises(UnknownParameterError) as excinfo:
            experiments.get("timing").run(nonsense=1, also_bad=2)
        err = excinfo.value
        assert err.unknown == ("also_bad", "nonsense")
        assert "duration_s" in err.valid
        assert "nonsense" in str(err) and "duration_s" in str(err)
        assert isinstance(err, ConfigurationError)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            runtime.RunRequest(jobs=0)

    def test_request_propagates_to_parallel_workers(self):
        """Acceptance: seed + fault_plan reach jobs=2 workers,
        bit-identical to jobs=1."""
        from repro.faults import outage_plan

        base = runtime.RunRequest(
            seed=3, duration_s=0.4,
            fault_plan=outage_plan(0.4, 0.5),
            params={"sessions": 2, "block_size": 128},
        )
        serial = runtime.run_experiments(["serving"],
                                         request=base.replace(jobs=1))
        parallel = runtime.run_experiments(["serving"],
                                           request=base.replace(jobs=2))
        default_seed = runtime.run_experiments(
            ["serving"], request=base.replace(seed=None))
        assert not serial.failures() and not parallel.failures()
        a = serial.results()["serving"]
        b = parallel.results()["serving"]
        assert a["params"]["seed"] == 3 == b["params"]["seed"]
        assert a.results.faulted_sessions == 1 == b.results.faulted_sessions
        assert a.results.digests == b.results.digests
        # The seed changed the workloads: it was applied, not dropped.
        assert (a.results.digests
                != default_seed.results()["serving"].results.digests)

    def test_request_params_filtered_per_runner(self):
        """Broadcast request params only reach runners that take them."""
        request = runtime.RunRequest(duration_s=1.0,
                                     params={"bench_lead_s": 6e-3})
        suite = runtime.run_experiments(["timing", "fig13"],
                                        request=request)
        assert not suite.failures()
        assert suite.results()["timing"]["params"]["bench_lead_s"] == 6e-3
        assert "bench_lead_s" not in suite.results()["fig13"]["params"]

    def test_explicit_overrides_stay_strict(self):
        request = runtime.RunRequest()
        with pytest.raises(ConfigurationError):
            experiments.get("timing").run(request=request, sessions=4)


class TestReportV2:
    def test_result_round_trip(self):
        result = experiments.get("timing").run()
        blob = result.to_json()
        document = json.loads(blob)
        assert document["schema"] == "repro.runtime.report/v2"
        assert document["kind"] == "result"
        clone = experiments.ExperimentResult.from_json(blob)
        assert clone["name"] == "timing"
        assert clone["params"] == result["params"]
        assert clone.report() == result.report()

    def test_result_rejects_foreign_schema(self):
        result = experiments.get("timing").run()
        document = result.to_dict()
        document["schema"] = "repro.runtime.report/v1"
        with pytest.raises(ConfigurationError):
            experiments.ExperimentResult.from_dict(document)

    def test_suite_round_trip(self):
        suite = runtime.run_experiments(
            ["timing"], request=runtime.RunRequest(jobs=1))
        clone = runtime.SuiteReport.from_json(suite.to_json())
        assert clone.to_dict() == suite.to_dict()
        assert clone.results()["timing"].report() == \
            suite.results()["timing"].report()
