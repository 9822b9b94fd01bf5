"""The parallel experiment runtime (repro.runtime)."""

import json
import pickle

import pytest

from repro import runtime
from repro.errors import ConfigurationError
from repro.eval import experiments


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
