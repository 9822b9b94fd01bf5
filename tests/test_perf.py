"""The perf toolkit: the shared timer and the perf-profile ledger."""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf import Timing, time_call


class TestTimer:
    def test_time_call_summary(self):
        timing = time_call(lambda: 42, repeats=3)
        assert timing.result == 42
        assert timing.repeats == 3
        assert len(timing.times_s) == 3
        assert timing.best_s <= timing.median_s
        assert timing.best_s == min(timing.times_s)

    def test_worst_is_slowest_repeat(self):
        timing = Timing(result=None, times_s=(0.3, 0.1, 0.2))
        assert (timing.best_s, timing.median_s, timing.worst_s) == \
            (0.1, 0.2, 0.3)

    def test_to_dict_is_json_able(self):
        doc = time_call(lambda: None, repeats=2).to_dict()
        assert set(doc) == {"median_s", "best_s", "repeats", "times_s"}
        json.dumps(doc)

    def test_warmup_calls_are_untimed(self):
        calls = []
        timing = time_call(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5           # 2 warmup + 3 timed
        assert timing.repeats == 3

    def test_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError):
            time_call(lambda: None, repeats=0)

    def test_timing_is_frozen(self):
        timing = Timing(result=None, times_s=(1.0,))
        with pytest.raises(Exception):
            timing.result = 1


def _span_names(spans):
    for sp in spans:
        yield sp["name"]
        yield from _span_names(sp["children"])


class TestPerfProfileCli:
    ARGS = ["perf-profile", "--duration", "1.0", "--repeats", "2"]

    @pytest.fixture(scope="class")
    def doc(self):
        out = io.StringIO()
        assert main(self.ARGS + ["--json"], out=out) == 0
        return json.loads(out.getvalue())

    def test_json_output(self, doc):
        assert doc["schema"] == obs.REPORT_SCHEMA == "repro.obs.report/v1"
        assert set(doc) == {"schema", "trace", "metrics", "budget"}
        budget = doc["budget"]
        assert budget["repeats"] == 2
        for row in budget["stages"] + budget["construction"]:
            assert row["repeats"] == 2
            assert row["best_s"] <= row["wall_s"] <= row["worst_s"]

    def test_ledger_rows_name_executed_spans(self, doc):
        executed = set(_span_names(doc["trace"]["spans"]))
        budget = doc["budget"]
        construction = [row["stage"] for row in budget["construction"]]
        stages = [row["stage"] for row in budget["stages"]]
        assert set(construction + stages) <= executed
        assert not {"synthesis", "ear"} & set(construction + stages)
        assert construction == ["relay.calibrate", "relay.modulate",
                                "relay.channel", "relay.demodulate",
                                "mute.construct",
                                "mute.construct.channels",
                                "mute.estimate_secondary"]
        assert stages == ["mute.prepare", "mute.adapt", "mute.collect"]
        assert budget["coverage"] >= 0.95
        assert min(budget["job_coverage"]) == budget["coverage"]

    def test_table_output(self):
        out = io.StringIO()
        assert main(self.ARGS, out=out) == 0
        text = out.getvalue()
        assert "perf-profile" in text
        assert "one-off" in text and "Timing ledger" in text

    def test_out_writes_document(self, tmp_path):
        path = tmp_path / "profile.json"
        out = io.StringIO()
        assert main(self.ARGS + ["--out", str(path)], out=out) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs.report/v1"

    def test_bad_arguments_rejected(self):
        out = io.StringIO()
        assert main(["perf-profile", "--duration", "0"], out=out) == 2
        assert main(["perf-profile", "--repeats", "0"], out=out) == 2
        assert main(["perf-profile", "--block", "0"], out=out) == 2
        with pytest.raises(SystemExit) as exc:     # --warmup is gone
            main(["perf-profile", "--warmup", "1"], out=out)
        assert exc.value.code == 2
