"""Unit tests for the tracer core: spans, clocks, value description,
and the Chrome trace-event export's structural validity."""

import json

import numpy as np
import pytest

from repro.monetdb.bat import make_bat
from repro.engines import KNOBS
from repro.obs import Span, Tracer, describe_value


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock, engine="TEST")


class TestSpans:
    def test_nesting_and_durations(self, tracer, clock):
        root = tracer.begin("query", cat="query")
        clock.now = 1.0
        child = tracer.begin("op", cat="instruction")
        clock.now = 3.0
        tracer.end(child)
        clock.now = 4.0
        tracer.end(root)
        assert tracer.root() is root
        assert child.parent is root and root.children == [child]
        assert child.duration == pytest.approx(2.0)
        assert root.duration == pytest.approx(4.0)
        # the child interval sits inside the parent's
        assert root.t0 <= child.t0 <= child.t1 <= root.t1

    def test_end_sweeps_abandoned_spans(self, tracer, clock):
        root = tracer.begin("query")
        inner = tracer.begin("op")
        deepest = tracer.begin("kernel")
        clock.now = 2.0
        # an exception skipped ending `deepest` and `inner`
        tracer.end(root)
        assert tracer.current is None
        for span in (root, inner, deepest):
            assert span.t1 == 2.0

    def test_end_unknown_span_is_noop(self, tracer):
        open_span = tracer.begin("query")
        stray = Span("stray")
        tracer.end(stray)
        assert tracer.current is open_span

    def test_structure_is_timing_free(self, tracer, clock):
        with tracer.span("query"):
            with tracer.span("a"):
                clock.now = 1.0
            with tracer.span("b"):
                pass
        assert tracer.root().structure() == (
            "query", (("a", ()), ("b", ())),
        )

    def test_annotate_targets_innermost_open_span(self, tracer):
        with tracer.span("query"):
            with tracer.span("op") as op:
                tracer.annotate(rows=7)
            assert op.args["rows"] == 7
        tracer.annotate(rows=9)     # no open span: silently ignored

    def test_events_are_instants(self, tracer, clock):
        clock.now = 1.5
        tracer.event("transfer", cat="transfer", bytes=64)
        [event] = tracer.events
        assert event["ts"] == 1.5
        assert event["args"]["bytes"] == 64


class TestDescribeValue:
    def test_bat(self):
        bat = make_bat(np.arange(100, dtype=np.int32))
        info = describe_value(bat)
        assert info["rows"] == 100
        assert info["bytes"] == 400
        assert info["bytes_physical"] == 400
        assert info["encoding"] is None

    def test_tuple_and_scalar(self):
        a = make_bat(np.arange(10, dtype=np.int64))
        info = describe_value((a, a))
        assert info["rows"] == 10
        assert info["bytes"] == 160
        assert describe_value(3.5)["rows"] == 1
        assert describe_value(object())["rows"] == 0

    def test_sharded_parts_are_summed(self):
        class Fan:
            parts = [make_bat(np.arange(4, dtype=np.int32)),
                     make_bat(np.arange(6, dtype=np.int32))]

        info = describe_value(Fan())
        assert info["rows"] == 10
        assert info["bytes"] == 40
        assert info["shards"] == 2


class TestChromeExport:
    def _traced(self, tracer, clock):
        with tracer.span("query", cat="query"):
            clock.now = 0.001
            with tracer.span("op", cat="instruction", tid="CPU"):
                clock.now = 0.002
            tracer.event("transfer", cat="transfer", tid="GPU", bytes=8)
            clock.now = 0.004
        return tracer

    def test_document_structure(self, tracer, clock):
        doc = self._traced(tracer, clock).export_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"
        # one thread_name metadata record per lane used
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert lanes == {"driver", "CPU", "GPU"}

    def test_timestamps_are_microseconds(self, tracer, clock):
        doc = self._traced(tracer, clock).export_chrome()
        [op] = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "op"]
        assert op["ts"] == pytest.approx(1000.0)
        assert op["dur"] == pytest.approx(1000.0)

    def test_round_trips_through_json(self, tracer, clock, tmp_path):
        path = tmp_path / "trace.json"
        doc = self._traced(tracer, clock).export_chrome(str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))

    def test_export_closes_open_spans(self, tracer, clock):
        tracer.begin("query")
        clock.now = 1.0
        doc = tracer.export_chrome()
        [query] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert query["dur"] == pytest.approx(1e6)


class TestEnvGate:
    def test_unset_means_unforced(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert KNOBS["trace"].env_value() is None
        monkeypatch.setenv("REPRO_TRACE", "  ")
        assert KNOBS["trace"].env_value() is None

    @pytest.mark.parametrize("word", ["on", "1", "true", "anything"])
    def test_on_words(self, monkeypatch, word):
        monkeypatch.setenv("REPRO_TRACE", word)
        assert KNOBS["trace"].env_value() is True

    @pytest.mark.parametrize("word", ["off", "0", "false", "no", "OFF"])
    def test_off_words(self, monkeypatch, word):
        monkeypatch.setenv("REPRO_TRACE", word)
        assert KNOBS["trace"].env_value() is False
