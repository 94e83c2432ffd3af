"""TelemetryReport merging, derived views and the exporters."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.core import Tracer
from repro.telemetry.export import (
    chrome_trace_events,
    write_chrome_trace,
    write_metrics_json,
)
from repro.telemetry.report import TelemetryReport


def traced_report() -> TelemetryReport:
    """A report with nested spans from two 'processes'."""
    tr = Tracer()
    with tr.span("fleet.chunk", "fleet", chunk=0):
        with tr.span("march.element", "march", step=0):
            pass
        with tr.span("march.element", "march", step=1):
            pass
    tr.counters.add("lane.replay.ns", 3_000_000)
    tr.counters.add("lane.replay.words", 30)
    tr.counters.add("lane.table.ns", 1_000_000)
    tr.counters.add("lane.table.words", 20)
    tr.counters.add("lane.clean.ns", 6_000_000)
    tr.counters.add("lane.clean.words", 50)
    report = TelemetryReport()
    report.merge_tracer(tr)
    other = tr.snapshot()
    other["pid"] = tr.pid + 1  # pretend a second worker shipped the same
    report.merge_snapshot(other)
    return report


class TestMerging:
    def test_counters_and_stats_merge(self):
        report = traced_report()
        assert report.counters.get("lane.replay.ns") == 6_000_000
        assert report.span_stats["march.element"][0] == 4
        assert len(report.processes) == 2
        assert len(report.spans) == 6

    def test_merge_is_order_insensitive(self):
        tr_a, tr_b = Tracer(), Tracer()
        with tr_a.span("a"):
            pass
        tr_a.counters.add("x", 1)
        with tr_b.span("b"):
            pass
        tr_b.counters.add("x", 2)
        forward, backward = TelemetryReport(), TelemetryReport()
        forward.merge_tracer(tr_a)
        forward.merge_tracer(tr_b)
        backward.merge_tracer(tr_b)
        backward.merge_tracer(tr_a)
        fw = forward.to_json_dict()
        bw = backward.to_json_dict()
        # Raw span order differs with merge order; everything derived
        # (counters, stats, attribution) must not.
        assert fw == bw

    def test_dropped_spans_accumulate(self):
        report = TelemetryReport()
        report.merge_snapshot(
            {"pid": 1, "counters": {}, "span_stats": {}, "spans": [], "dropped_spans": 7}
        )
        assert report.dropped_spans == 7


class TestLaneAttribution:
    def test_shares_sum_to_one(self):
        attribution = traced_report().lane_attribution()
        lanes = attribution["lanes"]
        assert attribution["march_time_s"] == pytest.approx(0.02)
        assert sum(l["time_share"] for l in lanes.values()) == pytest.approx(1.0)
        assert sum(l["word_share"] for l in lanes.values()) == pytest.approx(1.0)
        assert lanes["replay"]["time_share"] == pytest.approx(0.3)
        assert lanes["clean"]["words"] == 100

    def test_empty_report_has_none_shares(self):
        attribution = TelemetryReport().lane_attribution()
        assert attribution["march_time_s"] == 0
        for lane in attribution["lanes"].values():
            assert lane["time_share"] is None
            assert lane["word_share"] is None


class TestFleetStats:
    def test_utilization_clamped(self):
        report = TelemetryReport()
        report.counters.merge(
            {
                "fleet.workers": 2,
                "fleet.elapsed.ns": 1_000_000_000,
                "fleet.worker_capacity.ns": 2_000_000_000,
                "fleet.worker_busy.ns": 5_000_000_000,
                "fleet.chunks": 4,
            }
        )
        stats = report.fleet_stats()
        assert stats["worker_utilization"] == 1.0
        assert stats["workers"] == 2
        assert stats["chunks"] == 4

    def test_no_fleet_counters_mean_no_utilization(self):
        assert TelemetryReport().fleet_stats()["worker_utilization"] is None


class TestChromeTrace:
    def test_empty_report_renders_no_events(self):
        assert chrome_trace_events(TelemetryReport()) == []

    def test_events_are_matched_and_sorted(self):
        events = chrome_trace_events(traced_report())
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 6
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert min(timestamps) == 0.0  # re-zeroed to the earliest span

    def test_events_nest_strictly_per_track(self):
        # Replaying each track's events against a stack must never pop a
        # mismatched name: that is exactly what trace viewers require.
        events = chrome_trace_events(traced_report())
        stacks: dict[tuple, list[str]] = {}
        for event in events:
            stack = stacks.setdefault((event["pid"], event["tid"]), [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack, f"E without matching B: {event}"
                assert stack.pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_args_forwarded_on_begin_events(self):
        events = chrome_trace_events(traced_report())
        chunk_begins = [
            e for e in events if e["ph"] == "B" and e["name"] == "fleet.chunk"
        ]
        assert chunk_begins and chunk_begins[0]["args"] == {"chunk": 0}

    def test_write_chrome_trace_document(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced_report(), path)
        document = json.loads(path.read_text())
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert len(document["traceEvents"]) == 12
        assert document["otherData"]["dropped_spans"] == 0
        assert len(document["otherData"]["processes"]) == 2


class TestMetricsJson:
    def test_document_shape(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(traced_report(), path)
        document = json.loads(path.read_text())
        assert set(document) == {
            "processes",
            "counters",
            "span_stats",
            "lane_attribution",
            "fleet",
            "dropped_spans",
        }
        assert document["counters"]["lane.replay.ns"] == 6_000_000
        assert document["span_stats"]["march.element"]["count"] == 4
        lanes = document["lane_attribution"]["lanes"]
        assert set(lanes) == {"replay", "table", "clean"}
        for lane in lanes.values():
            assert set(lane) == {"time_s", "words", "time_share", "word_share"}

    def test_summary_lines_render(self):
        report = traced_report()
        report.counters.merge(
            {"fleet.workers": 2, "fleet.elapsed.ns": 10**9, "fleet.chunks": 4,
             "plan_cache.hits": 3, "plan_cache.misses": 1}
        )
        text = "\n".join(report.summary_lines())
        assert "replay lane" in text
        assert "table lane" in text
        assert "clean lane" in text
        assert "fleet" in text
        assert "plan cache" in text
