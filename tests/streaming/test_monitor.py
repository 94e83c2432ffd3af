"""Monitor determinism, resume, shutdown hygiene and bounded memory."""

from __future__ import annotations

import multiprocessing
import time
import tracemalloc

import pytest

from repro.engine.checkpoint import CheckpointError, RingCheckpointStore
from repro.engine.fleet import plan_spec_backend
from repro.streaming import StreamingMonitor, StreamingSpec, run_monitor

#: Small, fast stream shared by the determinism checks.
SPEC = StreamingSpec(
    memories=4,
    events_per_window=2.0,
    master_seed=23,
    burst_probability=0.1,
    backend="auto",
)
#: ``SPEC`` as the monitor runs (and digests) it: ``auto`` pinned.
PLANNED = plan_spec_backend(SPEC)


def window_payloads(spec: StreamingSpec, windows: int, **kwargs) -> list[str]:
    monitor = StreamingMonitor(spec, windows=windows, **kwargs)
    return [report.canonical_json() for report in monitor.windows()]


def _assert_no_orphaned_workers(before: set) -> None:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leftover = {p for p in multiprocessing.active_children() if p not in before}
        if not leftover:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned pool workers: {leftover}")


class TestPartitionIndependence:
    """Results are a pure function of (spec, window): scheduling layout
    -- worker count, chunk size, epoch length -- must not leak in."""

    def test_worker_count_and_chunking_do_not_change_windows(self):
        inline = window_payloads(SPEC, 8, workers=1)
        pooled = window_payloads(SPEC, 8, workers=3, chunk_size=1)
        rechunked = window_payloads(
            SPEC, 8, workers=2, chunk_size=2, epoch_windows=3
        )
        assert inline == pooled == rechunked

    def test_aggregator_matches_across_layouts(self):
        one = run_monitor(SPEC, 8, workers=1)
        many = run_monitor(SPEC, 8, workers=3, chunk_size=1, epoch_windows=5)
        assert one.canonical_json() == many.canonical_json()

    def test_backends_agree_byte_for_byte(self):
        per_backend = [
            window_payloads(
                StreamingSpec(**{**SPEC.to_dict(), "backend": backend}),
                6,
                workers=1,
            )
            for backend in ("reference", "batched")
        ]
        assert per_backend[0] == per_backend[1]

    def test_event_window_assignment_shared_by_all_layouts(self):
        # The boundary rule (edge -> later window) is decided in the
        # timeline, upstream of backend and pool: every generated event
        # agrees with window_of on every layout.
        timeline = SPEC.timeline()
        for window in range(12):
            for event in timeline.events_for_window(window):
                assert timeline.window_of(event.time_ns) == event.window == window


class TestEarlyStop:
    def test_break_terminates_pool_cleanly(self):
        before = set(multiprocessing.active_children())
        monitor = StreamingMonitor(SPEC, windows=None, workers=2, chunk_size=1)
        seen = []
        for report in monitor.windows():
            seen.append(report.index)
            if len(seen) == 2:
                break
        assert seen == [0, 1]
        _assert_no_orphaned_workers(before)

    def test_infinite_monitor_yields_absolute_indices_across_epochs(self):
        monitor = StreamingMonitor(SPEC, windows=None, workers=1, epoch_windows=3)
        stream = monitor.windows()
        indices = [next(stream).index for _ in range(7)]
        stream.close()
        assert indices == list(range(7))


class TestRingResume:
    def test_resume_reproduces_remaining_windows_byte_for_byte(self, tmp_path):
        store = tmp_path / "ring"
        straight = window_payloads(SPEC, 12, workers=1)
        whole = run_monitor(SPEC, 12, workers=1)

        part = []
        monitor = StreamingMonitor(
            SPEC, windows=12, workers=1, checkpoint=store
        )
        for report in monitor.windows():
            part.append(report.canonical_json())
            if len(part) == 5:
                break

        resumed = StreamingMonitor(
            SPEC, windows=12, workers=2, chunk_size=1,
            checkpoint=store, resume=True,
        )
        assert resumed.next_window == 5
        rest = [report.canonical_json() for report in resumed.windows()]
        assert part + rest == straight
        assert resumed.aggregator.canonical_json() == whole.canonical_json()

    def test_ring_retains_last_k_records(self, tmp_path):
        store = tmp_path / "ring"
        run_monitor(SPEC, 10, workers=1, checkpoint=store, retain=4)
        ring = RingCheckpointStore(store, PLANNED, retain=4)
        windows = [record["window"] for record in ring.records()]
        assert windows == [6, 7, 8, 9]
        assert ring.latest()["window"] == 9

    def test_stale_spec_rejected(self, tmp_path):
        store = tmp_path / "ring"
        run_monitor(SPEC, 3, workers=1, checkpoint=store)
        other = StreamingSpec(**{**SPEC.to_dict(), "master_seed": 99})
        with pytest.raises(CheckpointError):
            StreamingMonitor(other, windows=6, checkpoint=store)

    def test_corrupt_slot_rejected(self, tmp_path):
        store = tmp_path / "ring"
        run_monitor(SPEC, 3, workers=1, checkpoint=store)
        ring = RingCheckpointStore(store, PLANNED)
        slots = sorted(store.glob("slot_*.json"))
        slots[0].write_text(slots[0].read_text().replace('"events"', '"evxnts"'))
        with pytest.raises(CheckpointError):
            ring.records()

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            StreamingMonitor(SPEC, windows=4, resume=True)


class TestBoundedMemory:
    def test_fifty_windows_hold_flat_memory(self):
        # The ISSUE's CI guard in miniature: cumulative state is scalars,
        # Welford accumulators and two bounded rings, so traced heap
        # growth over the last 40 of 50 windows must stay flat.
        monitor = StreamingMonitor(SPEC, windows=50, workers=1)
        stream = monitor.windows()
        tracemalloc.start()
        try:
            baseline = None
            high_water = 0
            for count, _ in enumerate(stream, start=1):
                current, _ = tracemalloc.get_traced_memory()
                if count == 10:
                    baseline = current
                elif count > 10:
                    high_water = max(high_water, current - baseline)
        finally:
            tracemalloc.stop()
        assert monitor.aggregator.windows == 50
        assert high_water < 256 * 1024, (
            f"streaming state grew {high_water} bytes over 40 windows"
        )

    def test_digest_ring_stays_bounded_in_live_run(self):
        aggregator = run_monitor(SPEC, 12, workers=1, retain=4)
        assert len(aggregator.recent_digests) == 4


class TestStreamShape:
    def test_empty_stream_aggregates_cleanly(self):
        quiet = StreamingSpec(
            **{**SPEC.to_dict(), "events_per_window": 0.0, "burst_probability": 0.0}
        )
        aggregator = run_monitor(quiet, 6, workers=1)
        assert aggregator.windows == 6
        assert aggregator.empty_windows == 6
        assert aggregator.detection_rate is None
        assert aggregator.escape_rate is None
        assert aggregator.windows_per_sec >= 0.0

    def test_telemetry_attributes_window_spans(self):
        monitor = StreamingMonitor(SPEC, windows=6, workers=2, telemetry=True)
        for _ in monitor.windows():
            pass
        stream = monitor.telemetry_report.stream_stats()
        assert stream["windows"] == 6
        assert stream["events"] == monitor.aggregator.total_events
        payload = monitor.telemetry_report.to_json_dict()
        assert payload["stream"]["windows"] == 6

    def test_multi_epoch_telemetry_keeps_the_worker_count(self):
        # Regression: folding each epoch's report summed ``fleet.workers``,
        # so a 1-worker monitor over three epochs reported 3 workers and
        # a third of its real utilization.
        monitor = StreamingMonitor(
            SPEC, windows=6, workers=1, epoch_windows=2, telemetry=True
        )
        for _ in monitor.windows():
            pass
        report = monitor.telemetry_report
        fleet = report.fleet_stats()
        assert fleet["workers"] == 1
        assert report.counters.get("fleet.worker_capacity.ns") == report.counters.get(
            "fleet.elapsed.ns"
        )
        assert 0.0 < fleet["worker_utilization"] <= 1.0

    def test_backend_pinning_mirrors_the_fleet_planner(self):
        # Like the fleet planner, the monitor pins ``auto`` to the one
        # vector path up front, whatever the stream's bank shape.
        assert StreamingMonitor(StreamingSpec(), windows=1).spec.backend == "batched"
        assert StreamingMonitor(SPEC, windows=1).spec.backend == "batched"
