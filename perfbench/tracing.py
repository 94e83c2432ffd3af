"""Outside-in span recorder for the benchmark's traced runs.

Spans are recorded around calls into the program's public functions and
methods by swapping them for timing wrappers while a traced phase runs:
module functions are replaced everywhere a ``repro`` module holds them
(``from x import f`` copies included), methods on their class.  Nothing
under ``src/`` is edited, and :meth:`Recorder.uninstall` restores every
original object.

Each span is ``name, kind, start, end, parent, item, pid``: ``kind`` is
``layer`` (a timed program layer), ``item`` (one campaign or window,
whose identifier every span inside it carries) or ``chunk`` (one chunk
of items, for worker concurrency and utilization).  Spans stay in
memory.  A forked worker's memory dies with it, so a worker writes its
spans to ``spill_dir`` when its chunk returns and the parent reads them
back with :meth:`Recorder.collect`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One program entry point to wrap.

    ``attr`` is ``function`` or ``Class.method``.  ``layer`` names the
    layer span (``None`` for pure item/chunk markers); ``item`` maps the
    call's arguments to an item identifier; ``counts`` maps
    ``(args, result, before)`` to counters, where ``before`` is what
    ``before()`` returned just ahead of the call.
    """

    module: str
    attr: str
    layer: str | None = None
    chunk: bool = False
    item: Callable | None = None
    counts: Callable | None = None
    before: Callable | None = None


def _campaign_item(args) -> str:
    spec, index = args[0], args[1]
    return f"campaign {spec.master_seed}:{index}"


def _window_item(args) -> str:
    return f"window {args[1]}"


def _plan_cache_misses() -> int:
    from repro.engine.session import plan_cache_stats

    return plan_cache_stats()[1]


def _session_counts(args, result, misses_before) -> dict:
    return {
        "engine.session.plan_cache_misses": _plan_cache_misses() - misses_before,
        "core.report.failing_reads": result.total_failures,
        "ecc.corrected_reads": result.ecc_corrected_reads,
        "ecc.uncorrectable_reads": result.ecc_uncorrectable_reads,
    }


#: The layer boundaries the traced run times.  ``engine.session`` spans
#: are split into ``proposed`` (an item's first session) and ``verify``
#: (every later one: post-repair verify, retest and burn-in sessions).
TARGETS = (
    Target("repro.engine.fleet", "run_chunk", chunk=True),
    Target("repro.scenarios.flow", "run_scenario_chunk", chunk=True),
    Target("repro.streaming.monitor", "run_window_chunk", chunk=True),
    Target("repro.engine.fleet", "run_campaign", item=_campaign_item),
    Target(
        "repro.scenarios.flow", "run_scenario_campaign",
        layer="scenarios.flow.campaign", item=_campaign_item,
    ),
    Target(
        "repro.core.campaign", "DiagnosisCampaign.faulty_bank", layer="faults.sample",
        counts=lambda args, result, _: {"faults.injected": result[1].total},
    ),
    Target(
        "repro.scenarios.flow", "burn_in_population", layer="faults.sample",
        counts=lambda args, result, _: {"faults.injected": len(result)},
    ),
    Target(
        "repro.faults.intermittent", "fault_for_event", layer="faults.sample",
        counts=lambda args, result, _: {"faults.injected": 1},
    ),
    Target(
        "repro.engine.session", "run_session", layer="engine.session",
        counts=_session_counts, before=_plan_cache_misses,
    ),
    Target("repro.core.report", "ProposedReport.localization_rate", layer="core.report.score"),
    Target("repro.core.report", "ProposedReport.score_against", layer="core.report.score"),
    Target("repro.core.report", "ProposedReport.detected_cells", layer="core.report.score"),
    Target(
        "repro.engine.baseline_session", "run_baseline_session",
        layer="engine.baseline_session.session",
        counts=lambda args, result, _: {
            "engine.baseline_session.iterations": result.iterations
        },
    ),
    Target("repro.core.repair", "RepairController.apply", layer="core.repair.apply"),
    Target("repro.core.repair", "BisrController.apply", layer="core.repair.apply"),
    Target("repro.core.redundancy", "allocate_redundancy", layer="core.redundancy.allocate"),
    Target("repro.engine.aggregate", "CampaignSummary.from_report", layer="engine.aggregate.summarize"),
    Target("repro.scenarios.flow", "summarize_scenario_campaign", layer="engine.aggregate.summarize"),
    Target("repro.engine.aggregate", "FleetReport.add", layer="engine.aggregate.summarize"),
    Target("repro.engine.checkpoint", "CheckpointStore.save", layer="engine.checkpoint.save"),
    Target(
        "repro.streaming.timeline", "EventTimeline.events_for_window",
        layer="streaming.timeline.draw", item=_window_item,
    ),
    Target("repro.streaming.window", "WindowAggregator.add", layer="streaming.window.aggregate"),
)

#: Every layer span name the recorder can produce, in report order.
LAYER_NAMES = (
    "faults.sample",
    "engine.session.proposed",
    "engine.session.verify",
    "core.report.score",
    "engine.baseline_session.session",
    "core.repair.apply",
    "core.redundancy.allocate",
    "scenarios.flow.campaign",
    "engine.aggregate.summarize",
    "engine.checkpoint.save",
    "streaming.timeline.draw",
    "streaming.window.aggregate",
)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._item: str | None = None
        self._item_sessions = 0
        self._spills = 0
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans                                                              #
    # ------------------------------------------------------------------ #
    def _adopt_process(self) -> None:
        # A forked worker inherits the parent's spans; it records only
        # its own and ships them through the spill directory.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self._stack = []

    def _innermost_layer(self) -> dict | None:
        for span in reversed(self._stack):
            if span["kind"] == "layer":
                return span
        return None

    def _open(self, name: str, kind: str) -> dict:
        self._next_id += 1
        span = {
            "id": f"{self.pid}.{self._next_id}",
            "name": name,
            "kind": kind,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "item": self._item,
            "pid": self.pid,
            "child_ns": 0,
            "counts": None,
        }
        self._stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: dict, counts: dict | None) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()
        if span["kind"] == "layer":
            enclosing = self._innermost_layer()
            if enclosing is not None:
                enclosing["child_ns"] += span["end"] - span["start"]
        span["counts"] = counts

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self.pid}-{self._spills}.json"
        self._spills += 1
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder._adopt_process()
            name = target.layer
            if name is not None:
                top = recorder._innermost_layer()
                if top is not None and top["name"] == name:
                    # Same-layer re-entry (e.g. localization_rate calling
                    # score_against) belongs to the outer span.
                    return fn(*args, **kwargs)
                if name == "engine.session":
                    name += ".proposed" if recorder._item_sessions == 0 else ".verify"
                    recorder._item_sessions += 1
            if target.item is not None:
                recorder._item = target.item(args)
                recorder._item_sessions = 0
            if name is not None:
                kind = "layer"
            elif target.chunk:
                kind, name = "chunk", "chunk"
            else:
                kind, name = "item", "item"
            before = target.before() if target.before is not None else None
            span = recorder._open(name, kind)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = None
                if target.counts is not None and result is not None:
                    counts = target.counts(args, result, before)
                recorder._close(span, counts)
                if target.chunk and recorder.pid != recorder.owner:
                    recorder._spill()

        return wrapper

    # ------------------------------------------------------------------ #
    # Installation                                                       #
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Swap every target for its timing wrapper."""
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, name = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(target, raw.__func__))
                else:
                    replacement = self._wrap(target, raw)
                self._undo.append((owner, name, raw))
                setattr(owner, name, replacement)
                continue
            original = getattr(module, name)
            wrapper = self._wrap(target, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, attr, original))
                        setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original function and method."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def collect(self) -> list[dict]:
        """Every span: the parent's plus those spilled by workers."""
        spans = list(self.spans)
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.json")):
                spans.extend(json.loads(path.read_text()))
        return spans


# ---------------------------------------------------------------------- #
# Analysis                                                               #
# ---------------------------------------------------------------------- #
def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: span duration minus its child layer spans."""
    totals = {name: 0.0 for name in LAYER_NAMES}
    for span in spans:
        if span["kind"] == "layer":
            totals[span["name"]] += (span["end"] - span["start"] - span["child_ns"]) / 1e9
    return totals


def span_counts(spans: list[dict]) -> Counter:
    """Sum of the counters recorded on the spans."""
    total: Counter = Counter()
    for span in spans:
        if span["counts"]:
            total.update(span["counts"])
    return total


def _merged_seconds(intervals: list[tuple[int, int]]) -> float:
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered / 1e9


def layer_coverage_seconds(spans: list[dict], intervals: list[tuple[int, int]]) -> float:
    """Time within ``intervals`` during which a layer span was open anywhere.

    With one process this equals the sum of layer self times; with
    concurrent workers it counts overlapping time once.
    """
    clipped = []
    for span in spans:
        if span["kind"] != "layer":
            continue
        for start, end in intervals:
            low, high = max(start, span["start"]), min(end, span["end"])
            if low < high:
                clipped.append((low, high))
    return _merged_seconds(clipped)


def chunk_concurrency(spans: list[dict]) -> tuple[int, float]:
    """``(max concurrent chunks, chunk busy seconds)``."""
    events = []
    busy = 0
    for span in spans:
        if span["kind"] == "chunk":
            events.append((span["start"], 1))
            events.append((span["end"], -1))
            busy += span["end"] - span["start"]
    peak = level = 0
    for _, step in sorted(events):
        level += step
        peak = max(peak, level)
    return peak, busy / 1e9
