"""Analytic retention decay: exact-boundary timing across every backend.

The compiled fault table evaluates DRF decay from the element plan's
analytic visit clock instead of replaying accesses; these tests pin the
two properties that make that sound:

* the ``>=`` decay boundary -- a read whose elapsed time exactly equals
  ``retention_ns`` decays, on reference and batched alike (one
  float step more retention and it survives);
* replay-vs-lowered round trips over wrapping buckets: a stacked bucket
  whose controller span wraps (outlier memory) produces bit-identical
  sessions whether the DRFs decay behaviourally or in the table lane.
"""

from __future__ import annotations

import math

import pytest

from repro.core.scheme import FastDiagnosisScheme
from repro.engine.session import run_session
from repro.faults.injector import FaultInjector
from repro.faults.retention_fault import DataRetentionFault
from repro.march.library import march_with_retention_pauses
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM

#: (memory name, shape, DRF cell, fragile side).  The 17-word outlier
#: widens the controller span so the 8-word members sweep with
#: wrap-around -- the partial-block path the analytic clock must get
#: right.
_LAYOUT = (
    ("r0", (8, 4), CellRef(1, 0), 1),
    ("r1", (8, 4), CellRef(4, 2), 0),
    ("big", (17, 4), CellRef(12, 3), 1),
)


class _ProbeRetention(DataRetentionFault):
    """Logs the elapsed time of every at-risk read, decaying never."""

    def __init__(self, cell, fragile_value):
        super().__init__(cell, fragile_value, retention_ns=1e18)
        self.elapsed_log: list[float] = []

    def on_read(self, memory, word, bit, stored_bit):
        if self._written_at_ns is not None and stored_bit == self.fragile_value:
            self.elapsed_log.append(memory.now_ns - self._written_at_ns)
        return super().on_read(memory, word, bit, stored_bit)


def build_bank(fault_factory) -> MemoryBank:
    injector = FaultInjector()
    memories = []
    for name, (words, bits), cell, fragile in _LAYOUT:
        memory = SRAM(MemoryGeometry(words, bits, name))
        injector.inject(memory, [fault_factory(cell, fragile)])
        memories.append(memory)
    return MemoryBank(memories)


def harvested_elapsed() -> list[float]:
    """Every at-risk read's exact elapsed time under the pause march."""
    probes: list[_ProbeRetention] = []

    def factory(cell, fragile):
        probe = _ProbeRetention(cell, fragile)
        probes.append(probe)
        return probe

    FastDiagnosisScheme(
        build_bank(factory), algorithm_factory=march_with_retention_pauses
    ).diagnose()
    return sorted({t for probe in probes for t in probe.elapsed_log})


def run_all_backends(retention_ns: float):
    def build():
        return build_bank(
            lambda cell, fragile: DataRetentionFault(
                cell, fragile, retention_ns=retention_ns
            )
        )

    reference_bank, batched_bank = build(), build()
    reference = FastDiagnosisScheme(
        reference_bank, algorithm_factory=march_with_retention_pauses
    ).diagnose()
    batched = run_session(
        FastDiagnosisScheme(
            batched_bank, algorithm_factory=march_with_retention_pauses
        ),
        backend="batched",
    )
    assert batched.failures == reference.failures
    assert batched.cycles == reference.cycles
    assert batched.time_ns == reference.time_ns
    for ref_mem, fast_mem in zip(reference_bank, batched_bank):
        assert fast_mem.dump() == ref_mem.dump(), ref_mem.name
    return reference


class TestExactRetentionBoundary:
    @pytest.fixture(scope="class")
    def boundary(self) -> float:
        elapsed = harvested_elapsed()
        assert elapsed, "the pause march must put fragile cells at risk"
        return elapsed[-1]

    def test_read_exactly_at_retention_decays_everywhere(self, boundary):
        report = run_all_backends(boundary)
        assert report.total_failures > 0

    def test_one_ulp_more_retention_survives_everywhere(self, boundary):
        # Same schedule, retention one float step above the largest
        # elapsed: with a strict > comparison the previous test would
        # pass for the wrong reason; this pair pins >= on every backend.
        report = run_all_backends(math.nextafter(boundary, math.inf))
        assert report.total_failures == 0

    def test_mid_range_retention_round_trips(self, boundary):
        # A retention inside the observed elapsed range decays some reads
        # and spares others -- the mixed case over the wrapping bucket.
        elapsed = harvested_elapsed()
        if len(elapsed) < 2:
            pytest.skip("needs at least two distinct elapsed times")
        report = run_all_backends(elapsed[len(elapsed) // 2])
        assert report.total_failures > 0
