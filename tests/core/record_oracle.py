"""Record-walking scoring oracle for :class:`repro.core.report.FailureLog`.

These are the per-record scoring routines the report used before failing
reads became columns: every consumer walks the materialized
:class:`~repro.march.simulator.FailureRecord` list in Python.  The
column-based report must agree with them exactly.
"""

from __future__ import annotations

from repro.core.report import FaultScore, LocalizedCell
from repro.faults.injector import FaultInjector
from repro.march.simulator import FailureRecord
from repro.memory.geometry import CellRef


def detected_cells(records: list[FailureRecord]) -> set[CellRef]:
    """Cells implicated by a memory's failing reads."""
    cells: set[CellRef] = set()
    for failure in records:
        cells.update(failure.failing_cells())
    return cells


def score_against(
    failures: dict[str, list[FailureRecord]], injector: FaultInjector
) -> list[FaultScore]:
    """Detected/localized per injected fault, in injector order."""
    scores = []
    for name in injector.memories():
        reported = detected_cells(failures.get(name, []))
        for fault in injector.faults_for(name):
            hit = bool(reported & set(fault.victims))
            scores.append(
                FaultScore(
                    memory_name=name,
                    description=fault.describe(),
                    fault_class=fault.fault_class.value,
                    detected=hit,
                    localized=hit,
                )
            )
    return scores


def localized_cells(
    memory_name: str, records: list[FailureRecord]
) -> list[LocalizedCell]:
    """Per-cell evidence (read count, first step), strongest first."""
    evidence: dict[CellRef, list[FailureRecord]] = {}
    for failure in records:
        for cell in failure.failing_cells():
            evidence.setdefault(cell, []).append(failure)
    cells = [
        LocalizedCell(
            memory_name=memory_name,
            cell=cell,
            failing_reads=len(found),
            first_step=found[0].step_label,
        )
        for cell, found in evidence.items()
    ]
    return sorted(cells, key=lambda c: (-c.failing_reads, c.cell))
