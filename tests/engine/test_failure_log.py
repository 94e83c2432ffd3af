"""Batched failure logs materialize exactly the reference's records.

The batched engine keeps failing reads as columns
(:class:`~repro.core.report.FailureLog`) and never builds a
:class:`~repro.march.simulator.FailureRecord` on its hot path.  These
cases pin that the records a log materializes -- lazily, on iteration or
comparison -- are the reference backend's, in the same order, for one
bucket that mixes all three lanes (behavioural replay, compiled fault
table, clean block ops) on 100-bit words (two uint64 lanes), with and
without on-die ECC, for full sessions, the verify session after repair
and raw march runs.  March SS reads a word several times per element,
so one row fails at several ops of one sweep position.
"""

from __future__ import annotations

import pytest

from repro.core.repair import RepairController
from repro.core.report import FailureLog
from repro.core.scheme import FastDiagnosisScheme
from repro.ecc.observer import EccConfig
from repro.engine.backends import ReferenceBackend, get_backend
from repro.engine.session import run_session
from repro.faults.coupling import InversionCouplingFault
from repro.faults.stuck_at import StuckAtFault
from repro.march.library import march_cw_nw, march_ss
from repro.march.simulator import FailureRecord
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.telemetry import activate, deactivate


def build_bank() -> MemoryBank:
    """Three 100-bit memories sharing one bucket, plus a wider one.

    The 128-bit memory sets the controller to 128 bits and 20 words, so
    the 12-word bucket wraps mid-sweep.  ``mixed`` carries a table-lane
    stuck-at in each uint64 lane and a replayed word (intra-word
    coupling plus two stuck-at cells);
    ``clean`` has no fault and fails only under LSB-first delivery.
    """
    mixed = SRAM(MemoryGeometry(12, 100, "mixed"))
    table = SRAM(MemoryGeometry(12, 100, "table"))
    clean = SRAM(MemoryGeometry(12, 100, "clean"))
    wider = SRAM(MemoryGeometry(20, 128, "wider"))
    StuckAtFault(CellRef(3, 70), value=1).attach(mixed)
    StuckAtFault(CellRef(9, 1), value=0).attach(mixed)
    InversionCouplingFault(CellRef(5, 10), CellRef(5, 90)).attach(mixed)
    # Same word as the coupling fault, so also replayed: double errors
    # there survive SEC-DED.
    StuckAtFault(CellRef(5, 40), value=1).attach(mixed)
    StuckAtFault(CellRef(5, 41), value=0).attach(mixed)
    StuckAtFault(CellRef(7, 99), value=1).attach(table)
    StuckAtFault(CellRef(7, 98), value=1).attach(table)
    StuckAtFault(CellRef(11, 64), value=1).attach(table)
    StuckAtFault(CellRef(0, 127), value=0).attach(wider)
    return MemoryBank([mixed, table, clean, wider])


def count_records(monkeypatch) -> list[int]:
    """Count FailureRecord constructions from here on."""
    built = [0]
    original = FailureRecord.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(FailureRecord, "__init__", counting)
    return built


def assert_same_records(batched: dict, reference: dict) -> None:
    assert list(batched) == list(reference)
    for name, log in batched.items():
        assert isinstance(log, FailureLog)
        assert list(log) == list(reference[name]), name


@pytest.mark.parametrize("algorithm", [march_cw_nw, march_ss])
@pytest.mark.parametrize("ecc", [None, EccConfig()], ids=["raw", "secded"])
@pytest.mark.parametrize("msb_first", [True, False], ids=["msb", "lsb"])
def test_session_and_verify_after_repair(monkeypatch, algorithm, ecc, msb_first):
    reference_bank, batched_bank = build_bank(), build_bank()
    reference_scheme = FastDiagnosisScheme(
        reference_bank, algorithm_factory=algorithm, msb_first=msb_first, ecc=ecc
    )
    batched_scheme = FastDiagnosisScheme(
        batched_bank, algorithm_factory=algorithm, msb_first=msb_first, ecc=ecc
    )
    reference = reference_scheme.diagnose()

    built = count_records(monkeypatch)
    tracer = activate()
    try:
        batched = run_session(batched_scheme, backend="batched")
    finally:
        deactivate()
    assert built[0] == 0, "the batched session built FailureRecords"
    counters = tracer.counters
    assert counters.get("bucket.replay_rows") > 0
    assert counters.get("bucket.table_rows") > 0
    assert counters.get("bucket.clean_rows") > 0
    if not msb_first and algorithm is march_cw_nw:
        # Stripe backgrounds arrive wrong LSB-first; March SS's solid
        # ones do not.
        assert batched.failures["clean"], "the clean lane produced no failure"
    assert batched.failures["mixed"] and batched.failures["table"]
    assert_same_records(batched.failures, reference.failures)
    assert batched == reference

    RepairController(reference_bank, 4).apply(reference)
    RepairController(batched_bank, 4).apply(batched)
    reference_verify = reference_scheme.diagnose()
    batched_verify = run_session(batched_scheme, backend="batched")
    assert_same_records(batched_verify.failures, reference_verify.failures)
    assert batched_verify == reference_verify


@pytest.mark.parametrize("algorithm", [march_cw_nw, march_ss])
def test_raw_march_run(monkeypatch, algorithm):
    reference_memory = build_bank()[0]
    batched_memory = build_bank()[0]
    algorithm = algorithm(100)
    reference = ReferenceBackend().run(reference_memory, algorithm)
    built = count_records(monkeypatch)
    batched = get_backend("batched").run(batched_memory, algorithm)
    assert built[0] == 0
    assert isinstance(batched.failures, FailureLog)
    assert reference.failures
    assert list(batched.failures) == reference.failures
    assert batched.failures == reference.failures
    assert batched.cycles == reference.cycles
    assert batched_memory.dump() == reference_memory.dump()
