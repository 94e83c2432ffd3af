"""Property tests: column-based scoring equals the record-walking oracle.

Random failing-read logs (1 to 3 lanes wide, multi-bit syndromes, words
revisited across steps) are scored two ways: by the report's numpy
operations over :class:`~repro.core.report.FailureLog` columns, and by
the per-record oracle in ``tests/core/record_oracle.py``.  Logs are built
both from records (the reference backend's form) and from raw columns
(the batched engine's form); records-backed logs are also scored on the
path an installation without numpy takes, which walks the records.
"""

from contextlib import nullcontext
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import (
    FailureColumns,
    FailureLog,
    ProposedReport,
    StepLabels,
)
from repro.faults.injector import FaultInjector
from repro.faults.stuck_at import StuckAtFault
from repro.march.simulator import FailureRecord
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.bitops import mask
from repro.util.rng import np
from tests.core import record_oracle
from tests.core.test_repair_bisr import TwinStuckFault

MEMORIES = ("m0", "m1")
LABELS = {0: "up(w0)", 1: "up(r0,w1)", 2: "down(r1,w0)", 3: "up(r0)"}


@st.composite
def memory_logs(draw):
    """(bits, words, {name: [FailureRecord, ...]}) with mismatching reads."""
    bits = draw(st.sampled_from([1, 3, 8, 63, 64, 65, 100, 130]))
    words = draw(st.integers(min_value=1, max_value=12))
    logs = {}
    for name in MEMORIES:
        steps = sorted(
            draw(st.lists(st.sampled_from(sorted(LABELS)), max_size=3, unique=True))
        )
        records = []
        for step in steps:
            for _ in range(draw(st.integers(min_value=0, max_value=6))):
                expected = draw(st.integers(min_value=0, max_value=mask(bits)))
                syndrome = draw(st.integers(min_value=1, max_value=mask(bits)))
                op = draw(st.integers(min_value=0, max_value=2))
                records.append(
                    FailureRecord(
                        name,
                        step,
                        LABELS[step],
                        op,
                        f"r{op}",
                        draw(st.integers(min_value=0, max_value=words - 1)),
                        step * 7,
                        expected,
                        expected ^ syndrome,
                    )
                )
        logs[name] = records
    return bits, words, logs


@st.composite
def injected(draw):
    bits, words, logs = draw(memory_logs())
    injector = FaultInjector()
    for name in MEMORIES:
        memory = SRAM(MemoryGeometry(words, bits, name))
        cell = st.builds(
            CellRef,
            st.integers(min_value=0, max_value=words - 1),
            st.integers(min_value=0, max_value=bits - 1),
        )
        # One or two victims per fault: a fault counts as hit when any
        # of its victims was implicated.
        victims = draw(st.lists(st.lists(cell, min_size=1, max_size=2), max_size=6))
        injector.inject(
            memory,
            [
                StuckAtFault(group[0], value=1)
                if len(group) == 1
                else TwinStuckFault(*group)
                for group in victims
            ],
        )
    return bits, logs, injector


def column_log(name: str, bits: int, records: list[FailureRecord]) -> FailureLog:
    """The engine's form: columns plus the step label table."""
    lanes = max(1, -(-bits // 64))

    def packed(values):
        return np.array(
            [[(v >> (64 * lane)) & mask(64) for lane in range(lanes)] for v in values],
            dtype=np.uint64,
        ).reshape(len(values), lanes)

    steps = {
        step: StepLabels(label, step * 7, ("r0", "r1", "r2"))
        for step, label in LABELS.items()
    }
    return FailureLog(
        name,
        bits,
        steps,
        FailureColumns(
            np.array([r.step_index for r in records], dtype=np.int64),
            np.array([r.op_index for r in records], dtype=np.int64),
            np.array([r.address for r in records], dtype=np.int64),
            packed([r.expected for r in records]),
            packed([r.observed for r in records]),
        ),
    )


def report_of(logs: dict[str, FailureLog]) -> ProposedReport:
    return ProposedReport("prop", 8, 8, 10.0, failures=logs)


def without_numpy():
    """Score on the numpy-less path of :mod:`repro.core.report`."""
    return mock.patch("repro.core.report.HAVE_NUMPY", False)


def record_log(name: str, bits: int, records: list[FailureRecord]) -> FailureLog:
    """The reference backend's form."""
    return FailureLog.from_records(name, bits, records)


#: (log builder, scoring context) pairs.
BUILDERS = (
    (record_log, nullcontext),
    (column_log, nullcontext),
    (record_log, without_numpy),
)


class TestColumnScoringMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(memory_logs(), st.sampled_from(BUILDERS))
    def test_detected_and_localized_cells(self, case, builder):
        bits, _, logs = case
        build, scoring = builder
        report = report_of({n: build(n, bits, r) for n, r in logs.items()})
        with scoring():
            for name, records in logs.items():
                assert list(report.failures[name]) == records
                assert report.detected_cells(name) == record_oracle.detected_cells(
                    records
                )
                assert report.localized_cells(name) == record_oracle.localized_cells(
                    name, records
                )
                assert report.failures[name].addresses() == sorted(
                    {record.address for record in records}
                )

    @settings(max_examples=60, deadline=None)
    @given(injected(), st.sampled_from(BUILDERS))
    def test_score_against_and_localization_rate(self, case, builder):
        bits, logs, injector = case
        build, scoring = builder
        report = report_of({n: build(n, bits, r) for n, r in logs.items()})
        expected = record_oracle.score_against(logs, injector)
        rate = (
            sum(1 for s in expected if s.localized) / len(expected)
            if expected
            else 1.0
        )
        with scoring():
            assert report.score_against(injector) == expected
            assert report.localization_rate(injector) == rate
