"""Diagnosis reports for the proposed scheme.

A report collects every failure the comparator array registered, exposes
the localized cells, and -- given the ground-truth injector -- scores
detection and localization per fault, which is what the evaluation
experiments (E5, E6) consume.

Each memory's failing reads live in a :class:`FailureLog`: columns of
step index, op index, row and the expected and observed words as
``(n, lanes)`` uint64 arrays, plus one :class:`StepLabels` entry per march
element for the fields every read of that element shares.  The batched
engine emits those columns straight from its vector lanes; the reference
backend wraps its comparator records with :meth:`FailureLog.from_records`.
Scoring, localization and repair input are numpy operations over the
columns, and :class:`~repro.march.simulator.FailureRecord` objects are
built only when a log is iterated, indexed, compared or printed -- so
record-level consumers (the diagnosis dictionary, scan-out, backend
equality checks) see exactly the reference's records.  Without numpy (the
``[fast]`` extra) only the reference backend runs; its logs then score,
localize and feed repair by walking their records instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from repro.ecc.observer import EccMemorySummary
from repro.faults.injector import FaultInjector
from repro.march.simulator import FailureRecord
from repro.memory.geometry import CellRef
from repro.telemetry.core import tracer as _tracer
from repro.util.lanes import LANE_BITS, lanes_for, pack_state, unpack_words
from repro.util.records import Record
from repro.util.rng import HAVE_NUMPY, np, require_numpy
from repro.util.units import format_duration_ns


@dataclass(frozen=True)
class StepLabels:
    """Record fields shared by every failing read of one march element."""

    label: str
    #: Background stored in the element's failure records.
    background: int
    #: Operation notation by op index.
    operations: tuple[str | None, ...]


class FailureColumns(NamedTuple):
    """Parallel per-read columns of a :class:`FailureLog`."""

    step: "np.ndarray"
    op: "np.ndarray"
    row: "np.ndarray"
    #: ``(n, lanes)`` uint64: lane ``i`` holds word bits ``64i .. 64i+63``.
    expected: "np.ndarray"
    observed: "np.ndarray"


class FailureLog:
    """The failing reads of one memory, in reference order, as columns.

    Built either from engine columns (``steps`` maps each step index of
    the ``step`` column to its :class:`StepLabels`) or from reference
    records (:meth:`from_records`, which keeps the records and builds the
    columns on first use).  Within one log a step index determines the
    label, background and per-op notation, as every producer guarantees.
    Cell keys are ``row * bits + bit``.  Without numpy a log can only come
    from records, and the scoring methods walk those records instead.
    """

    __slots__ = ("memory_name", "bits", "steps", "_columns", "_records", "_keys")

    def __init__(
        self,
        memory_name: str,
        bits: int,
        steps: dict[int, StepLabels],
        columns: FailureColumns | None,
        records: list[FailureRecord] | None = None,
    ) -> None:
        self.memory_name = memory_name
        self.bits = bits
        self.steps = steps
        self._columns = columns
        self._records = records
        self._keys = None

    @classmethod
    def from_records(
        cls, memory_name: str, bits: int, records: Iterable[FailureRecord]
    ) -> "FailureLog":
        """Wrap reference records; columns are derived on first use."""
        return cls(memory_name, bits, {}, None, list(records))

    # ------------------------------------------------------------------ #
    # Record view                                                        #
    # ------------------------------------------------------------------ #
    def records(self) -> list[FailureRecord]:
        """The failing reads as records (built once, then cached)."""
        if self._records is None:
            columns = self._columns
            steps = self.steps
            name = self.memory_name
            self._records = [
                FailureRecord(
                    name,
                    step,
                    steps[step].label,
                    op,
                    steps[step].operations[op],
                    row,
                    steps[step].background,
                    expected,
                    observed,
                )
                for step, op, row, expected, observed in zip(
                    columns.step.tolist(),
                    columns.op.tolist(),
                    columns.row.tolist(),
                    unpack_words(columns.expected),
                    unpack_words(columns.observed),
                )
            ]
        return self._records

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._columns.row)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self.records())

    def __getitem__(self, index):
        return self.records()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, FailureLog):
            return len(self) == len(other) and self.records() == other.records()
        if isinstance(other, list):
            return self.records() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self.records())

    # ------------------------------------------------------------------ #
    # Column view                                                        #
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> FailureColumns:
        """The per-read columns (derived from the records on first use)."""
        if self._columns is None:
            require_numpy("failure-log columns")
            records = self._records
            lanes = lanes_for(self.bits)
            self._columns = FailureColumns(
                np.array([r.step_index for r in records], dtype=np.int64),
                np.array([r.op_index for r in records], dtype=np.int64),
                np.array([r.address for r in records], dtype=np.int64),
                pack_state([r.expected for r in records], lanes),
                pack_state([r.observed for r in records], lanes),
            )
            shared: dict[int, tuple[str, int, dict[int, str]]] = {}
            for record in records:
                entry = shared.setdefault(
                    record.step_index, (record.step_label, record.background, {})
                )
                entry[2][record.op_index] = record.operation
            self.steps = {
                step: StepLabels(
                    label, background, tuple(map(ops.get, range(max(ops) + 1)))
                )
                for step, (label, background, ops) in shared.items()
            }
        return self._columns

    def _failing_bits(self):
        """``(read, bit)`` index pairs of every mismatching bit, read-major.

        Peels the lowest set bit off every nonzero syndrome lane per pass
        (its index is the float exponent of the isolated power of two),
        so the passes are as many as the widest lane syndrome has bits.
        """
        columns = self.columns
        syndrome = columns.expected ^ columns.observed
        reads, lanes = np.nonzero(syndrome)
        words = syndrome[reads, lanes]
        all_reads, all_bits = [], []
        while words.size:
            lowest = words & (~words + np.uint64(1))
            all_reads.append(reads)
            exponents = np.frexp(lowest.astype(np.float64))[1]
            all_bits.append(lanes * LANE_BITS + exponents - 1)
            words ^= lowest
            left = words != 0
            reads, lanes, words = reads[left], lanes[left], words[left]
        if len(all_reads) < 2:
            return (all_reads[0], all_bits[0]) if all_reads else (reads, lanes)
        reads = np.concatenate(all_reads)
        bits = np.concatenate(all_bits)
        order = np.lexsort((bits, reads))
        return reads[order], bits[order]

    def _record_cells(self):
        """``(cell key, step label)`` per mismatching bit, walking the records.

        The numpy-less counterpart of :meth:`_failing_bits`, read-major.
        """
        bits = self.bits
        for record in self._records:
            for cell in record.failing_cells():
                yield cell.word * bits + cell.bit, record.step_label

    def cell_keys(self):
        """Sorted distinct keys of every cell a failing read implicated.

        A numpy array, or a list of ints without numpy.
        """
        if self._keys is None:
            if not HAVE_NUMPY:
                self._keys = sorted({key for key, _ in self._record_cells()})
            elif not self:
                self._keys = np.zeros(0, dtype=np.int64)
            else:
                reads, bits = self._failing_bits()
                self._keys = sorted_unique(self.columns.row[reads] * self.bits + bits)
        return self._keys

    def failing_cells(self) -> list[CellRef]:
        """The distinct implicated cells, sorted by ``(word, bit)``."""
        keys = self.cell_keys()
        if HAVE_NUMPY:
            keys = keys.tolist()
        bits = self.bits
        return [CellRef(key // bits, key % bits) for key in keys]

    def addresses(self) -> list[int]:
        """Sorted distinct addresses with at least one failing read."""
        if not HAVE_NUMPY:
            return sorted({record.address for record in self._records})
        return sorted_unique(self.columns.row).tolist()

    def cell_evidence(self) -> tuple[list[int], list[int], list[str]]:
        """Per distinct cell: ``(keys, failing-read counts, first step)``.

        ``first step`` is the step label of the earliest read that
        implicated the cell; keys are sorted.
        """
        if not HAVE_NUMPY:
            counts: dict[int, int] = {}
            first: dict[int, str] = {}
            for key, label in self._record_cells():
                counts[key] = counts.get(key, 0) + 1
                first.setdefault(key, label)
            keys = sorted(counts)
            return keys, [counts[key] for key in keys], [first[key] for key in keys]
        reads, bits = self._failing_bits()
        keys = self.columns.row[reads] * self.bits + bits
        if not len(keys):
            return [], [], []
        # A stable sort keeps each key's earliest read first in its run.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
        counts = np.diff(starts, append=len(keys))
        first_steps = self.columns.step[reads[order[starts]]].tolist()
        steps = self.steps
        return (
            keys[starts].tolist(),
            counts.tolist(),
            [steps[step].label for step in first_steps],
        )

    def detects(self, victim_groups: Sequence[Sequence[CellRef]]) -> list[bool]:
        """Per group: whether any of its cells was implicated."""
        return groups_hit(self.cell_keys(), self.bits, victim_groups)


def _score_span():
    """The ``core.report.score`` telemetry span (a no-op when disabled)."""
    return _tracer().span("core.report.score", "score")


def groups_hit(keys, bits: int, groups: Sequence[Sequence[CellRef]]) -> list[bool]:
    """Per group of cells: whether any cell's key is in sorted ``keys``.

    ``keys`` is a :meth:`FailureLog.cell_keys` result (a list without numpy).
    """
    if not HAVE_NUMPY:
        present = set(keys)
        return [
            any(cell.word * bits + cell.bit in present for cell in cells)
            for cells in groups
        ]
    flat: list[int] = []
    owner: list[int] = []
    for index, cells in enumerate(groups):
        for cell in cells:
            flat.append(cell.word * bits + cell.bit)
            owner.append(index)
    hit = np.zeros(len(groups), dtype=bool)
    if flat:
        found = in_sorted(np.array(flat, dtype=np.int64), keys)
        hit[np.array(owner, dtype=np.int64)[found]] = True
    return hit.tolist()


# ``np.unique``/``np.isin``/``np.union1d`` import ``numpy.ma`` on first use
# (tens of milliseconds and a few MB in every fresh worker), so the set
# operations the scoring path needs are spelled with sort/searchsorted.
def sorted_unique(values) -> "np.ndarray":
    """The distinct values of an integer array, sorted."""
    values = np.sort(values)
    if len(values) < 2:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def in_sorted(values, keys) -> "np.ndarray":
    """Per value: whether it occurs in the sorted array ``keys``."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    index = np.searchsorted(keys, values)
    index[index == len(keys)] = 0
    return keys[index] == values


@dataclass(frozen=True)
class FaultScore(Record):
    """Ground-truth outcome for one injected fault."""

    memory_name: str
    description: str
    fault_class: str
    detected: bool
    localized: bool


@dataclass
class ProposedReport(Record):
    """Outcome of one proposed-scheme diagnosis session."""

    algorithm_name: str
    controller_words: int
    controller_bits: int
    period_ns: float
    cycles: int = 0
    pause_ns: float = 0.0
    failures: dict[str, FailureLog] = field(default_factory=dict)
    deliveries: int = 0
    nwrc_ops: int = 0
    #: True when a go/no-go session stopped before running every element.
    aborted_early: bool = False
    #: Per-memory ECC decoder summaries; ``None`` when the session ran
    #: without an on-die ECC layer (failures are then raw observations).
    ecc: dict[str, EccMemorySummary] | None = None

    @property
    def time_ns(self) -> float:
        """Total diagnosis time (cycles x period + pauses)."""
        return self.cycles * self.period_ns + self.pause_ns

    @property
    def total_failures(self) -> int:
        """Mismatching reads across all memories."""
        return sum(len(f) for f in self.failures.values())

    @property
    def passed(self) -> bool:
        """True when no memory produced a mismatch."""
        return self.total_failures == 0

    def ecc_corrected_cells(self, memory_name: str) -> set[CellRef]:
        """Cells the ECC decoder corrected in one memory (empty w/o ECC)."""
        if not self.ecc or memory_name not in self.ecc:
            return set()
        return self.ecc[memory_name].corrected_cellrefs()

    @property
    def ecc_masked_reads(self) -> int:
        """Mismatching reads the ECC layer hid from the comparator."""
        if not self.ecc:
            return 0
        return sum(s.masked_reads for s in self.ecc.values())

    @property
    def ecc_corrected_reads(self) -> int:
        """Reads where the ECC decoder asserted its corrected flag."""
        if not self.ecc:
            return 0
        return sum(s.corrected_reads for s in self.ecc.values())

    @property
    def ecc_uncorrectable_reads(self) -> int:
        """Reads the ECC decoder flagged uncorrectable."""
        if not self.ecc:
            return 0
        return sum(s.uncorrectable_reads for s in self.ecc.values())

    def detected_cells(self, memory_name: str) -> set[CellRef]:
        """Cells implicated by failures in one memory."""
        log = self.failures.get(memory_name)
        return set(log.failing_cells()) if log else set()

    def failing_memories(self) -> list[str]:
        """Names of memories with at least one failure."""
        return sorted(name for name, f in self.failures.items() if f)

    def score_against(self, injector: FaultInjector) -> list[FaultScore]:
        """Score every injected fault: detected? victim localized?

        A fault is *detected* when its memory produced any failure
        involving one of its victim cells, and *localized* under the same
        condition -- the proposed scheme's failure records carry exact
        (address, bit) coordinates, so detection and localization coincide
        (unlike the serial baselines).
        """
        with _score_span():
            return [
                FaultScore(
                    memory_name=name,
                    description=fault.describe(),
                    fault_class=fault.fault_class.value,
                    detected=hit,
                    localized=hit,
                )
                for name, faults, hits in self._fault_hits(injector)
                for fault, hit in zip(faults, hits)
            ]

    def _fault_hits(self, injector: FaultInjector):
        """Per memory: ``(name, faults, per-fault victim-hit flags)``."""
        for name in injector.memories():
            faults = injector.faults_for(name)
            log = self.failures.get(name)
            if log:
                hits = log.detects([fault.victims for fault in faults])
            else:
                hits = [False] * len(faults)
            yield name, faults, hits

    def localization_rate(self, injector: FaultInjector) -> float:
        """Fraction of injected faults whose victims were localized.

        Counts the flags :meth:`score_against` would put in its scores
        without building them.
        """
        with _score_span():
            localized = total = 0
            for _, faults, hits in self._fault_hits(injector):
                localized += sum(hits)
                total += len(faults)
        if not total:
            return 1.0
        return localized / total

    def localized_cells(self, memory_name: str) -> list["LocalizedCell"]:
        """Per-cell localization evidence, strongest first.

        Aggregates the failure records of one memory into one entry per
        implicated cell with the count of failing reads and the first March
        element that exposed it -- the per-cell view repair and off-line
        analysis consume.
        """
        log = self.failures.get(memory_name)
        if not log:
            return []
        bits = log.bits
        # Strongest first; keys order cells by (word, bit) within a count.
        evidence = sorted(zip(*log.cell_evidence()), key=lambda e: (-e[1], e[0]))
        return [
            LocalizedCell(
                memory_name=memory_name,
                cell=CellRef(key // bits, key % bits),
                failing_reads=count,
                first_step=label,
            )
            for key, count, label in evidence
        ]

    def summary_lines(self) -> list[str]:
        """Human-readable session summary for examples and logs."""
        lines = [
            f"algorithm        : {self.algorithm_name}",
            f"controller       : {self.controller_words} words x "
            f"{self.controller_bits} bits @ {self.period_ns} ns",
            f"cycles           : {self.cycles}",
            f"diagnosis time   : {format_duration_ns(self.time_ns)}",
            f"pattern deliveries: {self.deliveries}",
            f"NWRC operations  : {self.nwrc_ops}",
            f"total failures   : {self.total_failures}",
        ]
        for name in sorted(self.failures):
            cells = self.detected_cells(name)
            lines.append(f"  {name}: {len(self.failures[name])} failing reads, "
                         f"{len(cells)} distinct cells")
        return lines


@dataclass(frozen=True)
class LocalizedCell(Record):
    """One cell pinpointed by diagnosis, with its failing evidence."""

    memory_name: str
    cell: CellRef
    failing_reads: int
    first_step: str
