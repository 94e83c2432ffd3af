"""RAMSES-style March fault simulator.

The simulator applies a :class:`MarchAlgorithm` to a (possibly faulty)
:class:`repro.memory.SRAM`, comparing every read against the algorithm's
expected word and recording mismatches as :class:`FailureRecord` entries.
The expected value of a read is defined by the algorithm alone (the "good
machine" needs no second simulation: a fault-free memory returns exactly
the background-expanded data of the preceding writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.march.algorithm import MarchAlgorithm, MarchStep, PauseStep
from repro.memory.geometry import CellRef
from repro.memory.sram import SRAM
from repro.util.records import Record
from repro.util.validation import require


@dataclass(frozen=True, slots=True)
class FailureRecord(Record):
    """One mismatching read observed during a March run.

    This is the diagnosis information of the paper (Sec. 3.1): failing
    address, applied background, expected vs observed data -- everything the
    BISD controller registers for on-chip repair or off-line analysis.
    Slotted: dense diagnostic campaigns construct hundreds of thousands of
    these, so per-instance dict allocation is measurable.
    """

    memory_name: str
    step_index: int
    step_label: str
    op_index: int
    operation: str
    address: int
    background: int
    expected: int
    observed: int

    @property
    def syndrome(self) -> int:
        """Bit mask of mismatching IO positions."""
        return self.expected ^ self.observed

    def failing_bits(self) -> list[int]:
        """IO bit positions that mismatched."""
        syndrome = self.syndrome
        return [i for i in range(syndrome.bit_length()) if (syndrome >> i) & 1]

    def failing_cells(self) -> list[CellRef]:
        """Cells implicated by this failure (address x failing bits)."""
        return [CellRef(self.address, bit) for bit in self.failing_bits()]


@dataclass
class MarchResult(Record):
    """Outcome of one March run against one memory."""

    algorithm_name: str
    memory_name: str
    #: Records in run order (a :class:`~repro.core.report.FailureLog` when
    #: the batched backend ran the march).
    failures: list[FailureRecord] = field(default_factory=list)
    cycles: int = 0
    elapsed_ns: float = 0.0

    @property
    def passed(self) -> bool:
        """True when no read mismatched."""
        return not self.failures

    @property
    def failure_count(self) -> int:
        """Number of mismatching reads."""
        return len(self.failures)

    def detected_cells(self) -> set[CellRef]:
        """Union of all cells implicated by all failures."""
        cells: set[CellRef] = set()
        for failure in self.failures:
            cells.update(failure.failing_cells())
        return cells

    def failing_addresses(self) -> set[int]:
        """Addresses with at least one mismatching read."""
        return {failure.address for failure in self.failures}


class MarchSimulator:
    """Runs March algorithms against behavioural SRAMs.

    ``ecc`` optionally inserts an on-die SEC-DED decode between each word
    read and the comparison (see :mod:`repro.ecc`): the recorded failures
    are then post-correction observations, as a real tester would see
    them.  One observer per (memory, run) is kept in ``ecc_observers``.
    """

    def __init__(self, stop_on_first_failure: bool = False, ecc=None) -> None:
        self.stop_on_first_failure = stop_on_first_failure
        self.ecc = ecc
        #: Observer of the most recent ``run()`` per memory name.
        self.ecc_observers: dict[str, object] = {}

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        """Apply ``algorithm`` to ``memory`` and collect failures.

        The algorithm must be generated for the memory's word width; the
        width-adaptive delivery of patterns to narrower memories is the
        diagnosis scheme's job (see :mod:`repro.core.scheme`), not the raw
        simulator's.
        """
        require(
            algorithm.bits == memory.bits,
            f"algorithm width {algorithm.bits} != memory width {memory.bits}",
        )
        result = MarchResult(algorithm.name, memory.name)
        observer = None
        if self.ecc is not None:
            from repro.ecc.code import secded_code
            from repro.ecc.observer import EccObserver

            observer = EccObserver(memory.name, secded_code(memory.bits))
            self.ecc_observers[memory.name] = observer
        start_cycles = memory.timebase.cycles
        start_ns = memory.now_ns
        for step_index, step in enumerate(algorithm.steps):
            if isinstance(step, PauseStep):
                memory.pause(step.duration_ns)
                continue
            if self._run_step(memory, step, step_index, result, observer):
                break
        result.cycles = memory.timebase.cycles - start_cycles
        result.elapsed_ns = memory.now_ns - start_ns
        return result

    def _run_step(
        self,
        memory: SRAM,
        step: MarchStep,
        step_index: int,
        result: MarchResult,
        observer=None,
    ) -> bool:
        """Run one element; returns True when the run should stop early."""
        element = step.element
        bits = memory.bits
        for address in element.order.addresses(memory.words):
            for op_index, op in enumerate(element.operations):
                word = op.word_for(step.background, bits)
                if op.is_read:
                    observed = memory.read(address)
                    if observer is not None and observed != word:
                        observed = observer.observe(address, word, observed)
                    if observed != word:
                        result.failures.append(
                            FailureRecord(
                                memory_name=memory.name,
                                step_index=step_index,
                                step_label=step.label or step.element.notation(),
                                op_index=op_index,
                                operation=op.notation(),
                                address=address,
                                background=step.background,
                                expected=word,
                                observed=observed,
                            )
                        )
                        if self.stop_on_first_failure:
                            return True
                elif op.is_nwrc:
                    memory.nwrc_write(address, word)
                else:
                    memory.write(address, word)
        return False
