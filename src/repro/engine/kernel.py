"""Element plans and the scalar march lanes shared by the engine.

A march element resolved against one memory geometry is an
:class:`ElementPlan`: per-operation write data, expected read data
(possibly different after the element's address sweep wraps around a
smaller memory) and a per-operation clock cost.  The one vector path,
:mod:`repro.engine.batched`, sweeps those plans over stacked geometry
buckets; this module holds the pieces it shares with the scalar lanes:

* :func:`replay_dirty_positions` -- the behavioural replay lane.  Words
  whose faults cannot be lowered into the compiled fault table are
  replayed through the memory's access path in exact sweep order, with
  the shared time base fast-forwarded to the cycle the reference
  implementation would show at each visit, so stateful faults observe
  identical times and orderings.
* :func:`run_element_slow` -- the pure-Python executor for memories the
  vector path cannot represent (decoder/column-mux faults, tracing).
* :func:`sync_clean_rows` / :class:`CleanWordTracker` -- packed-state
  write-back and the provably-clean compare skip.

Failing reads carry ``(position, op_index)`` keys so every lane merges
back into the reference's address-major order exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import StepLabels
from repro.engine.packing import np, unpack_words
from repro.march.ops import Operation
from repro.march.simulator import FailureRecord
from repro.memory.sram import SRAM
from repro.telemetry.core import tracer as _tracer


def sync_clean_rows(memory: SRAM, state, clean_mask) -> None:
    """Write the packed clean rows back into the behavioural memory."""
    rows = np.nonzero(clean_mask)[0].tolist()
    if not rows:
        return
    memory.force_store_rows(rows, unpack_words(state))


@dataclass
class CleanWordTracker:
    """Tracks the single word every *clean* row holds, when provable.

    Clean rows have no fault hooks, so after any write operation they all
    hold exactly the written word -- the ideal machine's trajectory.  A
    read whose expectation equals that tracked word cannot mismatch on
    any clean row, so the fleet-batched tier skips the whole stacked-slab
    compare for it; that is every read of a consistent march under
    matching backgrounds.  ``None`` (pre-first-write, arbitrary packed
    contents) or a mismatching expectation (e.g. the Sec. 3.2 LSB-first
    coverage-loss scenario) falls back to the exact compare, so results
    never change.  One tracker spans a whole bucket session: blocks
    process sequentially over the same physical rows, so the tracked
    value carries across blocks and elements.
    """

    value: int | None = None


@dataclass(frozen=True)
class OpPlan:
    """One march operation with its concrete data and clock cost."""

    op: Operation
    operation: str
    #: Word actually written (None for reads).  Already width-adapted.
    write_word: int | None
    #: Expected read data before the sweep wraps (None for writes).
    expected_plain: int | None
    #: Expected read data once the sweep has wrapped around the memory.
    expected_wrapped: int | None
    #: Clock cycles the reference consumes per application (1 for writes;
    #: ``1 + c`` for proposed-scheme reads, 1 for raw-simulator reads).
    tick_cost: int


@dataclass(frozen=True)
class ElementPlan:
    """One march element fully resolved against one memory."""

    step_index: int
    step_label: str
    #: Background stored in failure records (raw: the algorithm background;
    #: session: the width-masked correct background).
    record_background: int
    #: Cycles consumed before the sweep (serial background delivery).
    deliver_ticks: int
    ascending: bool
    #: Number of sweep positions (controller words for sessions; the
    #: memory's own word count for raw march runs).
    sweep_length: int
    ops: tuple[OpPlan, ...]

    def __post_init__(self) -> None:
        # Flat per-op tuples so the behavioural replay's hot loop skips
        # attribute/property dispatch: (is_read, is_nwrc, write_word,
        # expected_plain, expected_wrapped, extra_ticks).
        object.__setattr__(
            self,
            "compiled_ops",
            tuple(
                (
                    op_plan.op.is_read,
                    op_plan.op.is_nwrc,
                    op_plan.write_word,
                    op_plan.expected_plain,
                    op_plan.expected_wrapped,
                    op_plan.tick_cost - 1,
                )
                for op_plan in self.ops
            ),
        )
        # Analytic clock offsets: the replay lane executes op ``j`` of
        # sweep position ``p`` on cycle ``element_base + p * per_address
        # + access_ticks[j]`` (each access ticks once *before* it fires,
        # reads then consume their extra compare ticks).  The compiled
        # fault table uses these to evaluate time-dependent faults
        # (retention decay) without replaying.
        per_address = 0
        access_ticks = []
        for op_plan in self.ops:
            access_ticks.append(per_address + 1)
            per_address += op_plan.tick_cost
        object.__setattr__(self, "per_address_ticks", per_address)
        object.__setattr__(self, "access_ticks", tuple(access_ticks))
        # The record fields every failing read of this element shares.
        object.__setattr__(
            self,
            "labels",
            StepLabels(
                self.step_label,
                self.record_background,
                tuple(op_plan.operation for op_plan in self.ops),
            ),
        )


def replay_dirty_positions(
    memory: SRAM,
    plan: ElementPlan,
    dirty_positions: list[int],
    base_cycles: int,
    per_address: int,
    ecc=None,
) -> list[tuple[int, int, int, int, int]]:
    """Behavioural replay of fault-hooked rows in exact sweep order.

    The shared time base is fast-forwarded to the cycle the reference
    implementation would show at each visit, so stateful faults observe
    identical times and orderings.  Returns one ``(position, op_index,
    row, expected, observed)`` tuple per failing read, for merging back
    into reference order.  The batched tier precomputes each memory's
    dirty positions once per session (they depend only on the static
    dirty mask and the sweep direction); local rows fall out of the
    position arithmetically.

    Accesses go through the memory's ideal-periphery replay lane
    (:meth:`repro.memory.sram.SRAM.replay_read` /
    :meth:`~repro.memory.sram.SRAM.replay_write`), which is exact because
    every caller of the vector path has already established the
    fault-free-decoder/mux, no-tracing preconditions.

    ``ecc`` is the memory's :class:`repro.ecc.observer.EccObserver` (or
    ``None`` for raw observation): each mismatch is decoded scalar-wise --
    the replay lane is scalar anyway -- and masked mismatches produce no
    failing read.
    """
    tr = _tracer()
    if tr.enabled and dirty_positions:
        # One access per operation per replayed sweep position -- the
        # behavioural-replay traffic the lane attribution quantifies.
        tr.counters.add(
            "replay.accesses", len(dirty_positions) * len(plan.compiled_ops)
        )
    timebase = memory.timebase
    seek = timebase.seek_cycles
    tick = timebase.tick
    read = memory.replay_read
    write = memory.replay_write
    compiled = plan.compiled_ops
    words = memory.words
    ascending = plan.ascending
    last = plan.sweep_length - 1
    hits: list[tuple[int, int, int, int, int]] = []
    for position in dirty_positions:
        local = (position if ascending else last - position) % words
        wrapped = position >= words
        seek(base_cycles + position * per_address)
        for op_index, (
            is_read,
            is_nwrc,
            write_word,
            expected_plain,
            expected_wrapped,
            extra_ticks,
        ) in enumerate(compiled):
            if is_read:
                observed = read(local)
                if extra_ticks:
                    tick(extra_ticks)
                expected = expected_wrapped if wrapped else expected_plain
                if observed != expected:
                    if ecc is not None:
                        observed = ecc.observe(local, expected, observed)
                        if observed == expected:
                            continue
                    hits.append((position, op_index, local, expected, observed))
            else:
                write(local, write_word, is_nwrc)
    return hits


def run_element_slow(
    memory: SRAM, plan: ElementPlan, ecc=None
) -> list[FailureRecord]:
    """Pure-Python fallback executing a plan exactly like the reference.

    Used for memories the vector path cannot represent (decoder or
    column-mux faults, access tracing); behaviour and clocking match the
    reference implementations cycle for cycle.
    """
    words = memory.words
    if plan.deliver_ticks:
        memory.timebase.tick(plan.deliver_ticks)
    records: list[FailureRecord] = []
    for position in range(plan.sweep_length):
        address = position if plan.ascending else plan.sweep_length - 1 - position
        local = address % words
        wrapped = position >= words
        for op_index, op_plan in enumerate(plan.ops):
            operation = op_plan.op
            if operation.is_read:
                observed = memory.read(local)
                if op_plan.tick_cost > 1:
                    memory.timebase.tick(op_plan.tick_cost - 1)
                expected = (
                    op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                )
                if observed != expected:
                    if ecc is not None:
                        observed = ecc.observe(local, expected, observed)
                        if observed == expected:
                            continue
                    records.append(
                        FailureRecord(
                            memory.name,
                            plan.step_index,
                            plan.step_label,
                            op_index,
                            op_plan.operation,
                            local,
                            plan.record_background,
                            expected,
                            observed,
                        )
                    )
            elif operation.is_nwrc:
                memory.nwrc_write(local, op_plan.write_word)
            else:
                memory.write(local, op_plan.write_word)
    return records

