"""The one vector path: whole geometry buckets per vector op.

A fleet session over hundreds of distributed small memories would pay the
full Python per-memory cost (plan construction, per-block array dispatch)
once per instance per element if each memory were swept on its own.  This
tier removes that multiplier:

* the **geometry-bucketing planner** (:func:`geometry_buckets`,
  :func:`plan_session_buckets`) groups the vector-capable memories of a
  bank by ``(words, bits)``;
* each bucket is packed into one stacked ``(n_mem, words, lanes)`` uint64
  array (:func:`repro.engine.packing.pack_bank`) and every march element
  is applied to the whole stack as single fleet-wide ops -- one write
  assignment and one compare per operation per wrap-around block,
  regardless of how many SRAMs share the geometry;
* element plans are built once per bucket instead of once per memory
  (plans are pure functions of the widths, see
  :func:`repro.engine.session.session_step_plans`) and cached across
  campaigns sharing a (march, geometry) pair;
* *analytically evaluable* cell faults -- the deterministic kinds
  (stuck-at, transition, read/write-disturb, NWRC-weak, inter-word
  coupling) plus the stateful-but-closed-form ones (counter-based
  intermittent/soft-error upsets, retention decay with its analytic
  visit clock) -- are lowered into a compiled fault table
  (:mod:`repro.engine.fault_table`) and evaluated fleet-wide as masked
  vector ops inside the same block decomposition -- the dense-defect fast
  path;
* the remaining fault-hooked words keep the behavioural replay of
  :func:`repro.engine.kernel.replay_dirty_positions` -- exact sweep order
  and clocking per memory -- so the mechanisms with genuinely sequential
  state (intra-word coupling, faults sharing a cell) observe
  reference-identical times.  Session wrap-around is handled by the
  block decomposition itself.

:func:`run_bucket` is that loop for one bucket and one plan list.  Full
diagnosis sessions (:func:`run_batched_session`, dispatched from
:func:`repro.engine.session.run_session`) call it once per geometry
bucket; a raw :meth:`BatchedBackend.run` march is a bucket of one.  The
result is bit-exact against the reference (validated by the differential
fuzz matrix) while the Python overhead amortizes over the bucket
population.

No failing read becomes a ``FailureRecord`` on this path.  The clean
and table lanes hand each read op's mismatches over as arrays (member,
sweep position, row, observed ``(n, lanes)`` words) and the replay lane
its scalar hits; :class:`BucketFailures` sorts them once per bucket into the
reference's order and splits them into one
:class:`~repro.core.report.FailureLog` per memory.  Scoring, localization
and repair read those columns with numpy; records are built only when a
log is iterated, indexed, compared or printed.

The baseline's iterate-repair sparse serial replay
(:mod:`repro.engine.baseline_session`) also selects on this backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.report import (
    FailureColumns,
    FailureLog,
    ProposedReport,
    StepLabels,
)
from repro.core.scheme import FastDiagnosisScheme
from repro.ecc.vector import BucketEcc
from repro.engine.backends import (
    MarchBackend,
    ReferenceBackend,
    register_backend,
    vector_capable,
)
from repro.engine.fault_table import TableEvaluator, lower_bucket
from repro.engine.kernel import (
    CleanWordTracker,
    ElementPlan,
    OpPlan,
    replay_dirty_positions,
    sync_clean_rows,
)
from repro.engine.packing import (
    HAVE_NUMPY,
    np,
    pack_bank,
    pack_state,
    require_numpy,
    word_to_lanes,
)
from repro.engine.session import (
    _run_memory_session,
    begin_session,
    finalize_memory_counters,
    finish_session,
    session_step_plans,
)
from repro.march.algorithm import MarchAlgorithm, PauseStep
from repro.march.element import AddressOrder
from repro.march.simulator import MarchResult
from repro.memory.sram import SRAM
from repro.telemetry.core import tracer as _tracer
from repro.util.validation import require


class BatchedBackend(MarchBackend):
    """The vector backend: geometry buckets swept as one stacked array.

    A raw single-memory march run is a bucket of one through
    :func:`run_bucket`; selecting it for a session (``run_session`` /
    campaigns / fleets) stacks every same-geometry memory of the bank
    (:func:`run_batched_session`).  Configurations the vector path cannot
    represent delegate to the reference simulator.
    """

    name = "batched"

    def __init__(self, stop_on_first_failure: bool = False) -> None:
        # Selecting this backend *explicitly* without numpy is an error;
        # only the "auto" selector degrades silently.
        require_numpy("the batched march backend")
        #: Early-stop semantics change mid-element side effects, so the
        #: vector path refuses them and delegates to the reference.
        self.stop_on_first_failure = stop_on_first_failure
        self._fallback = ReferenceBackend(stop_on_first_failure)

    @classmethod
    def is_available(cls) -> bool:
        return HAVE_NUMPY

    def supports(self, memory: SRAM) -> bool:
        return not self.stop_on_first_failure and vector_capable(memory)

    def supports_baseline(self, memory: SRAM) -> bool:
        # The sparse serial replay assumes an ideal address/column path and
        # no access tracing; early-stop has no serial-path meaning, so it
        # does not disqualify a memory here.
        return vector_capable(memory)

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        if not self.supports(memory):
            return self._fallback.run(memory, algorithm)
        require(
            algorithm.bits == memory.bits,
            f"algorithm width {algorithm.bits} != memory width {memory.bits}",
        )
        result = MarchResult(algorithm.name, memory.name)
        start_cycles = memory.timebase.cycles
        start_ns = memory.now_ns
        (result.failures,) = run_bucket(
            [memory], raw_step_plans(algorithm, memory.words)
        )
        result.cycles = memory.timebase.cycles - start_cycles
        result.elapsed_ns = memory.now_ns - start_ns
        return result


def raw_step_plans(
    algorithm: MarchAlgorithm, words: int
) -> list[PauseStep | ElementPlan]:
    """Resolve a raw march (no SPC/PSC, one tick per access) into plans.

    Raw runs sweep the memory's own ``words``, so nothing wraps and the
    expected word of a read is its background word in both halves.
    """
    bits = algorithm.bits
    plans: list[PauseStep | ElementPlan] = []
    for step_index, step in enumerate(algorithm.steps):
        if isinstance(step, PauseStep):
            plans.append(step)
            continue
        element = step.element
        ops = []
        for op in element.operations:
            word = op.word_for(step.background, bits)
            ops.append(
                OpPlan(
                    op=op,
                    operation=op.notation(),
                    write_word=None if op.is_read else word,
                    expected_plain=word if op.is_read else None,
                    expected_wrapped=word if op.is_read else None,
                    tick_cost=1,
                )
            )
        plans.append(
            ElementPlan(
                step_index=step_index,
                step_label=step.label or element.notation(),
                record_background=step.background,
                deliver_ticks=0,
                ascending=element.order is not AddressOrder.DOWN,
                sweep_length=words,
                ops=tuple(ops),
            )
        )
    return plans


# --------------------------------------------------------------------- #
# Geometry-bucketing planner                                            #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GeometryBucket:
    """One same-geometry group of bank positions."""

    words: int
    bits: int
    indices: tuple[int, ...]


def geometry_buckets(geometries) -> dict[tuple[int, int], list[int]]:
    """Group indices of ``(words, bits)``-shaped entries by geometry.

    Accepts anything with ``words``/``bits`` attributes (geometries,
    SRAMs).  Bucket order follows first appearance, so planning is
    deterministic for a given bank order.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for index, geometry in enumerate(geometries):
        buckets.setdefault((geometry.words, geometry.bits), []).append(index)
    return buckets


def plan_session_buckets(bank) -> tuple[list[GeometryBucket], list[int]]:
    """Split a bank into batched geometry buckets and fallback positions.

    Memories the vector path cannot represent (access tracing, decoder or
    column-mux faults) fall back to the per-memory session path; everyone
    else joins the bucket of its geometry, single-memory buckets included
    (a stack of one is still the vector path, just without amortization).
    """
    capable: list[int] = []
    fallback: list[int] = []
    for index, memory in enumerate(bank):
        if vector_capable(memory):
            capable.append(index)
        else:
            fallback.append(index)
    grouped = geometry_buckets([bank[index] for index in capable])
    buckets = [
        GeometryBucket(words, bits, tuple(capable[i] for i in members))
        for (words, bits), members in grouped.items()
    ]
    return buckets, fallback


# --------------------------------------------------------------------- #
# Stacked session execution                                             #
# --------------------------------------------------------------------- #
def run_batched_session(scheme: FastDiagnosisScheme) -> ProposedReport:
    """Run one diagnosis session with geometry-bucketed stacked sweeps.

    Produces the same :class:`~repro.core.report.ProposedReport` as the
    reference, bit for bit (failure records in identical order, cycle and
    time accounting included).
    """
    algorithm, report, deliveries, nwrc_ops = begin_session(scheme)
    reads_per_word = algorithm.reads_per_word()
    buckets, fallback = plan_session_buckets(scheme.bank)
    logs = {}
    for bucket in buckets:
        memories = [scheme.bank[index] for index in bucket.indices]
        ecc = None
        if scheme.ecc is not None:
            ecc = BucketEcc(
                bucket.bits,
                [scheme.ecc_observers[memory.name] for memory in memories],
            )
        plans = session_step_plans(scheme, memories[0], algorithm)
        for memory, failures in zip(memories, run_bucket(memories, plans, ecc)):
            logs[memory.name] = failures
    for index in fallback:
        memory = scheme.bank[index]
        logs[memory.name] = _run_memory_session(scheme, memory, algorithm)
    for memory in scheme.bank:
        report.failures[memory.name] = logs[memory.name]
        finalize_memory_counters(
            scheme, memory, logs[memory.name], reads_per_word
        )
    return finish_session(scheme, report, deliveries, nwrc_ops)


class BucketSweep:
    """Per-bucket sweep geometry, resolved once for a whole session.

    Every element of a session sweeps the same controller address span,
    so the position/local-row maps (one per direction) and each memory's
    dirty sweep positions (dirty masks are static within a session) are
    computed here exactly once instead of once per element per memory.
    """

    def __init__(self, words: int, sweep: int, dirty_masks) -> None:
        self.words = words
        self.sweep = sweep
        positions = np.arange(sweep)
        self.positions = positions
        descending = (sweep - 1) - positions
        self.local_rows = {
            True: positions % words if sweep != words else positions,
            False: descending % words if sweep != words else descending,
        }
        self.dirty_positions = {
            ascending: [
                positions[dirty_masks[member][rows]].tolist()
                for member in range(dirty_masks.shape[0])
            ]
            for ascending, rows in self.local_rows.items()
        }
        # Row -> in-block offset for *full* blocks.  Full blocks all start
        # at a multiple of ``words``, so the offset of a row inside the
        # block is direction-dependent but block-independent: a row's
        # sweep position is ``block_start + offset``.
        rows = np.arange(words)
        self.full_block_offsets = {
            True: rows,
            False: (sweep - 1 - rows) % words,
        }


class _TimedEvaluator:
    """:class:`TableEvaluator` proxy attributing its time to the table lane.

    Brackets every evaluator call with the monotonic clock, accumulating
    into ``lane.table.ns`` (and counting each block's visited table rows
    into ``lane.table.words``), so the vector section's remainder is the
    clean lane's share.  Constructed only when telemetry is enabled; the
    normal path keeps the bare evaluator.
    """

    __slots__ = ("_inner", "_counters")

    def __init__(self, inner: TableEvaluator, counters) -> None:
        self._inner = inner
        self._counters = counters

    @property
    def needs_timing(self) -> bool:
        return self._inner.needs_timing

    def start_element(
        self, plan, write_lanes_per_op, base_now=None, periods=None
    ) -> None:
        started = time.perf_counter_ns()
        self._inner.start_element(plan, write_lanes_per_op, base_now, periods)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)

    def start_block(self, plan, block_start, block_len):
        started = time.perf_counter_ns()
        ctx = self._inner.start_block(plan, block_start, block_len)
        counters = self._counters
        counters.add("lane.table.ns", time.perf_counter_ns() - started)
        counters.add("lane.table.words", int(ctx.idx.size))
        return ctx

    def read_op(self, ctx, expected_lanes, op_index=0):
        started = time.perf_counter_ns()
        hits = self._inner.read_op(ctx, expected_lanes, op_index)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)
        return hits

    def prepare_write(self, ctx, write_lanes, is_nwrc, op_index=0):
        started = time.perf_counter_ns()
        corrected = self._inner.prepare_write(ctx, write_lanes, is_nwrc, op_index)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)
        return corrected

    def commit_write(self, ctx, corrected) -> None:
        started = time.perf_counter_ns()
        self._inner.commit_write(ctx, corrected)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)

    def end_block(self, ctx) -> None:
        started = time.perf_counter_ns()
        self._inner.end_block(ctx)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)


class BucketFailures:
    """The failing reads of one bucket session, gathered as numpy chunks.

    The vector lanes hand over one chunk of arrays per read op and block
    (members, sweep positions, rows, observed ``(n, lanes)`` words, with
    the op's expected lanes shared); the scalar replay lane hands over its
    hit tuples.  :meth:`logs` sorts everything once into the reference's
    order -- member, step, sweep position, op -- and splits the columns
    into one :class:`~repro.core.report.FailureLog` per member.  A bucket
    without failing reads builds no arrays at all.
    """

    __slots__ = ("lanes", "_chunks", "_replay")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self._chunks: list[tuple] = []
        self._replay: list[tuple] = []

    def add(
        self, step, op, members, positions, rows, expected_lanes, observed
    ) -> None:
        """One vector read op's mismatches."""
        self._chunks.append(
            (step, op, members, positions, rows, expected_lanes, observed)
        )

    def add_replay(self, step: int, member: int, hits) -> None:
        """Replay-lane ``(position, op, row, expected, observed)`` hits."""
        self._replay.extend((step, member) + hit for hit in hits)

    def logs(
        self, memories: list[SRAM], steps: dict[int, StepLabels]
    ) -> list[FailureLog]:
        """One reference-ordered failure log per member."""
        if not self._chunks and not self._replay:
            return [
                FailureLog.from_records(memory.name, memory.bits, ())
                for memory in memories
            ]
        parts = []
        if self._chunks:
            step, op, members, positions, rows, expected, observed = zip(*self._chunks)
            counts = [len(chunk) for chunk in members]
            parts.append(
                (
                    np.repeat(step, counts),
                    np.repeat(op, counts),
                    np.concatenate(members),
                    np.concatenate(positions),
                    np.concatenate(rows),
                    np.repeat(np.stack(expected), counts, axis=0),
                    np.concatenate(observed),
                )
            )
        if self._replay:
            step, members, positions, op, rows, expected, observed = zip(*self._replay)
            parts.append(
                (
                    np.array(step),
                    np.array(op),
                    np.array(members),
                    np.array(positions),
                    np.array(rows),
                    pack_state(expected, self.lanes),
                    pack_state(observed, self.lanes),
                )
            )
        step, op, members, positions, rows, expected, observed = (
            np.concatenate(column) if len(parts) > 1 else column[0]
            for column in zip(*parts)
        )
        order = np.lexsort((op, positions, step, members))
        step, op, rows = step[order], op[order], rows[order]
        expected, observed = expected[order], observed[order]
        bounds = np.searchsorted(members[order], np.arange(len(memories) + 1)).tolist()
        return [
            FailureLog(
                memory.name,
                memory.bits,
                steps,
                FailureColumns(
                    step[lo:hi],
                    op[lo:hi],
                    rows[lo:hi],
                    expected[lo:hi],
                    observed[lo:hi],
                ),
            )
            for memory, lo, hi in zip(memories, bounds, bounds[1:])
        ]


def run_bucket(
    memories: list[SRAM],
    plans: list[PauseStep | ElementPlan],
    ecc: "BucketEcc | None" = None,
) -> list[FailureLog]:
    """Run every step of ``plans`` over one stacked geometry bucket.

    ``memories`` share one ``(words, bits)`` geometry and are all
    vector-capable; every element plan carries the same
    ``sweep_length`` (the controller's word count in a session, the
    memory's own in a raw run).  ``ecc`` is the bucket's stacked SEC-DED
    decoder or ``None`` for raw observation.  Returns one
    reference-ordered :class:`~repro.core.report.FailureLog` per memory;
    packed state is synced back into the memory objects before
    returning.
    """
    elements = [plan for plan in plans if not isinstance(plan, PauseStep)]
    if not elements:
        # Nothing reads or writes: the steps are pure waiting.
        for plan in plans:
            for memory in memories:
                memory.pause(plan.duration_ns)
        return BucketFailures(1).logs(memories, {})
    sweep_length = elements[0].sweep_length
    require(
        all(plan.sweep_length == sweep_length for plan in elements),
        "every element plan of a bucket run must share one sweep length",
    )
    states, _, _, lanes = pack_bank(memories)
    # Three-way row partition: ideal rows take the block-op path, rows
    # whose faults all lower take the compiled-table path, and the rest
    # keep the behavioural replay lane.
    lanes_split = lower_bucket(memories)
    sweep = BucketSweep(memories[0].words, sweep_length, lanes_split.replay_masks)
    evaluator = (
        TableEvaluator(lanes_split.table, sweep, states, ecc)
        if lanes_split.table is not None
        else None
    )
    tr = _tracer()
    if tr.enabled:
        counters = tr.counters
        counters.add("bucket.sessions")
        counters.add("bucket.memories", len(memories))
        counters.add("bucket.replay_rows", int(lanes_split.replay_masks.sum()))
        counters.add("bucket.table_rows", int(lanes_split.table_masks.sum()))
        counters.add("bucket.clean_rows", int(lanes_split.clean_masks.sum()))
        if evaluator is not None:
            evaluator = _TimedEvaluator(evaluator, counters)
    failures = BucketFailures(lanes)
    tracker = CleanWordTracker()
    for plan in plans:
        if isinstance(plan, PauseStep):
            for memory in memories:
                memory.pause(plan.duration_ns)
            continue
        element_args = (
            memories,
            states,
            lanes_split.clean_masks,
            plan,
            lanes,
            sweep,
            failures,
            evaluator,
            tracker,
            ecc,
        )
        if tr.enabled:
            with tr.span(
                "march.element",
                "march",
                step=plan.step_label,
                memories=len(memories),
            ):
                run_element_batched(*element_args)
        else:
            run_element_batched(*element_args)
    if lanes_split.table is not None:
        # Multi-session flows (test -> repair -> retest) reuse fault
        # objects: hand the advanced draw counters / decay clocks back so
        # the next session resumes the decision sequences exactly.
        lanes_split.table.sync_fault_state()
    vector_masks = lanes_split.vector_masks
    for member, memory in enumerate(memories):
        sync_clean_rows(memory, states[member], vector_masks[member])
    return failures.logs(
        memories, {plan.step_index: plan.labels for plan in elements}
    )


def run_element_batched(
    memories: list[SRAM],
    states,
    clean_masks,
    plan: ElementPlan,
    lanes: int,
    sweep_plan: BucketSweep,
    failures: BucketFailures,
    evaluator: "TableEvaluator | None" = None,
    tracker: CleanWordTracker | None = None,
    ecc: "BucketEcc | None" = None,
) -> None:
    """Execute one element over a same-geometry stack of memories.

    ``states`` is the packed ``(n_mem, words, lanes)`` array --
    authoritative for clean and fault-table rows (behavioural-replay rows
    live in the memory objects).  ``evaluator`` is the bucket's compiled
    fault table (:mod:`repro.engine.fault_table`), evaluated inside the
    same block decomposition as the clean rows; ``tracker`` (one per
    bucket session) skips clean compares that provably cannot mismatch.
    ``ecc`` (the bucket's stacked SEC-DED decoder, also held by the
    evaluator) filters clean-path mismatches through the on-die
    correction.  Every lane's failing reads go into ``failures``.
    """
    words = sweep_plan.words
    sweep = sweep_plan.sweep
    ops = plan.ops
    per_address = plan.per_address_ticks
    step = plan.step_index

    positions = sweep_plan.positions
    local_rows = sweep_plan.local_rows[plan.ascending]
    dirty_positions = sweep_plan.dirty_positions[plan.ascending]

    # Retention entries need each member's element-start wall clock and
    # cycle period, captured *before* the replay loop below advances the
    # time bases to end-of-element.  The expression mirrors the replay
    # lane's ``tick(deliver_ticks)`` float arithmetic exactly.
    base_now = periods = None
    if evaluator is not None and evaluator.needs_timing:
        base_now = np.array(
            [
                memory.timebase.now_ns
                + plan.deliver_ticks * memory.timebase.period_ns
                for memory in memories
            ],
            dtype=np.float64,
        )
        periods = np.array(
            [memory.timebase.period_ns for memory in memories], dtype=np.float64
        )

    tr = _tracer()
    telem = tr.enabled
    if telem:
        counters = tr.counters
        clean_total = int(clean_masks.sum())
        replay_started = time.perf_counter_ns()

    # Replay rows: per-memory behavioural replay in exact sweep order and
    # time; every other row's share of each schedule is pure clocking.
    for member, memory in enumerate(memories):
        timebase = memory.timebase
        if plan.deliver_ticks:
            timebase.tick(plan.deliver_ticks)
        base_cycles = timebase.cycles
        if dirty_positions[member]:
            failures.add_replay(
                step,
                member,
                replay_dirty_positions(
                    memory,
                    plan,
                    dirty_positions[member],
                    base_cycles,
                    per_address,
                    ecc.observers[member] if ecc is not None else None,
                ),
            )
        timebase.tick(base_cycles + sweep * per_address - timebase.cycles)

    if telem:
        vector_started = time.perf_counter_ns()
        replay_words = sum(len(member) for member in dirty_positions)
        counters.add("lane.replay.ns", vector_started - replay_started)
        counters.add("lane.replay.words", replay_words)
        table_ns_before = counters.get("lane.table.ns")
        table_words_before = counters.get("lane.table.words")

    # Clean and table rows: fleet-wide vector ops, block-wise so
    # wrap-around revisits never touch a row twice inside one
    # assignment/compare.  Mismatches leave as array chunks; no
    # per-read Python runs here.
    write_lanes_per_op = [
        None if op_plan.op.is_read else word_to_lanes(op_plan.write_word, lanes)
        for op_plan in ops
    ]
    if evaluator is not None:
        evaluator.start_element(plan, write_lanes_per_op, base_now, periods)
    if clean_masks.any() or evaluator is not None:
        # A full block visits every row exactly once, so the whole slab
        # can be addressed in natural row order; rows map back to sweep
        # positions through the precomputed offsets.
        offsets = sweep_plan.full_block_offsets[plan.ascending]
        for block_start in range(0, sweep, words):
            block_end = min(block_start + words, sweep)
            wrapped = block_start >= words
            full = block_end - block_start == words
            block_rows = local_rows[block_start:block_end]
            block_positions = positions[block_start:block_end]
            ctx = (
                evaluator.start_block(plan, block_start, block_end - block_start)
                if evaluator is not None
                else None
            )
            if telem:
                block_clean = (
                    clean_total if full else int(clean_masks[:, block_rows].sum())
                )
            for op_index, op_plan in enumerate(ops):
                if op_plan.op.is_read:
                    expected = (
                        op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                    )
                    expected_lanes = None
                    if tracker is None or tracker.value != expected:
                        expected_lanes = word_to_lanes(expected, lanes)
                        if full:
                            mismatch = (states != expected_lanes).any(axis=2)
                            mismatch &= clean_masks
                        else:
                            mismatch = (states[:, block_rows] != expected_lanes).any(
                                axis=2
                            )
                            mismatch &= clean_masks[:, block_rows]
                        if telem:
                            counters.add("clean.compares_done", block_clean)
                    else:
                        mismatch = None
                        if telem:
                            counters.add("clean.compares_skipped", block_clean)
                    if mismatch is not None and mismatch.any():
                        members, hits = np.nonzero(mismatch)
                        if full:
                            rows = hits
                            hit_positions = block_start + offsets[hits]
                        else:
                            rows = block_rows[hits]
                            hit_positions = block_positions[hits]
                        observed = states[members, rows]
                        if ecc is not None:
                            kept, observed = ecc.correct_rows(
                                members, rows, observed, expected_lanes
                            )
                            members = members[kept]
                            hit_positions, rows = hit_positions[kept], rows[kept]
                        if len(members):
                            failures.add(
                                step, op_index, members, hit_positions, rows,
                                expected_lanes, observed,
                            )
                    if ctx is not None:
                        if expected_lanes is None:
                            expected_lanes = word_to_lanes(expected, lanes)
                        hits = evaluator.read_op(ctx, expected_lanes, op_index)
                        if hits is not None:
                            members, hit_positions, rows, observed = hits
                            failures.add(
                                step, op_index, members, hit_positions, rows,
                                expected_lanes, observed,
                            )
                else:
                    # Replay rows are never read from the packed state and
                    # never synced back, so writing the whole block (or
                    # slab) is safe and avoids a mask gather per memory;
                    # table rows are re-published right after with their
                    # fault-corrected values.
                    write_lanes = write_lanes_per_op[op_index]
                    corrected = (
                        evaluator.prepare_write(
                            ctx, write_lanes, op_plan.op.is_nwrc, op_index
                        )
                        if ctx is not None
                        else None
                    )
                    if full:
                        states[:] = write_lanes
                    else:
                        states[:, block_rows] = write_lanes
                    if tracker is not None:
                        tracker.value = op_plan.write_word
                    if ctx is not None:
                        evaluator.commit_write(ctx, corrected)
            if ctx is not None:
                evaluator.end_block(ctx)

    if telem:
        # The vector section's time minus the evaluator's accumulated
        # share is the clean lane's; the word balance mirrors it.
        vector_ns = time.perf_counter_ns() - vector_started
        table_ns = counters.get("lane.table.ns") - table_ns_before
        table_words = counters.get("lane.table.words") - table_words_before
        counters.add("lane.clean.ns", max(0, vector_ns - table_ns))
        counters.add(
            "lane.clean.words",
            sweep * len(memories) - replay_words - table_words,
        )


register_backend("batched", BatchedBackend)
