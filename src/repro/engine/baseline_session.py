"""Fast execution of a full baseline (Huang-Jone) diagnosis session.

:meth:`repro.baseline.scheme.HuangJoneScheme.diagnose` comes in two modes.
The *effective* mode computes each iteration's localization outcome in
closed form from the ground truth -- already constant-cost, so the runner
delegates it verbatim.  The *bit-accurate* mode actually shifts every
serial cycle through the faulty memories and a fault-free twin, which is
exact but ``O(k * n * c)`` behavioural accesses per memory -- the
iterative DIAG-RSMARCH cost the paper's R measures.

``run_baseline_session`` executes that iterate-repair flow through the
same pluggable backend registry as the proposed scheme
(:mod:`repro.engine.backends`) and produces the *same*
:class:`~repro.baseline.scheme.BaselineReport` -- iteration count,
localization records (order included) and final memory state, bit for
bit.  With the batched backend, each memory whose configuration the sparse
serial kernel can represent (no decoder/column-mux faults, no tracing) is
replayed through :mod:`repro.engine.serial_kernel`: only fault-hooked
words go through the behavioural serial path, clean words are accounted
arithmetically, and the good-machine twin is replaced by its closed-form
stream.  Everything else (reference backend, unsupported memories,
effective mode) delegates to the pure-Python scheme so behaviour --
errors included -- stays identical.
"""

from __future__ import annotations

from repro.baseline.scheme import BaselineReport, HuangJoneScheme
from repro.engine.backends import MarchBackend, ReferenceBackend, resolve_backend
from repro.engine.serial_kernel import (
    expected_stream,
    serial_fill_sweep,
    serial_observe_sweep,
    sync_clean_serial_words,
)
from repro.faults.injector import FaultInjector
from repro.memory.geometry import CellRef
from repro.memory.sram import SRAM
from repro.serial.shift_register import ShiftDirection
from repro.util.bitops import checkerboard, mask
from repro.util.validation import require


def run_baseline_session(
    scheme: HuangJoneScheme,
    injector: FaultInjector,
    backend: str | MarchBackend | None = "auto",
    include_drf: bool = False,
    bit_accurate: bool = False,
    max_iterations: int | None = None,
    early_abort: bool = False,
) -> BaselineReport:
    """Run one baseline diagnosis session through the selected backend.

    With the reference backend (or in effective mode, which is already
    closed-form) this is exactly ``scheme.diagnose(...)``; with the batched
    backend the same report is produced bit-identically but per-iteration
    failure capture replays only fault-hooked words.  ``early_abort``
    (bit-accurate mode, both backends) skips the trailing no-progress
    iterations once every pending fault is serially invisible -- it can
    lower the reported iteration count but provably never changes the
    localized fault set (see
    :meth:`~repro.baseline.scheme.HuangJoneScheme.diagnose`).
    """
    from repro.engine.batched import BatchedBackend

    resolved = resolve_backend(backend)
    require(
        isinstance(resolved, (BatchedBackend, ReferenceBackend)),
        f"run_baseline_session supports the 'reference' and 'batched' "
        f"backends, got {type(resolved).__name__}",
    )
    fast = isinstance(resolved, BatchedBackend) and bit_accurate
    if not fast:
        return scheme.diagnose(
            injector,
            include_drf=include_drf,
            bit_accurate=bit_accurate,
            max_iterations=max_iterations,
            early_abort=early_abort,
        )
    return _run_fast_bit_accurate(
        scheme, resolved, injector, include_drf, max_iterations, early_abort
    )


def _run_fast_bit_accurate(
    scheme: HuangJoneScheme,
    backend: MarchBackend,
    injector: FaultInjector,
    include_drf: bool,
    max_iterations: int | None,
    early_abort: bool,
) -> BaselineReport:
    """The reference's iterate-repair session with sparse serial replay.

    Report assembly and the loop itself (iteration budget, pending/seen
    bookkeeping, repair and missed-fault accounting) all run in the
    scheme -- only the per-(memory, direction) localization probe is
    swapped for the sparse replay, so the bit-exact contract cannot
    drift structurally.
    """

    def localize(memory: SRAM, direction: ShiftDirection):
        if backend.supports_baseline(memory):
            return _localize_fast(memory, direction)
        return scheme._localize_stream_mismatch(memory, direction)

    return scheme.diagnose(
        injector,
        include_drf=include_drf,
        bit_accurate=True,
        max_iterations=max_iterations,
        early_abort=early_abort,
        localize=localize,
    )


def _localize_fast(
    memory: SRAM, read_direction: ShiftDirection
) -> CellRef | None:
    """Sparse-replay equivalent of the scheme's stream-mismatch probe.

    Runs the same three probes (solid polarities plus the checkerboard
    pair) in the same order, replaying only fault-hooked words; the
    fault-free twin of the reference is replaced by the closed-form
    expected stream, which is what the twin's sweeps reduce to.
    """
    bits = memory.bits
    ones = mask(bits)
    probes = [
        (ones, 0),
        (0, ones),
        (checkerboard(bits, phase=1), checkerboard(bits, phase=0)),
    ]
    write_direction = (
        ShiftDirection.LEFT
        if read_direction is ShiftDirection.RIGHT
        else ShiftDirection.RIGHT
    )
    found: CellRef | None = None
    last_refill = 0
    for fill_pattern, read_refill in probes:
        dirty = sorted(memory.hooked_words())
        serial_fill_sweep(memory, dirty, fill_pattern, write_direction)
        hit = serial_observe_sweep(
            memory,
            dirty,
            read_refill,
            read_direction,
            expected_stream(fill_pattern, bits, read_direction),
        )
        last_refill = read_refill
        if hit is not None:
            address, cycle = hit
            if read_direction is ShiftDirection.RIGHT:
                found = CellRef(address, bits - 1 - cycle)
            else:
                found = CellRef(address, cycle)
            break
    sync_clean_serial_words(memory, last_refill)
    return found
