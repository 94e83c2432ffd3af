"""Baseline-session equivalence: run_baseline_session == scheme.diagnose.

The fast baseline runner must reproduce the pure-Python iterate-repair
flow *exactly* -- iteration count, localization records (order included),
missed-fault list, final memory state and clocking -- across the fault
library, fallback configurations and both execution modes.
"""

from __future__ import annotations

import pytest

from repro.baseline.scheme import HuangJoneScheme
from repro.engine.backends import MarchBackend, ReferenceBackend
from repro.engine.batched import BatchedBackend
from repro.engine.baseline_session import run_baseline_session
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from tests.engine.test_backends import FAULT_LIBRARY
from tests.engine.test_backends import GEOMETRY as LIBRARY_GEOMETRY

GEOMETRY = MemoryGeometry(12, 6, "bl")


def build_sampled_bank(seed: int, defect_rate: float = 0.05):
    bank = MemoryBank(
        [SRAM(GEOMETRY), SRAM(MemoryGeometry(8, 4, "bl2"))]
    )
    injector = FaultInjector()
    for index, memory in enumerate(bank):
        population = sample_population(memory.geometry, defect_rate, rng=seed + index)
        injector.inject(memory, population.faults)
    return bank, injector


def assert_baseline_equal(reference, fast, reference_bank, fast_bank):
    assert fast.iterations == reference.iterations
    assert fast.localized == reference.localized
    assert [(name, fault.describe()) for name, fault in fast.missed] == [
        (name, fault.describe()) for name, fault in reference.missed
    ]
    assert fast.include_drf == reference.include_drf
    assert fast.controller_words == reference.controller_words
    assert fast.controller_bits == reference.controller_bits
    assert fast.cycles == reference.cycles
    assert fast.time_ns == reference.time_ns
    for reference_memory, fast_memory in zip(reference_bank, fast_bank):
        assert fast_memory.dump() == reference_memory.dump()
        assert fast_memory.timebase.cycles == reference_memory.timebase.cycles


class TestFaultLibraryEquivalence:
    """The runner is bit-exact for every cell-fault class in the library."""

    @pytest.mark.parametrize(
        "label,factory", FAULT_LIBRARY, ids=[f[0] for f in FAULT_LIBRARY]
    )
    def test_single_fault(self, label, factory):
        def build():
            memory = SRAM(LIBRARY_GEOMETRY)
            injector = FaultInjector()
            injector.inject(memory, [factory()])
            return MemoryBank([memory]), injector

        reference_bank, reference_injector = build()
        fast_bank, fast_injector = build()
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="batched",
            bit_accurate=True,
        )
        assert_baseline_equal(reference, fast, reference_bank, fast_bank)

    def test_whole_library_at_once(self):
        def build():
            memory = SRAM(LIBRARY_GEOMETRY)
            injector = FaultInjector()
            injector.inject(memory, [factory() for _, factory in FAULT_LIBRARY])
            return MemoryBank([memory]), injector

        reference_bank, reference_injector = build()
        fast_bank, fast_injector = build()
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="batched",
            bit_accurate=True,
        )
        assert reference.localized  # guard against a vacuous comparison
        assert_baseline_equal(reference, fast, reference_bank, fast_bank)


class TestBitAccurateEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_population(self, seed):
        reference_bank, reference_injector = build_sampled_bank(seed)
        fast_bank, fast_injector = build_sampled_bank(seed)
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="batched",
            bit_accurate=True,
        )
        assert_baseline_equal(reference, fast, reference_bank, fast_bank)

    def test_max_iterations_cutoff_matches(self):
        def build():
            memory = SRAM(GEOMETRY)
            injector = FaultInjector()
            injector.inject(
                memory, [StuckAtFault(CellRef(w, 1), 1) for w in range(6)]
            )
            return MemoryBank([memory]), injector

        reference_bank, reference_injector = build()
        fast_bank, fast_injector = build()
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True, max_iterations=2
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="batched",
            bit_accurate=True,
            max_iterations=2,
        )
        assert reference.iterations == 2
        assert_baseline_equal(reference, fast, reference_bank, fast_bank)

    def test_decoder_faulty_memory_falls_back_and_matches(self):
        def build():
            faulty = SRAM(GEOMETRY)
            faulty.decoder.remap_address(2, 4)
            clean = SRAM(MemoryGeometry(8, 4, "v"))
            injector = FaultInjector()
            injector.inject(faulty, [StuckAtFault(CellRef(1, 1), 1)])
            injector.inject(clean, [TransitionFault(CellRef(3, 2), rising=True)])
            return MemoryBank([faulty, clean]), injector

        assert not BatchedBackend().supports_baseline(build()[0][0])
        reference_bank, reference_injector = build()
        fast_bank, fast_injector = build()
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="batched",
            bit_accurate=True,
        )
        assert_baseline_equal(reference, fast, reference_bank, fast_bank)

    def test_fault_free_bank_localizes_nothing(self):
        bank = MemoryBank([SRAM(GEOMETRY)])
        report = run_baseline_session(
            HuangJoneScheme(bank), FaultInjector(), backend="batched", bit_accurate=True
        )
        assert report.iterations == 0
        assert report.localized == []


class TestModeAndBackendRouting:
    def test_effective_mode_delegates_identically(self):
        reference_bank, reference_injector = build_sampled_bank(1)
        fast_bank, fast_injector = build_sampled_bank(1)
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, include_drf=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank), fast_injector, backend="batched", include_drf=True
        )
        assert fast.iterations == reference.iterations
        assert fast.localized == reference.localized

    def test_reference_backend_delegates(self):
        reference_bank, reference_injector = build_sampled_bank(2)
        fast_bank, fast_injector = build_sampled_bank(2)
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        delegated = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="reference",
            bit_accurate=True,
        )
        assert_baseline_equal(reference, delegated, reference_bank, fast_bank)

    def test_custom_backend_rejected_explicitly(self):
        class Custom(MarchBackend):
            name = "custom"

        bank, injector = build_sampled_bank(3)
        with pytest.raises(ValueError, match="run_baseline_session supports"):
            run_baseline_session(HuangJoneScheme(bank), injector, backend=Custom())

    def test_supports_baseline_capability(self):
        memory = SRAM(GEOMETRY)
        assert ReferenceBackend().supports_baseline(memory)
        assert BatchedBackend().supports_baseline(memory)
        # Early-stop does not disqualify serial replay (unlike march runs).
        assert BatchedBackend(stop_on_first_failure=True).supports_baseline(memory)
        traced = SRAM(GEOMETRY, trace=True)
        assert not BatchedBackend().supports_baseline(traced)
        assert not MarchBackend().supports_baseline(memory)


class TestEarlyAbort:
    @pytest.mark.parametrize("seed", range(3))
    def test_early_abort_preserves_diagnosis(self, seed):
        exact_bank, exact_injector = build_sampled_bank(seed)
        abort_bank, abort_injector = build_sampled_bank(seed)
        exact = run_baseline_session(
            HuangJoneScheme(exact_bank), exact_injector, backend="batched",
            bit_accurate=True,
        )
        aborted = run_baseline_session(
            HuangJoneScheme(abort_bank), abort_injector, backend="batched",
            bit_accurate=True, early_abort=True,
        )
        assert aborted.iterations <= exact.iterations
        assert aborted.localized == exact.localized

    def test_early_abort_skips_the_confirming_iteration(self):
        # Once only the (serially invisible) DRF is pending, the exact run
        # burns one more full no-progress iteration; early abort skips it.
        def build():
            memory = SRAM(GEOMETRY)
            injector = FaultInjector()
            injector.inject(
                memory,
                [
                    StuckAtFault(CellRef(4, 2), 1),
                    DataRetentionFault(CellRef(8, 3), fragile_value=1),
                ],
            )
            return MemoryBank([memory]), injector

        exact_bank, exact_injector = build()
        abort_bank, abort_injector = build()
        exact = run_baseline_session(
            HuangJoneScheme(exact_bank), exact_injector, backend="batched",
            bit_accurate=True,
        )
        aborted = run_baseline_session(
            HuangJoneScheme(abort_bank), abort_injector, backend="batched",
            bit_accurate=True, early_abort=True,
        )
        assert aborted.iterations == exact.iterations - 1
        assert aborted.localized == exact.localized

    def test_early_abort_matches_reference_backend(self):
        # early_abort is honoured by both backends with identical results.
        reference_bank, reference_injector = build_sampled_bank(4)
        fast_bank, fast_injector = build_sampled_bank(4)
        reference = run_baseline_session(
            HuangJoneScheme(reference_bank), reference_injector,
            backend="reference", bit_accurate=True, early_abort=True,
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank), fast_injector,
            backend="batched", bit_accurate=True, early_abort=True,
        )
        assert_baseline_equal(reference, fast, reference_bank, fast_bank)

    def test_drf_mode_report_accounting(self):
        def build():
            memory = SRAM(GEOMETRY)
            injector = FaultInjector()
            injector.inject(
                memory,
                [
                    StuckAtFault(CellRef(0, 0), 1),
                    DataRetentionFault(CellRef(3, 3), fragile_value=1),
                ],
            )
            return MemoryBank([memory]), injector

        bank, injector = build()
        report = run_baseline_session(
            HuangJoneScheme(bank), injector, backend="batched",
            bit_accurate=True, include_drf=True,
        )
        twin_bank, twin_injector = build()
        reference = HuangJoneScheme(twin_bank).diagnose(
            twin_injector, bit_accurate=True, include_drf=True
        )
        assert report.cycles == reference.cycles
        assert report.pause_ns == reference.pause_ns
