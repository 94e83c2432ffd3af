"""Property-based invariants of the baseline session runner.

Three paper-level properties of the iterate-repair flow, checked on the
engine's runner (:func:`repro.engine.baseline_session.run_baseline_session`):

* **R >= 1** -- for any faulty memory in the practical geometry range the
  baseline's measured diagnosis time is at least the proposed scheme's
  (Eq. (3)'s premise; the bound genuinely needs "practical" geometries --
  for degenerate shapes with ``c >> n`` the proposed scheme's background
  extension can exceed a one-iteration baseline).
* **k is monotone** -- injecting additional faults never decreases the
  iteration count the baseline needs.
* **early-abort invariance** -- skipping the provably unproductive
  trailing iterations (only serially invisible faults pending) never
  changes the diagnosed fault set, and can only lower the iteration
  count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.scheme import HuangJoneScheme
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.baseline_session import run_baseline_session
from repro.engine.session import run_session
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM

#: Practical geometry range: word-dominated shapes as in distributed
#: e-SRAM buffers.  Keeps the bit-accurate replay fast *and* keeps R >= 1
#: meaningful (see module docstring).
practical_geometries = st.builds(
    MemoryGeometry,
    st.integers(min_value=8, max_value=24),
    st.integers(min_value=2, max_value=8),
    st.just("prop-bl"),
)


@st.composite
def geometry_and_faults(draw, min_faults=1, max_faults=6):
    """A geometry plus distinct-cell localizable/retention faults."""
    geometry = draw(practical_geometries)
    count = draw(st.integers(min_value=min_faults, max_value=max_faults))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=geometry.words - 1),
                st.integers(min_value=0, max_value=geometry.bits - 1),
            ),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    kinds = draw(
        st.lists(
            st.sampled_from(["saf0", "saf1", "tf-up", "tf-down", "drf"]),
            min_size=count,
            max_size=count,
        )
    )
    return geometry, list(zip(cells, kinds))


def make_faults(spec):
    faults = []
    for (word, bit), kind in spec:
        cell = CellRef(word, bit)
        if kind == "saf0":
            faults.append(StuckAtFault(cell, value=0))
        elif kind == "saf1":
            faults.append(StuckAtFault(cell, value=1))
        elif kind == "tf-up":
            faults.append(TransitionFault(cell, rising=True))
        elif kind == "tf-down":
            faults.append(TransitionFault(cell, rising=False))
        else:
            faults.append(DataRetentionFault(cell, fragile_value=1))
    return faults


def faulty_memory(geometry, fault_spec):
    memory = SRAM(geometry)
    injector = FaultInjector()
    injector.inject(memory, make_faults(fault_spec))
    return memory, injector


class TestReductionFactor:
    @settings(max_examples=25, deadline=None)
    @given(geometry_and_faults())
    def test_r_at_least_one_for_any_faulty_memory(self, case):
        geometry, fault_spec = case
        baseline_memory, baseline_injector = faulty_memory(geometry, fault_spec)
        proposed_memory, _ = faulty_memory(geometry, fault_spec)
        baseline = run_baseline_session(
            HuangJoneScheme(MemoryBank([baseline_memory])),
            baseline_injector,
            backend="auto",
            bit_accurate=True,
        )
        proposed = run_session(
            FastDiagnosisScheme(MemoryBank([proposed_memory])), backend="auto"
        )
        assert baseline.iterations >= 1
        assert baseline.time_ns / proposed.time_ns >= 1.0


class TestIterationMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(geometry_and_faults(min_faults=2, max_faults=8), st.data())
    def test_k_monotone_in_fault_count(self, case, data):
        geometry, fault_spec = case
        prefix_size = data.draw(
            st.integers(min_value=1, max_value=len(fault_spec) - 1)
        )

        def iterations(spec):
            memory, injector = faulty_memory(geometry, spec)
            report = run_baseline_session(
                HuangJoneScheme(MemoryBank([memory])),
                injector,
                backend="auto",
                include_drf=True,
            )
            return report.iterations

        assert iterations(fault_spec[:prefix_size]) <= iterations(fault_spec)


class TestEarlyAbortInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**20),
        st.floats(min_value=0.01, max_value=0.08),
    )
    def test_early_abort_never_changes_diagnosed_set(self, seed, defect_rate):
        geometry = MemoryGeometry(16, 6, "prop-ea")

        def run(early_abort):
            memory = SRAM(geometry)
            injector = FaultInjector()
            injector.inject(
                memory, sample_population(geometry, defect_rate, rng=seed).faults
            )
            return run_baseline_session(
                HuangJoneScheme(MemoryBank([memory])),
                injector,
                backend="batched",
                bit_accurate=True,
                early_abort=early_abort,
            )

        exact = run(early_abort=False)
        aborted = run(early_abort=True)
        assert aborted.localized == exact.localized
        assert [(n, f.describe()) for n, f in aborted.missed] == [
            (n, f.describe()) for n, f in exact.missed
        ]
        assert aborted.iterations <= exact.iterations
