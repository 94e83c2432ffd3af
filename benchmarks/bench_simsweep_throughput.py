"""Baseline-runner speedup and simulation-backed sweep throughput.

Emits one JSON document so future PRs can track the performance
trajectory::

    PYTHONPATH=src python benchmarks/bench_simsweep_throughput.py [--quick]

The headline measurements:

* **baseline runner speedup** -- one bit-accurate iterate-repair session
  (the iterative DIAG-RSMARCH flow) on a faulty bank, run through the
  pure-Python reference path and through the batched backend's sparse
  serial replay on identical seeds.  Reports are asserted equal before the ratio
  is reported, so the speedup is for *bit-identical* work.
* **simsweep throughput** -- campaigns/sec of the X1 defect-rate matrix
  through the fleet scheduler, plus the per-row measured-vs-analytic
  model gap (how closely simulation reproduces Eqs. (1)-(4)).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.analysis.simsweep import defect_rate_matrix, run_sim_sweep
from repro.baseline.scheme import HuangJoneScheme
from repro.engine.baseline_session import run_baseline_session
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.memory.bank import MemoryBank
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SRAM


def build_bank(shapes, defect_rate: float, seed: int):
    """A seeded faulty bank plus its injector."""
    bank = MemoryBank(
        [SRAM(MemoryGeometry(w, b, f"m{i}")) for i, (w, b) in enumerate(shapes)]
    )
    injector = FaultInjector()
    for index, memory in enumerate(bank):
        population = sample_population(memory.geometry, defect_rate, rng=seed + index)
        injector.inject(memory, population.faults)
    return bank, injector


def measure_baseline_runner(shapes, defect_rate: float, seed: int):
    """Time the bit-accurate baseline session on both backends."""
    reference_bank, reference_injector = build_bank(shapes, defect_rate, seed)
    fast_bank, fast_injector = build_bank(shapes, defect_rate, seed)

    started = time.perf_counter()
    reference = HuangJoneScheme(reference_bank).diagnose(
        reference_injector, bit_accurate=True
    )
    reference_s = time.perf_counter() - started

    started = time.perf_counter()
    fast = run_baseline_session(
        HuangJoneScheme(fast_bank), fast_injector, backend="batched", bit_accurate=True
    )
    fast_s = time.perf_counter() - started

    assert reference.iterations == fast.iterations, "baseline runners diverged: k"
    assert reference.localized == fast.localized, "baseline runners diverged: records"
    for reference_memory, fast_memory in zip(reference_bank, fast_bank):
        assert reference_memory.dump() == fast_memory.dump(), (
            "baseline runners diverged: memory state"
        )

    return {
        "shapes": [list(shape) for shape in shapes],
        "defect_rate": defect_rate,
        "iterations": reference.iterations,
        "localized": len(reference.localized),
        "reference_s": reference_s,
        "batched_s": fast_s,
        "speedup": reference_s / fast_s,
        "bit_identical": True,
    }


def measure_simsweep(rates, campaigns: int, memories: int, workers: int):
    """Time the X1 matrix through the fleet scheduler."""
    points = defect_rate_matrix(
        rates, campaigns=campaigns, memories=memories, master_seed=2005
    )
    started = time.perf_counter()
    rows = run_sim_sweep(points, workers=workers)
    elapsed = time.perf_counter() - started
    total_campaigns = sum(row.campaigns for row in rows)
    return {
        "rates": list(rates),
        "campaigns_per_point": campaigns,
        "memories": memories,
        "workers": workers,
        "elapsed_s": elapsed,
        "campaigns_per_sec": total_campaigns / elapsed if elapsed else 0.0,
        "rows": [
            {
                "point": row.label,
                "measured_r_mean": row.measured_r_mean,
                "analytic_r_drf": row.analytic_r_drf,
                "model_gap": row.model_gap,
            }
            for row in rows
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs",
    )
    parser.add_argument("--out", help="also write the JSON to this path")
    args = parser.parse_args(argv)

    if args.quick:
        shapes = [(24, 10), (16, 8)]
        rates, campaigns, memories = [0.005, 0.01], 2, 2
    else:
        shapes = [(48, 16), (32, 12), (24, 10)]
        rates, campaigns, memories = [0.001, 0.005, 0.01, 0.02, 0.05], 8, 4
    workers = max(1, (os.cpu_count() or 2) - 1)

    results = {
        "baseline_runner": measure_baseline_runner(shapes, 0.03, seed=2005),
        "simsweep_x1": measure_simsweep(rates, campaigns, memories, workers),
    }
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
