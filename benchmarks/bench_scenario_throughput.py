"""Scenario-engine throughput and backend-parity measurements.

Emits one JSON document so future PRs can track the trajectory::

    PYTHONPATH=src python benchmarks/bench_scenario_throughput.py [--quick]

The headline measurements:

* **flow parity speedup** -- one full clustered-defect production flow
  (test -> repair -> retest -> burn-in with intermittent faults) run on
  the reference and batched backends with identical seeds; the reports are
  asserted equal (failures, stages, escape accounting) before the ratio
  is reported.
* **scenario fleet throughput** -- flow campaigns/sec through the fleet
  scheduler, plus the scenario aggregates of the run (escape rate,
  retest convergence, intermittent detection).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import time

from repro.scenarios import ScenarioSpec, run_scenario_campaign, run_scenario_fleet


def base_spec(quick: bool) -> ScenarioSpec:
    """The measured scenario configuration."""
    return ScenarioSpec(
        soc="buffer-cluster",
        campaigns=2 if quick else 16,
        base_defect_rate=0.003,
        cluster_count=2,
        cluster_radius=30.0,
        cluster_peak_rate=0.015,
        intermittent_rate=0.002,
        upset_probability=0.3,
        spares_per_memory=64,
        master_seed=2005,
    )


def measure_flow_parity(spec: ScenarioSpec):
    """Time one identical flow campaign on both backends, assert parity."""
    reference_spec = dataclasses.replace(spec, backend="reference")
    batched_spec = dataclasses.replace(spec, backend="batched")

    started = time.perf_counter()
    reference = run_scenario_campaign(reference_spec, 0)
    reference_s = time.perf_counter() - started

    started = time.perf_counter()
    fast = run_scenario_campaign(batched_spec, 0)
    fast_s = time.perf_counter() - started

    assert reference.proposed.failures == fast.proposed.failures, (
        "scenario flows diverged: proposed failures"
    )
    assert reference.stages == fast.stages, "scenario flows diverged: stages"
    assert reference.escaped_faults == fast.escaped_faults, (
        "scenario flows diverged: escapes"
    )
    assert reference.intermittent_detected == fast.intermittent_detected, (
        "scenario flows diverged: intermittent detection"
    )
    return {
        "injected_faults": reference.injected_faults,
        "retest_rounds": reference.retest_rounds,
        "retest_converged": reference.retest_converged,
        "reference_s": reference_s,
        "batched_s": fast_s,
        "speedup": reference_s / fast_s,
        "bit_identical": True,
    }


def measure_fleet_throughput(spec: ScenarioSpec, workers: int):
    """Flow campaigns/sec through the scenario fleet scheduler."""
    started = time.perf_counter()
    report = run_scenario_fleet(spec, workers=workers)
    elapsed = time.perf_counter() - started
    return {
        "campaigns": report.campaigns,
        "workers": workers,
        "elapsed_s": elapsed,
        "campaigns_per_sec": report.campaigns / elapsed if elapsed else 0.0,
        "mean_assigned_rate": (
            report.assigned_rate.mean if report.assigned_rate.count else None
        ),
        "mean_escape_rate": (
            report.escape_rate.mean if report.escape_rate.count else None
        ),
        "retest_convergence": report.retest_convergence,
        "intermittent_detection_rate": report.intermittent_detection_rate,
        "measured_r_mean": report.reduction.mean if report.reduction.count else None,
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

    spec = base_spec(args.quick)
    workers = max(1, (os.cpu_count() or 2) - 1)
    results = {
        "spec": spec.to_dict(),
        "flow_parity": measure_flow_parity(spec),
        "fleet_throughput": measure_fleet_throughput(spec, workers),
    }
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
