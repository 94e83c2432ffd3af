"""Batched vector path throughput against the reference oracle.

Thin wrapper over :mod:`repro.analysis.bench` (the measurement library
behind ``repro bench``).  Emits one JSON document (save it as
``BENCH_fault_tables.json`` to track the performance trajectory; the
pre-fault-table curve is frozen in ``BENCH_batched.json``)::

    PYTHONPATH=src python benchmarks/bench_batched_fleet.py [--quick] [--out PATH]

The headline measurement times the proposed-scheme diagnosis session of a
**256-SRAM mixed-geometry campaign** (the case-study SoC scaled to fleet
size) on the batched backend (best of the repeats) and once on the
reference backend on identical seeds, asserting the reports bit-identical
before reporting the ratio.  Bank construction and fault injection are
outside the timed region.

Regimes
-------
The batched path amortizes the per-memory Python cost across every
memory of a geometry bucket and evaluates lowerable fault populations
(deterministic, counter-based intermittent/soft-error and analytic
retention decay) as masked vector ops from the compiled fault table
(:mod:`repro.engine.fault_table`).  All three regimes -- **screening**
(mostly clean words), **diagnostic** (dense failing populations) and
**heavy-diagnostic** -- are gated on their reference/batched ratio; see
:data:`repro.analysis.bench.BATCHED_REGIMES` for the floors and how they
were derived.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.bench import (
    batched_fleet_gate_failures,
    measure_batched_fleet,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs (32 SRAMs, 1 repeat, "
        "parity asserted but the speedup targets not enforced)",
    )
    parser.add_argument("--out", help="also write the JSON to this path")
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="also run one instrumented session per regime (outside the "
        "timed loop) and record per-lane time/word attribution",
    )
    args = parser.parse_args(argv)

    if args.quick:
        results = measure_batched_fleet(
            memories=32, repeats=1, warmup=False, telemetry=args.telemetry
        )
    else:
        results = measure_batched_fleet(telemetry=args.telemetry)
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

    if not args.quick:
        failures = batched_fleet_gate_failures(results)
        for failure in failures:
            print(f"WARNING: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
