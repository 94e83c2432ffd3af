"""Engine throughput: batched backend speedup and fleet campaigns/sec.

Thin wrapper over :mod:`repro.analysis.bench` (the measurement library
behind ``repro bench``).  Emits one JSON document so future PRs can track
the performance trajectory::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--quick]

The headline measurements:

* **backend speedup** -- one full diagnosis campaign (inject -> diagnose ->
  repair -> verify, baseline included) on a 64-SRAM case-study SoC, run
  with the reference backend and with the batched backend on identical
  seeds.  Results are asserted equal before the ratio is reported, so the
  speedup is for *bit-identical* work.
* **fleet throughput** -- campaigns/sec of the fleet scheduler with the
  batched backend over the local worker pool (including the session
  plan-cache hit rate across campaigns).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.bench import engine_gate_failures, measure_engine_throughput


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs (8 SRAMs, 4 campaigns)",
    )
    parser.add_argument("--out", help="also write the JSON to this path")
    args = parser.parse_args(argv)

    if args.quick:
        results = measure_engine_throughput(memories=8, fleet_campaigns=4)
    else:
        results = measure_engine_throughput()
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

    if not args.quick:
        failures = engine_gate_failures(results)
        for failure in failures:
            print(f"WARNING: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
