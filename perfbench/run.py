"""Repository benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-dense --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` times every layer from outside (see ``tracing.py``) and
reports the per-layer metrics, the unattributed remainder and the
tracing overhead.  Both check the program's outputs against the
reference backend and against a repeat of themselves; a mismatch prints
``"correct": false`` and exits with code 1.  The last line of standard
output is the JSON result; the lines above it print every figure with
its unit, and the full record (plus the spans of a traced run) is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CONFIG = ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 5

#: A probe imports the program and builds the workload's first inputs,
#: reading the host's speed before and after; it prints both readings.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "before = workloads.calibrate(); "
    "workloads.build(sys.argv[3], sys.argv[5] == '1').setup(int(sys.argv[4])); "
    "print(before, workloads.calibrate())"
)

E2E_UNITS = {
    "setup_s": "s",
    "raw_setup_s": "s",
    "ref_throughput_per_s": "1/s",
    "ref_cpu_s_per_item": "s",
    "throughput_per_s": "1/s",
    "cpu_s_per_item": "s",
    "host.calib_ms": "ms",
    "host.stolen_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    from tracing import LAYER_NAMES

    units = {"import_s": "s"}
    units.update({f"{layer}_s": "s" for layer in LAYER_NAMES})
    units.update(
        {
            "faults.injected": "count",
            "engine.session.plan_cache_misses": "count",
            "core.report.failing_reads": "count",
            "engine.baseline_session.iterations": "count",
            "ecc.corrected_reads": "count",
            "ecc.uncorrectable_reads": "count",
            "lane.table_s": "s",
            "lane.clean_s": "s",
            "lane.replay_s": "s",
            "table.compile_s": "s",
            "engine.checkpoint.bytes": "bytes",
            "engine.supervisor.overhead_cpu_s": "s",
            "engine.supervisor.spawns": "count",
            "run.workers": "count",
            "run.utilization_pct": "%",
            "trace.wall_s": "s",
            "unattributed_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


def reported(trace: int) -> list[str]:
    """The metrics the result line carries: those ``BENCHMARK.json`` lists.

    A traced run prints more per-layer figures than that: layer times
    that read zero on some workload (a layer it never calls) are printed
    and recorded, but left out of the result line.
    """
    config = json.loads(CONFIG.read_text())
    return [metric["name"] for metric in config["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    from workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int, tiny: bool,
                  probes: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters importing and building the inputs.

    Returns the wall times, less the probes' own calibration loops, and
    the same times scaled to the reference host speed by each probe's
    mean reading.
    """
    from workloads import CALIB_REF_S

    raw, ref = [], []
    for _ in range(probes):
        started = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR), workload,
             str(seed), "1" if tiny else "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        elapsed = time.perf_counter() - started
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr.strip()}")
        before, after = (float(x) for x in probe.stdout.split()[-2:])
        raw.append(elapsed - before - after)
        ref.append(raw[-1] * CALIB_REF_S / ((before + after) / 2))
    return raw, ref


def revision() -> dict:
    """Git revision when the tree is a checkout, plus a digest of ``src``."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        git = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_rev": git, "src_sha256": digest.hexdigest()[:16]}


def percentile_ms(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) in milliseconds."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextlib.contextmanager
def counting_retries():
    """Count chunk retries by counting the backoff delays the fleet asks for."""
    from repro.engine.supervisor import ChunkRetryPolicy

    original = ChunkRetryPolicy.delay_s
    retries = [0]

    def delay_s(self, *args, **kwargs):
        retries[0] += 1
        return original(self, *args, **kwargs)

    ChunkRetryPolicy.delay_s = delay_s
    try:
        yield retries
    finally:
        ChunkRetryPolicy.delay_s = original


def end_to_end(phase, setup_raw: list[float], setup_ref: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_ref),
        "raw_setup_s": statistics.median(setup_raw),
        "ref_throughput_per_s": phase.ref_throughput_per_s,
        "ref_cpu_s_per_item": phase.ref_cpu_s_per_item,
        "throughput_per_s": phase.throughput_per_s,
        "cpu_s_per_item": phase.cpu_s_per_item,
        "host.calib_ms": phase.calib_s * 1e3,
        "host.stolen_s": phase.stolen_s,
        "peak_rss_mb": peak_rss_mb(),
        "item_p50_ms": percentile_ms(phase.latencies_s, 50),
        "item_p95_ms": percentile_ms(phase.latencies_s, 95),
    }


def replay_rounds(traced, seconds: float) -> list[int]:
    """Traced rounds to replay untraced: about ``seconds`` of round time.

    Round 0 is skipped when there are others, since it alone ran in a
    cold process (empty plan caches) and its replay would run warm.
    """
    rounds = traced.rounds[1:] or traced.rounds
    chosen, wall = [], 0.0
    for index in rounds:
        chosen.append(index)
        wall += sum(block[2] for block in traced.blocks if block[0] == index)
        if wall >= seconds:
            break
    return chosen


def traced_run(wl, seed: int, seconds: float, work: Path):
    """Traced phase, then an untraced replay of some of its rounds.

    The tracing overhead compares the traced and the untraced throughput
    of the same rounds, so the inputs are the same on both sides, both
    at the reference host speed.
    Returns the traced phase, the overhead in percent, the spans, the
    pid of the recording (parent) process and the supervisor overhead:
    the untraced pooled CPU minus the CPU of the same rounds re-run
    inline (both at the reference host speed), zero for inline workloads.
    """
    from tracing import Recorder

    recorder = Recorder(work / "spans")
    try:
        traced = wl.measure(seed, seconds, work, telemetry=True, on_start=recorder.install)
    finally:
        recorder.uninstall()
    spans = [
        span for span in recorder.collect()
        if any(start <= span["start"] < end for start, end in traced.intervals)
    ]
    rounds = replay_rounds(traced, seconds / 2)
    untraced = wl.measure(seed, 0.0, work, first_round=rounds[0], rounds=len(rounds))
    overhead_pct = 100.0 * (
        untraced.ref_throughput_per_s - traced.ref_throughput_of(rounds)
    ) / untraced.ref_throughput_per_s
    overhead_cpu = 0.0
    if wl.worker_count() > 1:
        inline = wl.measure(seed, 0.0, work, workers=1, first_round=rounds[0],
                            rounds=len(rounds))
        overhead_cpu = untraced.ref_cpu_s - inline.ref_cpu_s
    return traced, overhead_pct, spans, recorder.owner, overhead_cpu


def per_layer(traced, overhead_pct: float, spans, owner: int, overhead_cpu: float,
              import_s: float) -> dict[str, float]:
    from tracing import (
        chunk_concurrency, layer_coverage_seconds, layer_self_seconds, span_counts,
    )

    metrics = {"import_s": import_s}
    metrics.update({f"{layer}_s": s for layer, s in layer_self_seconds(spans).items()})
    counts = span_counts(spans)
    for name in (
        "faults.injected",
        "engine.session.plan_cache_misses",
        "core.report.failing_reads",
        "engine.baseline_session.iterations",
        "ecc.corrected_reads",
        "ecc.uncorrectable_reads",
    ):
        metrics[name] = counts.get(name, 0)
    telemetry = traced.telemetry
    for lane in ("table", "clean", "replay"):
        metrics[f"lane.{lane}_s"] = telemetry.get(f"lane.{lane}.ns", 0) / 1e9
    metrics["table.compile_s"] = telemetry.get("table.compile.ns", 0) / 1e9
    metrics["engine.checkpoint.bytes"] = traced.checkpoint_bytes
    metrics["engine.supervisor.overhead_cpu_s"] = overhead_cpu
    metrics["engine.supervisor.spawns"] = len(
        {s["pid"] for s in spans if s["kind"] == "chunk" and s["pid"] != owner}
    )
    workers, busy_s = chunk_concurrency(spans)
    metrics["run.workers"] = workers
    metrics["run.utilization_pct"] = 100.0 * busy_s / (traced.wall_s * max(workers, 1))
    metrics["trace.wall_s"] = traced.wall_s
    metrics["unattributed_s"] = traced.wall_s - layer_coverage_seconds(
        spans, traced.intervals
    )
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def main(argv=None, tiny: bool = False) -> int:
    """Run one benchmark; ``tiny`` shrinks every workload for the smoke test."""
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, tiny)
    try:
        setup_raw, setup_ref = measure_setup(
            args.workload, args.seed, tiny, 1 if tiny else SETUP_PROBES
        )
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    import repro  # noqa: F401

    wl.import_modules()
    import_s = time.perf_counter() - started
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with counting_retries() as retries:
        if args.trace:
            traced, overhead_pct, spans, owner, overhead_cpu = traced_run(
                wl, args.seed, args.seconds, work
            )
            phase = traced
            metrics = per_layer(traced, overhead_pct, spans, owner, overhead_cpu, import_s)
            units = per_layer_units()
        else:
            phase = wl.measure(args.seed, args.seconds, work)
            metrics = end_to_end(phase, setup_raw, setup_ref)
            units = E2E_UNITS
    failed = phase.failed_chunks + retries[0]

    try:
        checks = wl.verify(args.seed, phase, work)
        sim = wl.sim_metrics(phase)
        correct = True
    except workloads.GateFailure as error:
        checks = [f"FAILED: {error}"]
        sim = {}
        correct = False

    info = revision()
    nproc = len(os.sched_getaffinity(0))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "workers": wl.worker_count(),
        **info,
        "item": wl.item,
        "items": phase.items,
        "latency_samples": len(phase.latencies_s),
        "measured_s": phase.wall_s,
        "blocks": phase.blocks,
        "setup_probes_s": setup_raw,
        "setup_probes_ref_s": setup_ref,
        "chunks": phase.chunks,
        "failed_chunks": failed,
        "failed_fraction": failed / phase.chunks,
        "checks": checks,
        "sim": sim,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    if args.trace:
        (work / "spans.json").write_text(json.dumps(spans))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={nproc} workers={wl.worker_count()} git={info['git_rev']} "
        f"src={info['src_sha256']}"
    )
    print(
        f"  {phase.items} {wl.item}s in {phase.wall_s:.2f} s; latency samples "
        f"n={len(phase.latencies_s)}; set-up: median of {len(setup_raw)} fresh "
        f"interpreters"
    )
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    for name, value in sim.items():
        print(f"  {name:<36} {value:>14.6g} (exact, repeat-checked)")
    print(f"  {'failed_fraction':<36} {failed / phase.chunks:>14.6g} "
          f"({failed} of {phase.chunks} chunks retried or quarantined)")
    if args.trace:
        print(f"  tracing overhead: {metrics['trace.overhead_pct']:.2f}% of untraced "
              f"throughput; spans: {work / 'spans.json'}")
    for line in checks:
        print(f"  check: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": phase.chunks,
        "failed": failed,
        "metrics": {name: record["metrics"][name] for name in reported(args.trace)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
