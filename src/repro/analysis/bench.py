"""Reusable benchmark measurements behind ``repro bench``.

The benchmark scripts under ``benchmarks/`` are thin wrappers over this
module, so perf numbers are reproducible from the installed CLI without
invoking scripts by path::

    repro bench --quick --json
    repro bench --suite batched-fleet --out BENCH_fault_tables.json

The headline suite (``batched-fleet``) times the proposed-scheme
diagnosis session of a 256-SRAM mixed-geometry campaign per defect
regime on the batched vector path (best of ``repeats``) against one run
of the reference oracle, asserts the two reports bit-identical, and
gates the reference/batched ratio per regime.  The reference session
takes about a minute per regime, so it runs once, outside the timed
batched loop.  The engine suite measures each backend's full campaign
once (the reference run is far too slow to repeat) and gates the
full-size ratio at :data:`ENGINE_SPEEDUP_TARGET`.

Gating a ratio against the oracle rather than an absolute time keeps the
gate meaningful on a shared host whose per-core speed swings by up to
1.7x: both sides run on the same machine in the same minute.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.fleet import FleetSpec, run_fleet
from repro.engine.session import run_session
from repro.soc.case_study import case_study_soc
from repro.telemetry.core import activate, deactivate
from repro.telemetry.report import TelemetryReport

#: (label, defect rate, batched-vs-reference session speedup floor).
#: Each floor carries over the former batched-vs-numpy target (3x, 2.5x,
#: 3x) through the reference/numpy session ratio of the per-memory numpy
#: path it replaced -- about 67x, 38x and 14x on a shared 2-vCPU x86-64
#: VM -- as ``target * reference_s / numpy_s``, so no floor is looser
#: than the gate it replaces.
BATCHED_REGIMES: tuple[tuple[str, float, float | None], ...] = (
    ("screening", 0.0002, 200.0),
    ("diagnostic", 0.001, 95.0),
    ("heavy-diagnostic", 0.005, 42.0),
)

#: Full-run batched-vs-reference campaign speedup floor (engine suite).
ENGINE_SPEEDUP_TARGET = 5.0

#: Suite names accepted by :func:`run_suites` / ``repro bench``.
SUITES = ("batched-fleet", "engine")


def _timed_session(soc, defect_rate: float, seed: int, backend: str):
    """One freshly-built session timed once (bank build untimed)."""
    campaign = DiagnosisCampaign(
        soc, defect_rate=defect_rate, seed=seed, backend=backend
    )
    bank, _ = campaign.faulty_bank()
    scheme = FastDiagnosisScheme(bank, period_ns=soc.period_ns)
    started = time.perf_counter()
    report = run_session(scheme, backend=backend)
    return time.perf_counter() - started, report


def measure_batched_fleet(
    memories: int = 256,
    repeats: int = 5,
    seed: int = 2026,
    warmup: bool = True,
    telemetry: bool = False,
    collector: "TelemetryReport | None" = None,
) -> dict:
    """Batched session times per defect regime against the reference.

    Each regime runs the reference oracle once, then one untimed batched
    warmup (so allocator and import cold-start effects never land in a
    timed region) and ``repeats`` timed batched sessions, keeping the
    best to suppress shared-machine spikes.  The batched report must
    equal the reference's failure map and cycle count exactly.

    With ``telemetry=True`` each regime runs one *additional* batched
    session under an active tracer -- outside the timed loop, so the
    comparison numbers stay uninstrumented -- and its per-lane attribution
    (replay vs table vs clean share of march time and words) lands in the
    regime's row.  ``collector`` (optional) accumulates the raw spans and
    counters across regimes for trace export.
    """
    soc = case_study_soc(memories=memories)
    rows = []
    for label, defect_rate, target in BATCHED_REGIMES:
        reference_s, reference = _timed_session(
            soc, defect_rate, seed, "reference"
        )
        if warmup:
            _timed_session(soc, defect_rate, seed, "batched")
        batched_s = float("inf")
        for _ in range(repeats):
            elapsed, batched = _timed_session(soc, defect_rate, seed, "batched")
            batched_s = min(batched_s, elapsed)
        assert (
            batched.failures == reference.failures
        ), f"batched diverged from the reference in the {label} regime"
        assert batched.cycles == reference.cycles
        row = {
            "regime": label,
            "defect_rate": defect_rate,
            "gated": target is not None,
            "speedup_target": target,
            "reference_s": reference_s,
            "batched_s": batched_s,
            "speedup": reference_s / batched_s,
            "failing_reads": sum(
                len(records) for records in reference.failures.values()
            ),
            "bit_identical": True,
        }
        if telemetry:
            tracer = activate()
            try:
                with tracer.span("bench.regime", "bench", regime=label):
                    _timed_session(soc, defect_rate, seed, "batched")
            finally:
                deactivate()
            regime_report = TelemetryReport()
            regime_report.merge_tracer(tracer)
            row["lane_attribution"] = regime_report.lane_attribution()
            if collector is not None:
                collector.merge_tracer(tracer)
        rows.append(row)
    return {
        "config": {
            "soc": "case-study",
            "memories": memories,
            "seed": seed,
            "repeats": repeats,
        },
        "rows": rows,
    }


def batched_fleet_gate_failures(results: dict) -> list[str]:
    """Human-readable misses of the per-regime speedup floors."""
    failures = []
    for row in results["rows"]:
        target = row.get("speedup_target")
        if row.get("gated") and target and row["speedup"] < target:
            failures.append(
                f"batched speedup {row['speedup']:.2f}x over the reference "
                f"in the {row['regime']} regime is below the {target:.1f}x "
                f"target"
            )
    return failures


def engine_gate_failures(results: dict) -> list[str]:
    """Human-readable miss of the engine suite's speedup floor."""
    speedup = results["single_campaign"]["speedup"]
    if speedup < ENGINE_SPEEDUP_TARGET:
        return [
            f"batched backend speedup {speedup:.1f}x is below the "
            f"{ENGINE_SPEEDUP_TARGET:.0f}x target"
        ]
    return []


def measure_engine_throughput(
    memories: int = 64,
    defect_rate: float = 0.005,
    fleet_campaigns: int = 16,
    workers: int | None = None,
    seed: int = 2005,
) -> dict:
    """Reference-vs-batched campaign speedup plus fleet campaigns/sec.

    Unlike the batched-fleet suite, each backend's full campaign is
    measured once (the reference campaign alone takes tens of seconds at
    full size, so repeats would dominate the suite's runtime).
    """
    if workers is None:
        workers = max(1, (os.cpu_count() or 2) - 1)
    soc = case_study_soc(memories=memories)
    elapsed = {}
    reports = {}
    for backend in ("reference", "batched"):
        campaign = DiagnosisCampaign(
            soc, defect_rate=defect_rate, seed=seed, backend=backend
        )
        started = time.perf_counter()
        reports[backend] = campaign.run(include_baseline=True, repair=True)
        elapsed[backend] = time.perf_counter() - started

    assert (
        reports["reference"].proposed.failures
        == reports["batched"].proposed.failures
    ), "backends diverged: failure maps differ"
    assert (
        reports["reference"].localization_rate
        == reports["batched"].localization_rate
    )
    assert (
        reports["reference"].reduction_factor
        == reports["batched"].reduction_factor
    )

    spec = FleetSpec(
        soc="case-study",
        memories=memories,
        campaigns=fleet_campaigns,
        defect_rate=defect_rate,
        master_seed=seed,
        backend="batched",
    )
    fleet_report = run_fleet(spec, workers=workers)
    return {
        "config": {
            "soc": "case-study",
            "memories": memories,
            "defect_rate": defect_rate,
            "seed": seed,
            "fleet_campaigns": fleet_campaigns,
            "fleet_workers": workers,
        },
        "single_campaign": {
            "reference_s": elapsed["reference"],
            "batched_s": elapsed["batched"],
            "speedup": elapsed["reference"] / elapsed["batched"],
            "bit_identical": True,
            "injected_faults": reports["reference"].injected_faults,
            "localization_rate": reports["reference"].localization_rate,
        },
        "fleet": {
            "backend": "batched",
            "campaigns": fleet_report.campaigns,
            "elapsed_s": fleet_report.elapsed_s,
            "campaigns_per_sec": fleet_report.campaigns_per_sec,
            "mean_reduction_factor": fleet_report.reduction.mean,
            "plan_cache_hit_rate": fleet_report.plan_cache_hit_rate,
        },
    }


def run_suites(
    suites,
    quick: bool = False,
    telemetry: bool = False,
    collector: "TelemetryReport | None" = None,
) -> tuple[dict, list[str]]:
    """Run the selected benchmark suites.

    Returns ``(payload, gate_failures)``; ``gate_failures`` is empty in
    quick mode (small configurations assert parity but are too short to
    gate on throughput).  With ``telemetry=True`` the batched-fleet rows
    gain per-lane attribution and the payload a merged ``telemetry``
    document; pass a :class:`~repro.telemetry.report.TelemetryReport` as
    ``collector`` to additionally keep the raw spans for trace export.
    """
    if telemetry and collector is None:
        collector = TelemetryReport()
    payload: dict = {
        "quick": quick,
        "git_rev": _git_revision_or_none(),
        "cpu_count": os.cpu_count(),
        "suites": {},
    }
    failures: list[str] = []
    for suite in suites:
        if suite == "batched-fleet":
            results = (
                measure_batched_fleet(
                    memories=32,
                    repeats=1,
                    warmup=False,
                    telemetry=telemetry,
                    collector=collector,
                )
                if quick
                else measure_batched_fleet(telemetry=telemetry, collector=collector)
            )
            payload["suites"][suite] = results
            if not quick:
                failures.extend(batched_fleet_gate_failures(results))
        elif suite == "engine":
            results = (
                measure_engine_throughput(memories=8, fleet_campaigns=4)
                if quick
                else measure_engine_throughput()
            )
            payload["suites"][suite] = results
            if not quick:
                failures.extend(engine_gate_failures(results))
        else:
            raise ValueError(f"unknown bench suite {suite!r}; known: {SUITES}")
    if telemetry and collector is not None:
        payload["telemetry"] = collector.to_json_dict()
    return payload, failures


# --------------------------------------------------------------------- #
# Performance trajectory                                                 #
# --------------------------------------------------------------------- #
def git_revision(repo_root: "str | os.PathLike | None" = None) -> str | None:
    """The working tree's short commit hash, or ``None`` outside git."""
    import subprocess

    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def _git_revision_or_none() -> str | None:
    try:
        return git_revision()
    except Exception:  # pragma: no cover - belt and braces
        return None


def trajectory_entry(payload: dict, timestamp: str) -> dict:
    """Reduce one ``run_suites`` payload to a trajectory record.

    ``timestamp`` is passed in (not sampled here) so callers control the
    clock -- the CLI stamps wall time, tests stamp fixed strings.  Records
    the per-regime speedups over the reference oracle (entries written
    before the numpy path was folded into the batched one have no
    ``speedup_over`` key and hold batched-vs-numpy ratios) and, when the
    run was telemetry-instrumented, the heavy-diagnostic replay-lane time
    share (the number the compiled kernel roadmap item is tracked by),
    plus the payload's commit and core count (``run_suites`` records
    both; outside a git checkout, or with a broken ``git``, its
    ``git_rev`` is ``null`` rather than failing the bench run).
    """
    entry: dict = {
        "timestamp": timestamp,
        "git_rev": payload.get("git_rev"),
        "cpu_count": payload.get("cpu_count"),
        "quick": bool(payload.get("quick")),
        "speedup_over": "reference",
        "regimes": {},
    }
    batched = payload.get("suites", {}).get("batched-fleet")
    if batched:
        for row in batched["rows"]:
            regime: dict = {"speedup": row["speedup"]}
            attribution = row.get("lane_attribution")
            if attribution:
                regime["replay_time_share"] = attribution["lanes"]["replay"][
                    "time_share"
                ]
                regime["march_time_s"] = attribution["march_time_s"]
            entry["regimes"][row["regime"]] = regime
    engine = payload.get("suites", {}).get("engine")
    if engine:
        entry["engine_speedup"] = engine["single_campaign"]["speedup"]
    return entry


def append_trajectory(path: "str | os.PathLike", entry: dict) -> list[dict]:
    """Append one record to the append-only trajectory file.

    The file holds a JSON list of entries, oldest first.  A missing file
    starts a new trajectory; an unreadable one raises rather than
    silently truncating history.  Returns the full trajectory.
    """
    target = Path(path)
    if target.exists():
        history = json.loads(target.read_text(encoding="utf-8"))
        if not isinstance(history, list):
            raise ValueError(
                f"trajectory file {target} does not hold a JSON list"
            )
    else:
        history = []
    history.append(entry)
    temporary = target.with_suffix(".tmp")
    temporary.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(temporary, target)
    return history
