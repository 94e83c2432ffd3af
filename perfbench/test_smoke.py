"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each workload's result line carries exactly the metrics
``BENCHMARK.json`` names and that every metric, named there or not, is
printed with its unit, in both modes; that a tampered output, a
tampered reference result or a tampered pooled worker result fails the
correctness gate; and that the command fails without a result when the
program source is missing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.engine import fleet  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload: str, trace: int = 0) -> tuple[int, list[str], dict]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        tiny=True,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = run_tiny(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {
        metric["name"]: metric["unit"]
        for metric in CONFIG["per_layer" if trace else "end_to_end"]
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = run.per_layer_units() if trace else run.E2E_UNITS
    for name, unit in printed.items():
        assert any(
            line.split()[0] == name and line.split()[-1] == unit for line in lines[:-1]
        ), name


def _tampered_reference_run(original):
    def run_spec(self, spec, workers, **kwargs):
        report = original(self, spec, workers, **kwargs)
        if spec.backend == "reference":
            report.total_failures += 1
        return report

    return run_spec


def _tampered_reference_monitor(original):
    def monitor(self, seed, round_index=0, windows=None, telemetry=False, backend="auto"):
        stream = original(self, seed, round_index, windows, telemetry, backend)
        if backend == "reference":
            windows_of = stream.windows

            def tampered():
                for report in windows_of():
                    report.detected_events += 1
                    yield report

            stream.windows = tampered
        return stream

    return monitor


def _tampered_timed_output(original):
    calls = []

    def measure(self, *args, **kwargs):
        phase = original(self, *args, **kwargs)
        calls.append(phase)
        if len(calls) == 1:  # the timed phase only, not the gate's repeat
            first = phase.outputs[0]
            if hasattr(first, "total_failures"):
                first.total_failures += 1
            else:
                first.detected_events += 1
        return phase

    return measure


@pytest.mark.parametrize("tamper", ["reference", "timed"])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tampered_digest_fails_the_gate(capsys, monkeypatch, workload, tamper):
    cls = type(workloads.build(workload, tiny=True))
    if tamper == "timed":
        monkeypatch.setattr(cls, "measure", _tampered_timed_output(cls.measure))
    elif cls is workloads.MonitorWorkload:
        monkeypatch.setattr(cls, "monitor", _tampered_reference_monitor(cls.monitor))
    else:
        monkeypatch.setattr(cls, "run_spec", _tampered_reference_run(cls.run_spec))
    code, lines, result = run_tiny(capsys, workload)
    assert code == 1
    assert result["correct"] is False
    assert any("FAILED" in line for line in lines)


_POOLED_CHUNK = fleet._run_indexed_chunk


def _tampered_pooled_chunk(chunk_runner, spec, telemetry_enabled, item):
    """A worker result with one extra failing read per campaign."""
    index, summaries, snapshot = _POOLED_CHUNK(chunk_runner, spec, telemetry_enabled, item)
    summaries = [
        dataclasses.replace(s, total_failures=s.total_failures + 1) for s in summaries
    ]
    return index, summaries, snapshot


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores to pool")
def test_tampered_pooled_worker_fails_the_gate(capsys, monkeypatch):
    """Only chunks run in forked workers are wrong; inline runs are not."""
    monkeypatch.setattr(fleet, "_run_indexed_chunk", _tampered_pooled_chunk)
    code, lines, result = run_tiny(capsys, "fleet-pooled-sparse")
    assert code == 1
    assert result["correct"] is False
    assert any("FAILED: reference oracle" in line for line in lines)


def test_fails_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    probe = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert probe.returncode != 0
    assert probe.stdout == ""
