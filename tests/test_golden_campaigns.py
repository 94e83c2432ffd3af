"""Golden-file regression: canonical campaign reports, frozen as JSON.

Three canonical campaigns -- the buffer-cluster motivating example, a
heterogeneous case-study SoC and a small SoC whose baseline runs in
bit-accurate serial-replay mode -- are executed end to end and their
ProposedReport + baseline report serializations compared field-for-field
against fixtures in ``tests/golden/``.  Any behavioural drift in the
diagnosis pipeline (schedule accounting, failure capture, localization
order, repair bookkeeping) shows up as a readable JSON diff.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden_campaigns.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.campaign import CampaignReport, DiagnosisCampaign
from repro.memory.geometry import MemoryGeometry
from repro.soc.case_study import case_study_soc
from repro.soc.chip import SoCConfig

GOLDEN_DIR = Path(__file__).parent / "golden"


def small_soc() -> SoCConfig:
    return SoCConfig(
        name="small-pair",
        geometries=[
            MemoryGeometry(16, 8, "sp_wide"),
            MemoryGeometry(12, 6, "sp_narrow"),
        ],
        period_ns=10.0,
    )


#: The three canonical campaigns.  Fixed seeds + the batched backend keep
#: every field deterministic; the backend choice itself is covered by the
#: differential suite, so goldens pin *behaviour*, not backend parity.
CAMPAIGNS: dict[str, dict] = {
    "buffer_cluster": dict(
        soc=SoCConfig.buffer_cluster, defect_rate=0.008, seed=11,
        backend="batched", baseline_bit_accurate=False,
    ),
    "case_study_hetero": dict(
        soc=lambda: case_study_soc(memories=3), defect_rate=0.004, seed=1,
        backend="batched", baseline_bit_accurate=False,
    ),
    "small_bit_accurate": dict(
        soc=small_soc, defect_rate=0.05, seed=5,
        backend="batched", baseline_bit_accurate=True,
    ),
}


def run_canonical(name: str) -> CampaignReport:
    config = CAMPAIGNS[name]
    campaign = DiagnosisCampaign(
        config["soc"](),
        defect_rate=config["defect_rate"],
        seed=config["seed"],
        backend=config["backend"],
        baseline_bit_accurate=config["baseline_bit_accurate"],
    )
    return campaign.run(include_baseline=True, repair=True)


def campaign_to_json(report: CampaignReport) -> dict:
    """Stable, human-diffable JSON rendering of a campaign report."""
    proposed = report.proposed
    baseline = report.baseline
    repair = report.repair
    return {
        "soc_name": report.soc_name,
        "injected_faults": report.injected_faults,
        "localization_rate": report.localization_rate,
        "verification_passed": report.verification_passed,
        "reduction_factor": report.reduction_factor,
        "proposed": {
            "algorithm_name": proposed.algorithm_name,
            "controller_words": proposed.controller_words,
            "controller_bits": proposed.controller_bits,
            "period_ns": proposed.period_ns,
            "cycles": proposed.cycles,
            "pause_ns": proposed.pause_ns,
            "deliveries": proposed.deliveries,
            "nwrc_ops": proposed.nwrc_ops,
            "time_ns": proposed.time_ns,
            "failures": {
                name: [record.to_dict() for record in records]
                for name, records in sorted(proposed.failures.items())
            },
        },
        "baseline": {
            "iterations": baseline.iterations,
            "include_drf": baseline.include_drf,
            "controller_words": baseline.controller_words,
            "controller_bits": baseline.controller_bits,
            "period_ns": baseline.period_ns,
            "cycles": baseline.cycles,
            "pause_ns": baseline.pause_ns,
            "time_ns": baseline.time_ns,
            "localized": [
                {
                    "memory_name": fault.memory_name,
                    "cell": [fault.cell.word, fault.cell.bit],
                    "iteration": fault.iteration,
                    "direction": fault.direction,
                    "fault_class": fault.fault_class,
                }
                for fault in baseline.localized
            ],
            "missed": [
                [name, fault.describe()] for name, fault in baseline.missed
            ],
        },
        "repair": {
            "repaired": {
                name: sorted(words) for name, words in sorted(repair.repaired.items())
            },
            "out_of_spares": {
                name: sorted(words)
                for name, words in sorted(repair.out_of_spares.items())
            },
            "detached_faults": repair.detached_faults,
            "fully_repaired": repair.fully_repaired,
        },
    }


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden(name, update_golden):
    path = GOLDEN_DIR / f"{name}.json"
    actual = campaign_to_json(run_canonical(name))
    if update_golden:
        path.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"golden fixture {path.name} rewritten")
    assert path.exists(), (
        f"missing golden fixture {path}; run pytest with --update-golden"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert actual == expected


def test_goldens_are_nontrivial(update_golden):
    # Guard against vacuous goldens: the canonical campaigns must exercise
    # injection, baseline localization and repair.
    if update_golden:
        pytest.skip("fixtures being rewritten")
    reports = [
        json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        for name in sorted(CAMPAIGNS)
    ]
    assert all(report["injected_faults"] > 0 for report in reports)
    assert any(report["baseline"]["localized"] for report in reports)
    assert any(report["repair"]["repaired"] for report in reports)
    assert any(
        report["baseline"]["iterations"] > 0 for report in reports
    )
