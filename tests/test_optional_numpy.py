"""numpy is the [fast] extra: the package must import and run without it.

Simulated by installing an import blocker in a subprocess (numpy stays
installed in the test environment itself).
"""

from __future__ import annotations

import json
import subprocess
import sys

BLOCKED_PRELUDE = """
import sys

class _BlockNumpy:
    def find_module(self, name, path=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")

sys.meta_path.insert(0, _BlockNumpy())
"""


def run_without_numpy(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", BLOCKED_PRELUDE + body],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_import_repro_without_numpy():
    result = run_without_numpy(
        "import repro\n"
        "import repro.engine\n"
        "print(repro.__version__)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_reference_diagnosis_runs_without_numpy():
    result = run_without_numpy(
        "from repro import FastDiagnosisScheme, MemoryBank, MemoryGeometry, SRAM\n"
        "from repro.faults.stuck_at import StuckAtFault\n"
        "from repro.memory.geometry import CellRef\n"
        "memory = SRAM(MemoryGeometry(16, 4, 'm0'))\n"
        "StuckAtFault(CellRef(3, 1), value=1).attach(memory)\n"
        "report = FastDiagnosisScheme(MemoryBank([memory])).diagnose()\n"
        "assert not report.passed\n"
        "print(report.total_failures)\n"
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) > 0


def test_auto_backend_degrades_to_reference_without_numpy():
    result = run_without_numpy(
        "from repro.engine import get_backend, available_backends\n"
        "backend = get_backend('auto')\n"
        "print(type(backend).__name__)\n"
        "print(available_backends()['batched'])\n"
    )
    assert result.returncode == 0, result.stderr
    name, batched_available = result.stdout.split()
    assert name == "ReferenceBackend"
    assert batched_available == "False"


def test_explicit_numpy_backend_raises_without_numpy():
    # Only "auto" may degrade silently; an explicit request must fail loudly.
    result = run_without_numpy(
        "from repro.engine import get_backend\n"
        "try:\n"
        "    get_backend('batched')\n"
        "except RuntimeError as error:\n"
        "    print('[fast]' in str(error))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


def test_sampling_raises_helpful_error_without_numpy():
    result = run_without_numpy(
        "from repro.util.rng import make_rng\n"
        "try:\n"
        "    make_rng(0)\n"
        "except RuntimeError as error:\n"
        "    print('fast extra' in str(error) or '[fast]' in str(error))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


#: Diagnoses a bank of a 4-bit, a 100-bit (two uint64 lanes) and a
#: fault-free memory with the reference scheme and prints every scoring,
#: localization and repair result as one JSON line.
SCORING_SCRIPT = """
import json
from repro import FastDiagnosisScheme, MemoryBank, MemoryGeometry, SRAM
from repro.core.redundancy import RedundancyBudget
from repro.core.repair import BisrController, RepairController
from repro.faults.coupling import InversionCouplingFault
from repro.faults.injector import FaultInjector
from repro.faults.stuck_at import StuckAtFault
from repro.memory.geometry import CellRef

def bank():
    small = SRAM(MemoryGeometry(16, 4, 'm0'))
    wide = SRAM(MemoryGeometry(8, 100, 'm1'))
    injector = FaultInjector()
    injector.inject(small, StuckAtFault(CellRef(3, 1), value=1))
    injector.inject(small, InversionCouplingFault(CellRef(5, 0), CellRef(6, 2)))
    injector.inject(wide, StuckAtFault(CellRef(2, 70), value=0))
    injector.inject(wide, StuckAtFault(CellRef(2, 3), value=1))
    injector.inject(wide, StuckAtFault(CellRef(7, 99), value=1))
    clean = SRAM(MemoryGeometry(8, 8, 'm2'))
    return MemoryBank([small, wide, clean]), injector

memories, injector = bank()
report = FastDiagnosisScheme(memories).diagnose()
repair = RepairController(memories, spares_per_memory=1).apply(report)
memories, _ = bank()
bisr = BisrController(memories, RedundancyBudget(1, 1)).apply(report)
names = sorted(report.failures)
print(json.dumps({
    'summary': report.summary_lines(),
    'detected': [sorted(map(str, report.detected_cells(n))) for n in names],
    'localized': [list(map(repr, report.localized_cells(n))) for n in names],
    'rate': report.localization_rate(injector),
    'scores': [repr(s) for s in report.score_against(injector)],
    'repair': [sorted(repair.repaired[n]) for n in names],
    'bisr': [sorted(bisr.new_rows[n]) + sorted(bisr.new_cols[n]) for n in names],
}))
"""


def test_reference_scoring_matches_numpy_without_numpy():
    # Scoring, localization and repair input walk the records when numpy
    # is missing, and must give exactly what the column path gives.
    without = run_without_numpy(SCORING_SCRIPT)
    assert without.returncode == 0, without.stderr
    with_numpy = subprocess.run(
        [sys.executable, "-c", SCORING_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert with_numpy.returncode == 0, with_numpy.stderr
    assert without.stdout == with_numpy.stdout
    result = json.loads(without.stdout)
    assert 0.0 < result["rate"] <= 1.0
    assert result["detected"][1] and result["localized"][1]
