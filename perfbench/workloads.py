"""The benchmark's workloads: inputs, timed phases and correctness oracle.

Every workload drives the program only through its public entry points
(``run_fleet``, ``run_scenario_fleet``, ``StreamingMonitor.windows``)
and receives nothing but inputs generated from the benchmark seed.  A
fleet workload runs *rounds*: round ``r`` is one fleet call whose master
seed is a hash of ``(seed, r)``, so a seed fixes every round's inputs
while the number of rounds a run completes depends on host speed.  The
monitor workload consumes one endless stream whose master seed is the
hash of ``(seed, 0)``.

All ``repro`` imports are local to the functions that need them, so the
run script can time ``import repro`` itself and fail cleanly when the
source tree is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


class GateFailure(Exception):
    """The program's outputs disagree with the oracle or with themselves."""


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of round ``round_index``: a stable 32-bit hash."""
    digest = hashlib.sha256(f"perfbench:{seed}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


#: Iterations of the calibration loop, about 3 to 6 ms of pure Python.
CALIB_LOOPS = 24_000

#: What the calibration loop takes on the reference host, in seconds.
CALIB_REF_S = 0.005


def _calibration_loop() -> float:
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIB_LOOPS):
        key = i % 977
        table[key] = table.get(key, 0) + (i * i) % 7
    return time.perf_counter() - started


def calibrate(every_cpu: bool = False) -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    A shared virtual CPU switches between speeds that differ by up to
    1.7x, for spells of a fraction of a second to tens of seconds, and
    each CPU switches on its own, so a block's wall time is mostly a
    reading of the host.  The loop uses no program code, so a change to
    the program cannot move it.  With ``every_cpu`` the loop runs pinned
    to each CPU this process may use in turn and the mean is returned:
    the speed that work spread over all of them sees.
    """
    if not every_cpu:
        return _calibration_loop()
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(_calibration_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(readings)


def stolen_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs.

    The ``steal`` column of ``/proc/stat``; 0 where it is not reported.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def directory_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


@dataclass
class Phase:
    """What one timed phase measured.

    Work is timed in blocks: a campaign or a fleet round, or a run of
    monitor windows.  Throughput and CPU per item are totals over all
    blocks; items differ in cost, and the work-weighted total varied
    less from seed to seed than a median over blocks did.  The ``ref_``
    figures leave out of each block's wall time what the hypervisor
    stole from it and scale its times to the reference host speed by the
    calibration readings taken on either side of it (see
    :class:`BlockClock`).
    """

    items: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    #: ``(round, items, wall s, cpu s, calibration s, stolen s)`` per block.
    blocks: list[tuple[int, int, float, float, float, float]] = field(
        default_factory=list
    )
    #: ``perf_counter_ns`` intervals the blocks were timed over; traced
    #: runs attribute only spans that start inside them.
    intervals: list[tuple[int, int]] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    chunks: int = 0
    failed_chunks: int = 0
    #: Round-by-round outputs (fleet workloads) or window reports.
    outputs: list = field(default_factory=list)
    #: Engine telemetry counters summed over the phase (traced phases).
    telemetry: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    #: Indices of the rounds run, in order.
    rounds: list[int] = field(default_factory=list)

    def add_block(self, round_index: int, items: int, started: float, finished: float,
                  cpu_s: float, calib_s: float, stolen_s: float) -> None:
        """Record ``items`` timed from ``started`` to ``finished`` (perf_counter)."""
        wall = finished - started
        scale = CALIB_REF_S / calib_s
        self.blocks.append((round_index, items, wall, cpu_s, calib_s, stolen_s))
        self.intervals.append((int(started * 1e9), int(finished * 1e9)))
        self.items += items
        self.wall_s += wall
        self.cpu_s += cpu_s
        self.ref_wall_s += (wall - stolen_s) * scale
        self.ref_cpu_s += cpu_s * scale

    @property
    def throughput_per_s(self) -> float:
        return self.items / self.wall_s

    @property
    def cpu_s_per_item(self) -> float:
        return self.cpu_s / self.items

    @property
    def ref_throughput_per_s(self) -> float:
        return self.items / self.ref_wall_s

    @property
    def ref_cpu_s_per_item(self) -> float:
        return self.ref_cpu_s / self.items

    @property
    def calib_s(self) -> float:
        """Median calibration reading over the blocks."""
        return statistics.median(block[4] for block in self.blocks)

    @property
    def stolen_s(self) -> float:
        return sum(block[5] for block in self.blocks)

    def ref_throughput_of(self, rounds) -> float:
        """Reference-speed items per second over the blocks of ``rounds``."""
        chosen = [block for block in self.blocks if block[0] in rounds]
        return sum(b[1] for b in chosen) / sum(
            (b[2] - b[5]) * CALIB_REF_S / b[4] for b in chosen
        )


class BlockClock:
    """Times consecutive blocks of a phase, reading the host's speed between them.

    :func:`calibrate` runs at each block boundary, outside the timed
    blocks, and a block's reading is the mean of those on its two sides;
    with several ``workers`` it reads every CPU.  A block's stolen time
    is the hypervisor's steal over the block, shared among the workers,
    and never more than the time the workers were not running: a program
    that waits for something else keeps its waits.
    """

    def __init__(self, phase: Phase, workers: int = 1) -> None:
        self.phase = phase
        self.workers = workers
        self.every_cpu = workers > 1
        self.calib = calibrate(self.every_cpu)
        self.restart()

    def restart(self, recalibrate: bool = False) -> None:
        """Start the next block now; untimed work happened since the last."""
        if recalibrate:
            self.calib = calibrate(self.every_cpu)
        self.cpu = cpu_seconds()
        self.steal = stolen_seconds()
        self.start = time.perf_counter()

    def split(self, round_index: int, items: int) -> None:
        """End the current block with ``items`` done and start the next."""
        finished = time.perf_counter()
        cpu = cpu_seconds() - self.cpu
        steal = stolen_seconds() - self.steal
        wall = finished - self.start
        stolen = min(steal / self.workers, max(0.0, wall - cpu / self.workers))
        before, self.calib = self.calib, calibrate(self.every_cpu)
        self.phase.add_block(round_index, items, self.start, finished, cpu,
                             (before + self.calib) / 2, stolen)
        self.restart()


def _merge_counters(into: dict, telemetry) -> None:
    if telemetry is None:
        return
    for key, value in telemetry.counters.to_dict().items():
        into[key] = into.get(key, 0) + value


# ---------------------------------------------------------------------- #
# Fleet-shaped workloads                                                 #
# ---------------------------------------------------------------------- #
@dataclass
class FleetWorkload:
    """Rounds of ``run_fleet`` or ``run_scenario_fleet`` calls."""

    name: str
    #: ``(campaigns, master_seed, backend) -> spec``
    make_spec: Callable
    scenario: bool
    round_campaigns: int
    oracle_campaigns: int
    #: ``None`` means one worker per available core.
    workers: int | None
    chunk_size: int
    checkpoint: bool
    #: ``FleetReport -> {sim metric: value}``
    sim: Callable
    item = "campaign"

    def worker_count(self) -> int:
        return self.workers or len(os.sched_getaffinity(0))

    def import_modules(self) -> None:
        from repro.engine.fleet import run_fleet  # noqa: F401
        from repro.scenarios.runner import run_scenario_fleet  # noqa: F401

    def setup(self, seed: int) -> None:
        """Build the first round's inputs (what a fresh process pays)."""
        self.import_modules()
        self.make_spec(self.round_campaigns, round_seed(seed, 0), "auto").build_soc().build_bank()

    def _runner(self):
        if self.scenario:
            from repro.scenarios.runner import run_scenario_fleet

            return run_scenario_fleet
        from repro.engine.fleet import run_fleet

        return run_fleet

    def run_spec(self, spec, workers: int, **kwargs):
        return self._runner()(
            spec, workers=workers, chunk_size=self.chunk_size, **kwargs
        )

    def measure(
        self,
        seed: int,
        seconds: float,
        out: Path,
        first_round: int = 0,
        telemetry: bool = False,
        workers: int | None = None,
        rounds: int | None = None,
        on_start: Callable[[], None] | None = None,
    ) -> Phase:
        """Run rounds until ``seconds`` of round time have passed.

        With ``rounds`` exactly that many rounds run from ``first_round``
        on, whatever the time (replays of measured rounds).  A campaign's
        latency is the consumer's wait for it: the fleet calls
        ``progress`` after each chunk it hands over, in campaign order,
        and the wait since the previous call is split evenly over the
        campaigns that call delivered.  A pooled round therefore shows
        worker spawns and head-of-line waits in its first deliveries.

        An inline round is timed in blocks, one per chunk plus the
        round's tail after the last one, with the host's speed read in
        the ``progress`` call between them.  A pooled round is one block:
        its workers are busy during ``progress`` calls, so the speed is
        read between rounds, when none is alive, on every CPU.
        """
        workers = workers or self.worker_count()
        inline = workers == 1
        phase = Phase()
        round_index = first_round
        if on_start is not None:
            on_start()
        clock = BlockClock(phase, workers)
        while rounds is None or round_index - first_round < rounds:
            spec = self.make_spec(
                self.round_campaigns, round_seed(seed, round_index), "auto"
            )
            checkpoint = None
            if self.checkpoint:
                checkpoint = out / "checkpoint" / f"round-{round_index}"
                shutil.rmtree(checkpoint, ignore_errors=True)
            waited = {"done": 0}

            def progress(done, total, index=round_index):
                now = time.perf_counter()
                delivered = done - waited["done"]
                latency = (now - waited["since"]) / delivered
                phase.latencies_s.extend([latency] * delivered)
                waited["done"] = done
                if inline:
                    clock.split(index, delivered)
                    now = clock.start
                waited["since"] = now

            clock.restart()
            waited["since"] = clock.start
            report = self.run_spec(
                spec, workers, progress=progress, checkpoint=checkpoint,
                telemetry=telemetry,
            )
            clock.split(round_index, 0 if inline else report.campaigns)
            phase.chunks += -(-spec.campaigns // self.chunk_size)
            phase.failed_chunks += len(report.failures)
            phase.outputs.append(report)
            phase.rounds.append(round_index)
            _merge_counters(phase.telemetry, report.telemetry)
            if checkpoint is not None:
                phase.checkpoint_bytes += directory_bytes(checkpoint)
                shutil.rmtree(checkpoint, ignore_errors=True)
            round_index += 1
            if rounds is None and phase.wall_s >= seconds:
                break
        return phase

    def sim_metrics(self, phase: Phase) -> dict:
        """Simulated figures of round 0 (a pure function of the seed)."""
        return self.sim(phase.outputs[0])

    def verify(self, seed: int, phase: Phase, out: Path) -> list[str]:
        """Correctness gate; raises :class:`GateFailure` on a mismatch.

        * repeat: round 0 runs again with the measured configuration and
          must reproduce the timed round's report byte for byte, so its
          ``sim.*`` figures repeat exactly;
        * oracle: the first ``oracle_campaigns`` campaigns of round 0,
          run with the measured configuration (workers, chunk size,
          checkpoint), must give the same ``deterministic_dict()`` as the
          reference backend, the repository's oracle, run inline.  On the
          pooled workload they span two chunks, so the supervised path
          (forked workers, pipes, chunk reordering, checkpoint writes) is
          checked, not only the inline one.
        """
        timed = phase.outputs[0]
        repeat = self.measure(seed, 0.0, out, rounds=1).outputs[0]
        check_equal("repeat of round 0", canonical(repeat.deterministic_dict()),
                    canonical(timed.deterministic_dict()))
        check_equal("sim.* repeat", self.sim(repeat), self.sim(timed))
        master = round_seed(seed, 0)
        checkpoint = None
        if self.checkpoint:
            checkpoint = out / "checkpoint" / "oracle"
            shutil.rmtree(checkpoint, ignore_errors=True)
        measured = self.run_spec(
            self.make_spec(self.oracle_campaigns, master, "auto"),
            self.worker_count(), checkpoint=checkpoint,
        )
        if checkpoint is not None:
            shutil.rmtree(checkpoint, ignore_errors=True)
        # Inline, so the oracle shares no code path with a pooled run.
        reference = self.run_spec(
            self.make_spec(self.oracle_campaigns, master, "reference"), 1
        )
        check_equal(
            f"reference oracle ({self.oracle_campaigns} campaigns)",
            canonical(measured.deterministic_dict()),
            canonical(reference.deterministic_dict()),
        )
        return [
            "repeat of round 0: identical report",
            f"reference backend on the first {self.oracle_campaigns} "
            f"campaign(s) of round 0: identical report",
        ]


def check_equal(label: str, measured, expected) -> None:
    if measured != expected:
        raise GateFailure(f"{label}: measured output differs from the expected output")


# ---------------------------------------------------------------------- #
# Streaming monitor                                                      #
# ---------------------------------------------------------------------- #
@dataclass
class MonitorWorkload:
    """Rounds of ``StreamingMonitor`` streams, consumed window by window.

    Round ``r`` is a fresh stream whose master seed is the hash of
    ``(seed, r)``; each round times ``round_windows`` windows in blocks
    of ``block_windows``, with the host's speed read between blocks.  The arrival field, and with it the mix of struck memories,
    is fixed per stream, so several streams per run keep one field from
    deciding the figures.  The monitor runs inline with one window per
    chunk, so the consumer receives each window as soon as it is swept
    and its wait is that window's latency.
    """

    name: str
    #: Untimed windows at the start of the first stream (cold process).
    warmup_windows: int
    #: Windows of round 0 whose reports fix the ``sim.*`` figures and
    #: the repeat check.
    sim_windows: int
    oracle_windows: int
    #: Timed windows per stream.
    round_windows: int = 64
    #: Windows per timed block.
    block_windows: int = 8
    item = "window"

    def worker_count(self) -> int:
        return 1

    def import_modules(self) -> None:
        from repro.streaming.monitor import StreamingMonitor  # noqa: F401

    def spec(self, seed: int, round_index: int = 0, backend: str = "auto"):
        from repro.streaming.monitor import StreamingSpec

        return StreamingSpec(master_seed=round_seed(seed, round_index), backend=backend)

    def setup(self, seed: int) -> None:
        self.import_modules()
        spec = self.spec(seed)
        soc = spec.build_soc()
        soc.build_bank()
        spec.timeline(soc)

    def monitor(self, seed: int, round_index: int = 0, windows: int | None = None,
                telemetry: bool = False, backend: str = "auto"):
        from repro.streaming.monitor import StreamingMonitor

        return StreamingMonitor(
            self.spec(seed, round_index, backend),
            windows=windows,
            workers=1,
            chunk_size=1,
            telemetry=telemetry,
        )

    def measure(self, seed: int, seconds: float, out: Path, first_round: int = 0,
                telemetry: bool = False, rounds: int | None = None,
                on_start: Callable[[], None] | None = None) -> Phase:
        """Time stream rounds until ``seconds`` of window time have passed.

        With ``rounds`` exactly that many rounds run from ``first_round``
        on.  A window's latency is the consumer's wait between two
        yielded reports.  The clock of a stream starts when its last
        untimed window arrives, so stream construction is not charged to
        a window.  Round 0 leaves ``warmup_windows`` untimed, later
        rounds one.  Telemetry counters of round 0's warm-up are
        subtracted; later streams' first window stays in them.
        """
        phase = Phase()
        round_index = first_round
        clock = BlockClock(phase)
        while (phase.wall_s < seconds if rounds is None
               else round_index - first_round < rounds):
            untimed = self.warmup_windows if round_index == 0 else 1
            monitor = self.monitor(seed, round_index, telemetry=telemetry)
            stream = monitor.windows()
            timed = 0
            warmup_counters: dict = {}
            try:
                for report in stream:
                    if round_index == 0 and len(phase.outputs) < self.sim_windows:
                        phase.outputs.append(report)
                    if report.index + 1 < untimed:
                        continue
                    now = time.perf_counter()
                    if report.index + 1 == untimed:
                        if on_start is not None and round_index == first_round:
                            on_start()
                        clock.restart(recalibrate=True)
                        previous = clock.start
                        continue
                    if report.index == self.warmup_windows and untimed > 1:
                        _merge_counters(warmup_counters, monitor.telemetry_report)
                    phase.latencies_s.append(now - previous)
                    previous = now
                    timed += 1
                    if timed % self.block_windows == 0:
                        clock.split(round_index, self.block_windows)
                        previous = clock.start
                        if timed == self.round_windows:
                            break
            finally:
                stream.close()
            phase.failed_chunks += sum(len(entry["windows"]) for entry in monitor.failures)
            _merge_counters(phase.telemetry, monitor.telemetry_report)
            for key, value in warmup_counters.items():
                phase.telemetry[key] -= value
            phase.rounds.append(round_index)
            round_index += 1
        phase.chunks = phase.items
        return phase

    def sim_metrics(self, phase: Phase) -> dict:
        reports = phase.outputs[: self.sim_windows]
        events = sum(report.events for report in reports)
        detected = sum(report.detected_events for report in reports)
        return {
            "sim.detection_rate": detected / events,
            "sim.escape_rate": (events - detected) / events,
        }

    def verify(self, seed: int, phase: Phase, out: Path) -> list[str]:
        """Correctness gate; raises :class:`GateFailure` on a mismatch.

        * repeat: a fresh stream reproduces the first ``sim_windows``
          window reports of the timed stream exactly;
        * oracle: the reference backend reproduces the first
          ``oracle_windows`` of them.
        """
        timed = [canonical(r.deterministic_dict()) for r in phase.outputs]
        again = [
            canonical(r.deterministic_dict())
            for r in self.monitor(seed, windows=self.sim_windows).windows()
        ]
        check_equal(f"repeat of windows 0..{self.sim_windows - 1}", again, timed)
        reference = [
            canonical(r.deterministic_dict())
            for r in self.monitor(
                seed, windows=self.oracle_windows, backend="reference"
            ).windows()
        ]
        check_equal(
            f"reference oracle ({self.oracle_windows} windows)",
            timed[: self.oracle_windows],
            reference,
        )
        return [
            f"repeat of windows 0..{self.sim_windows - 1}: identical reports",
            f"reference backend on windows 0..{self.oracle_windows - 1}: "
            f"identical reports",
        ]


# ---------------------------------------------------------------------- #
# The workload table                                                     #
# ---------------------------------------------------------------------- #
def _fleet_spec(memories: int, defect_rate: float):
    def make(campaigns: int, master_seed: int, backend: str):
        from repro.engine.fleet import FleetSpec

        return FleetSpec(
            soc="case-study", memories=memories, heterogeneous=True,
            campaigns=campaigns, defect_rate=defect_rate, master_seed=master_seed,
            include_baseline=True, repair=True, backend=backend,
        )

    return make


def _scenario_spec(memories: int):
    def make(campaigns: int, master_seed: int, backend: str):
        from repro.scenarios.spec import preset_spec

        return preset_spec(
            "burn-in-soft-error", memories=memories, campaigns=campaigns,
            master_seed=master_seed, ecc="secded", spare_rows=4, spare_cols=4,
            backend=backend,
        )

    return make


def _fleet_sim(report) -> dict:
    return {
        "sim.reduction_factor": report.reduction.mean,
        "sim.localization_rate": report.localization.mean,
    }


def _scenario_sim(report) -> dict:
    return {
        "sim.reduction_factor": report.reduction.mean,
        "sim.localization_rate": report.localization.mean,
        "sim.escape_rate": report.escape_rate.mean,
    }


def build(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it for the smoke test."""
    if name == "fleet-dense":
        return FleetWorkload(
            name, _fleet_spec(2 if tiny else 16, 0.01), scenario=False,
            round_campaigns=1 if tiny else 2, oracle_campaigns=1,
            workers=1, chunk_size=1, checkpoint=False, sim=_fleet_sim,
        )
    if name == "fleet-pooled-sparse":
        return FleetWorkload(
            name, _fleet_spec(2 if tiny else 16, 0.0002), scenario=False,
            round_campaigns=4 if tiny else 8, oracle_campaigns=3,
            workers=None, chunk_size=2, checkpoint=True, sim=_fleet_sim,
        )
    if name == "scenario-burnin-ecc":
        return FleetWorkload(
            name, _scenario_spec(2 if tiny else 8), scenario=True,
            round_campaigns=1 if tiny else 2, oracle_campaigns=1,
            workers=1, chunk_size=1, checkpoint=False, sim=_scenario_sim,
        )
    if name == "monitor-stream":
        if tiny:
            return MonitorWorkload(
                name, warmup_windows=2, sim_windows=4, oracle_windows=1,
                round_windows=4, block_windows=2,
            )
        return MonitorWorkload(name, warmup_windows=32, sim_windows=64, oracle_windows=4)
    raise KeyError(name)


WORKLOAD_NAMES = (
    "fleet-dense",
    "fleet-pooled-sparse",
    "scenario-burnin-ecc",
    "monitor-stream",
)
