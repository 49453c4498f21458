"""Helpers shared by the workloads: paths, percentiles, memory, results."""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry import percentile_of

#: the checkout root (the benchmark runs from it and writes only in it)
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for caches; removed when a run ends
TMP_DIR = ROOT / ".perfbench-tmp"
#: traced runs write their span ledger here
OUT_DIR = ROOT / ".perfbench-out"

#: ``(name, unit)`` of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("ip_objective", "cost"),
    ("ip_cycles", "cycles"),
    ("ip_code_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)


#: seconds :func:`calibration_work` takes on the reference machine (a
#: 2-vCPU x86 VM in its usual, contended state); timings are reported
#: scaled to that speed
CAL_REF_S = 0.045


def calibration_work() -> int:
    """A fixed slice of interpreter work: integer arithmetic, dict and
    list traffic, attribute-free like the allocator's inner loops."""
    table: dict[int, int] = {}
    row: list[int] = []
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = table.get(i & 1023, 0) + acc
        row.append(acc % 97)
        if len(row) > 64:
            row.clear()
    return acc + len(table)


class Calibration:
    """Machine speed during a run, from repeated :func:`calibration_work`.

    A shared host runs the same code up to ~1.5x faster or slower as
    neighbours come and go, for seconds to minutes at a time.  Every
    reported time is multiplied by :attr:`speed` (reference seconds per
    measured second), so a run in a fast or slow spell reads as if the
    host were the reference machine.  Raw values are printed as well.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> float:
        """Time ``times`` slices; returns the seconds spent."""
        spent = 0.0
        for _ in range(times):
            t0 = time.perf_counter()
            calibration_work()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            spent += dt
        return spent

    @property
    def speed(self) -> float:
        if not self.samples:
            return 1.0
        return CAL_REF_S / statistics.median(self.samples)


def rss_peak_mb(pids=()) -> float:
    """Peak resident memory of this process plus ``pids`` (live
    processes, read from their ``VmHWM``), in MiB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


@dataclass(slots=True)
class Quality:
    """Deterministic guards on the allocations a workload produced."""

    objective: float = 0.0
    cycles: float = 0.0
    code_bytes: int = 0


@dataclass(slots=True)
class Measurement:
    """What one timed window observed."""

    seconds: float = 0.0
    #: whole passes (or request blocks) the window completed
    passes: int = 0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: ops per second of each whole pass (or block); their median is
    #: the reported throughput, robust to a noisy neighbour's bursts
    rates: list[float] = field(default_factory=list)

    def record(self, latency: float, ok: bool, what: str = "") -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """Count one more failed check (an op may fail several checks;
        ``failed`` is clamped to ``attempted`` when reported)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def close_pass(self, ops: int, seconds: float) -> None:
        self.passes += 1
        self.rates.append(ops / seconds)

    @property
    def throughput(self) -> float:
        if self.rates:
            return statistics.median(self.rates)
        return self.attempted / self.seconds if self.seconds else 0.0


def end_to_end(setup_s: float, window: Measurement, quality: Quality,
               rss_mb: float, speed: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics; times scaled by ``speed``."""
    failed = min(window.failed, window.attempted)
    lat_ms = [x * 1000.0 * speed for x in window.latencies]
    return {
        "setup_s": setup_s * speed,
        "throughput_ops_s": window.throughput / speed,
        "latency_p50_ms": percentile_of(lat_ms, 50),
        "latency_p90_ms": percentile_of(lat_ms, 90),
        "ok_ratio": 1.0 - failed / max(1, window.attempted),
        "ip_objective": quality.objective,
        "ip_cycles": quality.cycles,
        "ip_code_bytes": float(quality.code_bytes),
        "peak_rss_mb": rss_mb,
    }


def stop_children(timeout: float = 20.0) -> None:
    """Stop every child process of this one that is still there and wait
    for each: SIGTERM, then SIGKILL after ``timeout`` seconds.  The
    workloads stop their own children; this is the net under every way
    out of a run."""
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry.name))
    for pid in children:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + timeout
    for pid in children:
        while not _reaped(pid):
            if time.monotonic() > deadline:
                _signal(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except OSError:
        pass


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True  # already reaped elsewhere


def clean_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env
