"""Helpers shared by the benchmark's workloads: statistics, resource use,
input digests and the location of the program under test."""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_source_tree() -> None:
    """Import lpdm from ``src/`` of this checkout; the package is not installed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def digest(obj) -> str:
    """Stable fingerprint of generated inputs, compared across processes."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Tally:
    """What a closed-loop client saw: per-op outcomes and latencies.

    ``failed`` ops contradicted their check; ``ok`` ops returned a checked
    answer.  An op can be neither: a known defect that behaves as recorded.
    ``by_op`` holds the latencies of each op that every batch repeats.
    """

    attempted: int = 0
    failed: int = 0
    ok: int = 0
    op_ms: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    by_op: dict = field(default_factory=dict)
    # set by a workload whose ops run in other processes: their peak
    peak_rss_mb: float | None = None

    def record(self, ms: float | None, verdict: str, note: str = "", key=None) -> None:
        """One op's outcome; ``ms`` None when the op's latency is not its own,
        ``key`` names an op that every batch repeats."""
        self.attempted += 1
        if ms is not None:
            self.op_ms.append(ms)
            if key is not None:
                self.by_op.setdefault(key, []).append(ms)
        if verdict == "ok":
            self.ok += 1
        elif verdict == "failed":
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def repeat(batch, seconds: float, at_least: int = 1) -> Tally:
    """Run ``batch(tally) -> busy seconds`` at least ``at_least`` times, then
    until ``seconds`` have passed, stopping early when less than half a batch
    of time is left."""
    tally = Tally()
    start = perf_counter()
    while len(tally.batch_s) < at_least or perf_counter() - start + tally.batch_s[-1] / 2 < seconds:
        tally.batch_s.append(batch(tally))
    return tally
