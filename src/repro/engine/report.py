"""What one sort reports: per-phase timings, run counts, spill bytes.

Every backend fills a :class:`SortReport` — the simulated pipeline
(:mod:`repro.sort.external`), the real-file spill, parallel and
resumable sorts, and the relational operators — and the CLI's
``--report`` prints its :meth:`SortReport.summary`.  The module imports
nothing from the simulator, so the real paths that only report do not
load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.iosim.disk import DiskStats

#: Simulated seconds per analytic CPU comparison/move.
DEFAULT_CPU_OP_TIME = 2e-8


@dataclass(slots=True)
class PhaseReport:
    """Timing and I/O of one pipeline phase.

    ``io_time``/``cpu_time`` are simulated seconds (DESIGN.md §3);
    ``wall_time`` is real elapsed seconds, filled only by backends that
    do real I/O (:class:`~repro.sort.spill.FileSpillSort`).
    """

    io_time: float = 0.0
    cpu_ops: int = 0
    cpu_time: float = 0.0
    wall_time: float = 0.0
    disk: Optional[DiskStats] = None

    @property
    def time(self) -> float:
        """Simulated seconds spent in this phase."""
        return self.io_time + self.cpu_time


@dataclass(slots=True)
class SortReport:
    """Result of one external sort."""

    algorithm: str
    records: int
    runs: int = 0
    run_lengths: List[int] = field(default_factory=list)
    run_phase: PhaseReport = field(default_factory=PhaseReport)
    merge_phase: PhaseReport = field(default_factory=PhaseReport)
    #: Spill traffic of the real-file backends (DESIGN.md §15):
    #: encoded record bytes before codec framing vs bytes actually
    #: written.  Both zero for in-memory and simulated sorts.
    spill_raw_bytes: int = 0
    spill_disk_bytes: int = 0

    @property
    def run_time(self) -> float:
        """Simulated seconds of the run-generation phase."""
        return self.run_phase.time

    @property
    def total_time(self) -> float:
        """Simulated seconds of the whole sort."""
        return self.run_phase.time + self.merge_phase.time

    @property
    def spill_ratio(self) -> float:
        """raw/on-disk spill ratio (>= 1 when the codec wins)."""
        if not self.spill_disk_bytes:
            return 1.0
        return self.spill_raw_bytes / self.spill_disk_bytes

    @property
    def average_run_length(self) -> float:
        if not self.run_lengths:
            return 0.0
        return sum(self.run_lengths) / len(self.run_lengths)

    def summary(self) -> str:
        """Human-readable multi-line report (the CLI's ``--report``)."""

        def phase_line(label: str, phase: PhaseReport) -> str:
            parts = [f"cpu_ops={phase.cpu_ops}"]
            if phase.wall_time:
                parts.append(f"wall={phase.wall_time:.3f}s")
            if phase.io_time:
                parts.append(f"sim_io={phase.io_time:.3f}s")
            if phase.cpu_time:
                parts.append(f"sim_cpu={phase.cpu_time:.4f}s")
            return f"  {label:<6}" + "  ".join(parts)

        lines = [
            f"{self.algorithm}: {self.records} records in {self.runs} runs "
            f"(avg {self.average_run_length:.0f} records)",
            phase_line("runs", self.run_phase),
            phase_line("merge", self.merge_phase),
        ]
        if self.spill_raw_bytes or self.spill_disk_bytes:
            lines.append(
                f"  spilled bytes raw={self.spill_raw_bytes}  "
                f"on_disk={self.spill_disk_bytes}  "
                f"ratio={self.spill_ratio:.2f}"
            )
        return "\n".join(lines)
