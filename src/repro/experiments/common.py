"""Shared plumbing for the per-table/figure experiment harnesses.

Every experiment module exposes ``run(...) -> result`` returning plain
data (rows the paper's table or figure would plot) and ``main()``
printing them.  This module holds the scaled default parameters and the
helpers that build comparable RS / 2WRS pipelines.

Scaling (DESIGN.md section 3): the paper sorts 100 MB-1 GB with 100 K
records of memory on a physical disk; we sort 10^4-10^6 records over
the simulated disk with proportional memory.  The response variables
(runs generated, run length relative to memory, simulated-time ratios)
are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.core.config import RECOMMENDED, TwoWayConfig
from repro.core.two_way import TwoWayReplacementSelection
from repro.engine.report import SortReport
from repro.iosim.disk import DiskGeometry, DiskModel
from repro.iosim.files import SimulatedFileSystem
from repro.runs.replacement_selection import ReplacementSelection
from repro.sort.external import ExternalSort
from repro.workloads.generators import make_input

#: Records per simulated page in the timing experiments (smaller than
#: the 4 KiB default so scaled-down memory still spans several pages).
EXPERIMENT_PAGE_RECORDS = 256

#: Default merge fan-in (the paper's measured optimum, Section 6.1.1).
DEFAULT_FAN_IN = 10


def experiment_filesystem() -> SimulatedFileSystem:
    """A fresh simulated disk with experiment-scaled pages."""
    geometry = DiskGeometry(page_records=EXPERIMENT_PAGE_RECORDS)
    return SimulatedFileSystem(DiskModel(geometry=geometry))


@dataclass(slots=True)
class TimingRow:
    """One point of a Chapter 6 plot: RS and 2WRS timings side by side."""

    x: Any
    rs_run_time: float
    rs_total_time: float
    twrs_run_time: float
    twrs_total_time: float
    rs_runs: int
    twrs_runs: int

    @property
    def speedup(self) -> float:
        """RS total time over 2WRS total time (the paper's speedup)."""
        if self.twrs_total_time == 0:
            return float("inf")
        return self.rs_total_time / self.twrs_total_time


def sort_with(
    generator, records: Iterable[Any], fan_in: int = DEFAULT_FAN_IN
) -> SortReport:
    """Run one full external sort on a fresh simulated disk."""
    pipeline = ExternalSort(
        generator, fs=experiment_filesystem(), fan_in=fan_in
    )
    _, report = pipeline.sort(records)
    return report


def compare_rs_twrs(
    x: Any,
    records: List[Any],
    memory_capacity: int,
    config: Optional[TwoWayConfig] = None,
    fan_in: int = DEFAULT_FAN_IN,
) -> TimingRow:
    """Sort the same records with RS and 2WRS; return one plot point."""
    config = config if config is not None else RECOMMENDED
    rs_report = sort_with(ReplacementSelection(memory_capacity), records, fan_in)
    twrs_report = sort_with(
        TwoWayReplacementSelection(memory_capacity, config), records, fan_in
    )
    return TimingRow(
        x=x,
        rs_run_time=rs_report.run_time,
        rs_total_time=rs_report.total_time,
        twrs_run_time=twrs_report.run_time,
        twrs_total_time=twrs_report.total_time,
        rs_runs=rs_report.runs,
        twrs_runs=twrs_report.runs,
    )


def timing_table(rows: Sequence[TimingRow], x_label: str) -> str:
    """Format Chapter 6 plot data as an aligned text table."""
    header = (
        f"{x_label:>12} {'RS run':>10} {'RS total':>10} "
        f"{'2WRS run':>10} {'2WRS total':>11} {'speedup':>8} "
        f"{'RS#':>5} {'2WRS#':>6}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{str(row.x):>12} {row.rs_run_time:>10.3f} {row.rs_total_time:>10.3f} "
            f"{row.twrs_run_time:>10.3f} {row.twrs_total_time:>11.3f} "
            f"{row.speedup:>8.2f} {row.rs_runs:>5d} {row.twrs_runs:>6d}"
        )
    return "\n".join(lines)


def dataset_records(
    name: str, n: int, seed: int = 1, **kwargs
) -> List[Any]:
    """Materialise one of the paper's input datasets."""
    return list(make_input(name, n, seed=seed, **kwargs))
