"""Figure 6.1 — merge time as a function of the fan-in.

The paper merges 400 pre-sorted 16 MB run files with fan-ins 2..18 and
finds the minimum at fan-in 10: a small fan-in forces extra merge
passes, a large one splits the merge memory into tiny per-run buffers
whose refills each pay a disk seek.

Scaled setup: 100 pre-sorted runs of 1024 records merged with a
12 800-record memory over the simulated disk; the same two forces
produce the same U-shaped curve with its minimum at 10 (100 runs need
three passes below fan-in 10 and two passes from 10 up, after which
seeks take over).

:func:`run_real` repeats the sweep on *real* run files through
:meth:`repro.engine.SortEngine.merge_files` — the engine's
block-batched readers and a §3.7.2 reading strategy against actual
file handles — reporting measured wall time, merge passes, and block
reads per fan-in.  Real-file wall times on a cached filesystem do not
reproduce the paper's seek-driven right half of the U; the pass count
(the left half) and the block-read totals do, which is what
``main()`` prints next to the simulated curve.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import GeneratorSpec
from repro.core.records import INT
from repro.engine.block_io import write_sequence
from repro.engine.planner import SortEngine
from repro.experiments.common import experiment_filesystem
from repro.merge.merge_tree import MergeTree
from repro.workloads.generators import random_input

DEFAULT_FAN_INS = tuple(range(2, 19))
DEFAULT_NUM_RUNS = 100
DEFAULT_RUN_RECORDS = 1_024
DEFAULT_MERGE_MEMORY = 12_800


@dataclass(slots=True)
class FanInPoint:
    """One point of the Figure 6.1 curve."""

    fan_in: int
    merge_io_time: float
    passes: int
    seeks: int


def run(
    fan_ins: Sequence[int] = DEFAULT_FAN_INS,
    num_runs: int = DEFAULT_NUM_RUNS,
    run_records: int = DEFAULT_RUN_RECORDS,
    merge_memory: int = DEFAULT_MERGE_MEMORY,
    seed: int = 3,
) -> List[FanInPoint]:
    """Merge the same pre-sorted runs at every fan-in."""
    import math

    points: List[FanInPoint] = []
    for fan_in in fan_ins:
        fs = experiment_filesystem()
        files = []
        for index in range(num_runs):
            records = sorted(
                random_input(run_records, seed=seed * 10_000 + index)
            )
            files.append(fs.create_from(f"run-{index}", records))
        fs.disk.reset_stats()
        tree = MergeTree(fs, fan_in=fan_in, memory_capacity=merge_memory)
        result = tree.merge(files)
        assert len(result) == num_runs * run_records
        passes = max(1, math.ceil(math.log(num_runs, fan_in)))
        points.append(
            FanInPoint(
                fan_in=fan_in,
                merge_io_time=fs.disk.elapsed,
                passes=passes,
                seeks=fs.disk.stats.random_accesses,
            )
        )
    return points


@dataclass(slots=True)
class RealFanInPoint:
    """One point of the real-file engine sweep."""

    fan_in: int
    wall_time: float
    passes: int
    block_reads: int
    prefetch_hits: int


def run_real(
    fan_ins: Sequence[int] = DEFAULT_FAN_INS,
    num_runs: int = DEFAULT_NUM_RUNS,
    run_records: int = DEFAULT_RUN_RECORDS,
    merge_memory: int = DEFAULT_MERGE_MEMORY,
    reading: str = "forecasting",
    seed: int = 3,
) -> List[RealFanInPoint]:
    """Merge the same pre-sorted *files* at every fan-in via the engine.

    The per-run read buffer scales as ``merge_memory / fan_in``,
    mirroring how a fixed merge memory is split in the simulated sweep.
    """
    points: List[RealFanInPoint] = []
    with tempfile.TemporaryDirectory(prefix="repro-fig61-") as work_dir:
        paths = []
        for index in range(num_runs):
            records = sorted(
                random_input(run_records, seed=seed * 10_000 + index)
            )
            path = os.path.join(work_dir, f"run-{index:03d}.txt")
            write_sequence(path, records, INT, codec=None)
            paths.append(path)
        for fan_in in fan_ins:
            engine = SortEngine(
                GeneratorSpec("lss", merge_memory),
                fan_in=fan_in,
                buffer_records=max(1, merge_memory // (fan_in + 1)),
                reading=reading,
                tmp_dir=work_dir,
            )
            merged = sum(1 for _ in engine.merge_files(paths))
            assert merged == num_runs * run_records
            stats = engine.reading_stats
            points.append(
                RealFanInPoint(
                    fan_in=fan_in,
                    wall_time=engine.report.merge_phase.wall_time,
                    passes=engine.merge_passes,
                    block_reads=stats.block_reads,
                    prefetch_hits=stats.prefetch_hits,
                )
            )
    return points


def main() -> None:
    points = run()
    print("Figure 6.1 — merge time vs fan-in (simulated disk)")
    print(f"{'fan-in':>7} {'merge time (s)':>15} {'passes':>7} {'seeks':>8}")
    for point in points:
        print(
            f"{point.fan_in:>7} {point.merge_io_time:>15.3f} "
            f"{point.passes:>7} {point.seeks:>8}"
        )
    best = min(points, key=lambda p: p.merge_io_time)
    print(f"minimum at fan-in {best.fan_in} (paper: 10)")
    real = run_real()
    print()
    print("Same sweep over real run files (SortEngine.merge_files)")
    print(
        f"{'fan-in':>7} {'wall (s)':>10} {'passes':>7} "
        f"{'block reads':>12} {'prefetch hits':>14}"
    )
    for point in real:
        print(
            f"{point.fan_in:>7} {point.wall_time:>10.3f} "
            f"{point.passes:>7} {point.block_reads:>12} "
            f"{point.prefetch_hits:>14}"
        )


if __name__ == "__main__":
    main()
