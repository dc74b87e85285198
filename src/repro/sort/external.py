"""The complete external mergesort pipeline (Chapters 2 and 6).

Glues a run generator to the merge tree over the simulated storage
stack and reports the paper's two headline measurements per sort:

* **run time** — reading the input and writing the generated runs,
* **total time** — run time plus the merge phase.

Simulated time is ``disk_io_time + cpu_ops * cpu_op_time``; the I/O part
comes from the :class:`~repro.iosim.disk.DiskModel` clock and the CPU
part from the analytic comparison counts maintained by the generators
and the merge (DESIGN.md §3 explains the substitution for the paper's
wall-clock minutes).

2WRS runs are persisted as their four streams: the increasing streams
(1 and 3) as ordinary files, the decreasing streams (2 and 4) in the
backwards-written format of Appendix A, so the merge phase reads every
file forward.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.core.two_way import TwoWayReplacementSelection
from repro.engine.report import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport
from repro.iosim.files import SimulatedFile, SimulatedFileSystem
from repro.iosim.reverse_file import ReverseRunReader, ReverseRunWriter
from repro.merge.merge_tree import DEFAULT_FAN_IN, MergeTree
from repro.runs.base import RunGenerator


class _ChainedRunSource:
    """Reads a 2WRS run: streams 4, 3, 2, 1 concatenated ascending."""

    def __init__(self, parts: Sequence[Any]) -> None:
        self._parts = list(parts)

    def records_buffered(self, buffer_pages: int) -> Iterator[Any]:
        for part in self._parts:
            yield from part.records_buffered(buffer_pages)

    def records(self) -> Iterator[Any]:
        return self.records_buffered(1)


class ExternalSort:
    """External mergesort over the simulated storage stack.

    Parameters
    ----------
    generator:
        Any :class:`~repro.runs.base.RunGenerator` (RS, LSS, 2WRS, ...).
    fs:
        Filesystem / disk to charge; a fresh one is created by default.
    fan_in:
        Merge fan-in (the paper's optimum 10 by default).
    merge_memory:
        Records of memory for the merge phase; defaults to the
        generator's memory so both phases obey the same budget.
    cpu_op_time:
        Simulated seconds per analytic CPU operation.
    """

    def __init__(
        self,
        generator: RunGenerator,
        fs: Optional[SimulatedFileSystem] = None,
        fan_in: int = DEFAULT_FAN_IN,
        merge_memory: Optional[int] = None,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
    ) -> None:
        self.generator = generator
        self.fs = fs if fs is not None else SimulatedFileSystem()
        self.fan_in = fan_in
        self.merge_memory = (
            merge_memory if merge_memory is not None else generator.memory_capacity
        )
        self.cpu_op_time = cpu_op_time
        self._next_run_id = 0

    # -- public API --------------------------------------------------------------

    def sort(self, records: Iterable[Any]) -> tuple:
        """Sort ``records``; returns ``(sorted_file, report)``.

        The input is first staged to an (uncharged) input file, so the
        run phase pays for reading it exactly as the paper's setup reads
        its input from disk.
        """
        input_file = self._stage_input(records)
        report = SortReport(algorithm=self.generator.name, records=len(input_file))

        self.fs.disk.reset_stats()
        sources = self._generate_runs(input_file)
        stats = self.generator.stats
        report.runs = stats.runs_out
        report.run_lengths = list(stats.run_lengths)
        report.run_phase = PhaseReport(
            io_time=self.fs.disk.elapsed,
            cpu_ops=stats.cpu_ops,
            cpu_time=stats.cpu_ops * self.cpu_op_time,
            disk=self.fs.disk.stats.snapshot(),
        )

        self.fs.disk.reset_stats()
        tree = MergeTree(
            self.fs, fan_in=self.fan_in, memory_capacity=self.merge_memory
        )
        result = tree.merge(sources)
        report.merge_phase = PhaseReport(
            io_time=self.fs.disk.elapsed,
            cpu_ops=tree.counter.cpu_ops,
            cpu_time=tree.counter.cpu_ops * self.cpu_op_time,
            disk=self.fs.disk.stats.snapshot(),
        )
        return result, report

    # -- internals ------------------------------------------------------------------

    def _stage_input(self, records: Iterable[Any]) -> SimulatedFile:
        handle = self.fs.create(self._run_name(), write_buffer_pages=4)
        handle.extend(records)
        handle.close()
        self.fs.disk.reset_stats()
        return handle

    def _generate_runs(self, input_file: SimulatedFile) -> List[Any]:
        stream = input_file.records_buffered(buffer_pages=4)
        if isinstance(self.generator, TwoWayReplacementSelection):
            return [
                self._persist_two_way_run(run_streams)
                for run_streams in self.generator.generate_run_streams(stream)
            ]
        return [self._persist_run(run) for run in self.generator.generate_runs(stream)]

    def _persist_run(self, run: Sequence[Any]) -> SimulatedFile:
        handle = self.fs.create(self._run_name(), write_buffer_pages=4)
        handle.extend(run)
        handle.close()
        return handle

    def _persist_two_way_run(self, run_streams) -> _ChainedRunSource:
        """Write one 2WRS run to disk as two physical files.

        The decreasing BottomHeap output (stream 4) goes to an
        Appendix A backwards-written file so the merge reads it forward;
        the remaining streams — 3, reversed 2, 1, whose concatenation is
        ascending by the range-disjointness of the streams — share one
        ordinary file.  (The paper keeps four physical streams; at our
        reduced scale a run spans only a handful of pages, so the
        per-file fixed costs that are negligible in the paper's setting
        would dominate.  Coalescing the materialised streams preserves
        both the record order and the sequential read pattern; see
        DESIGN.md section 5.)
        """
        page_records = self.fs.disk.geometry.page_records
        parts: List[Any] = []
        if run_streams.stream4:
            pages = max(2, len(run_streams.stream4) // page_records + 2)
            writer = ReverseRunWriter(
                self.fs, self._run_name(), pages_per_file=pages
            )
            for record in run_streams.stream4:
                writer.append(record)
            writer.close()
            parts.append(ReverseRunReader(writer))
        ascending: List[Any] = list(run_streams.stream3)
        ascending.extend(reversed(run_streams.stream2))
        ascending.extend(run_streams.stream1)
        if ascending:
            handle = self.fs.create(self._run_name(), write_buffer_pages=4)
            handle.extend(ascending)
            handle.close()
            parts.append(handle)
        return _ChainedRunSource(parts)

    def _run_name(self) -> str:
        name = f"run-{id(self)}-{self._next_run_id}"
        self._next_run_id += 1
        return name
