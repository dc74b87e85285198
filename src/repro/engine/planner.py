"""Sort planner and the :class:`SortEngine` facade (DESIGN.md §9).

One entry point for every sorting backend in the repository.  Given a
memory budget, a worker count, a :class:`~repro.core.records.
RecordFormat` and (when known) the input size, :func:`plan_sort` picks
an **execution mode**: ``in_memory`` (the whole input fits in the sort
budget), ``spill`` (:class:`~repro.sort.spill.FileSpillSort`), or
``parallel`` (:class:`~repro.sort.parallel.PartitionedSort`).  Every
spilling mode's final merge reads its runs synchronously, one block
per run at a time (DESIGN.md §9.3).

The decision table (also in DESIGN.md §9):

========================  ===========
condition                 mode
========================  ===========
``workers > 1``           parallel
``n <= memory``           in_memory
otherwise / n unknown     spill
========================  ===========

When the input size is unknown the engine *probes*: it buffers up to
``memory + 1`` records before deciding, so tiny inputs are sorted in
memory without ever touching the disk and anything larger streams
through the spill backend with the probe chained back in front.

The engine also owns the format-compatibility rule for 2WRS: the
victim buffer's gap arithmetic needs numeric records, so for
non-numeric formats (str, delimited rows) a 2WRS spec is rebuilt with
``buffer_setup="input"`` (the mean heuristic already degrades
gracefully by itself).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence, TextIO

from repro.core.config import RECOMMENDED, GeneratorSpec
from repro.core.records import INT, RecordFormat
from repro.engine.block_io import (
    DEFAULT_BLOCK_RECORDS,
    BlockWriter,
    iter_records,
    validate_block_records,
)
from repro.engine.report import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport
from repro.engine.spill_codec import validate_codec
from repro.merge.kway import (
    DEFAULT_FAN_IN,
    MergeCounter,
    records_of,
    validate_merge_params,
)
from repro.runs.base import log_cost
from repro.sort.spill import DEFAULT_BUFFER_RECORDS, FileSpillSort

#: Execution modes a plan can select.
SORT_MODES = ("in_memory", "spill", "parallel")

#: How a parallel plan maps records to workers (``partition=``).
PARTITION_STRATEGIES = ("hash", "range")


@dataclass(frozen=True, slots=True)
class SortPlan:
    """The planner's decision for one sort."""

    mode: str
    fan_in: int
    buffer_records: int
    workers: int
    reason: str
    #: Spill codec for the chosen mode (DESIGN.md §15); ``None`` for
    #: the in-memory mode, which writes no spill files at all.
    codec: Optional[str] = "none"


def plan_sort(
    *,
    memory: int,
    workers: int = 1,
    input_records: Optional[int] = None,
    fan_in: int = DEFAULT_FAN_IN,
    buffer_records: int = DEFAULT_BUFFER_RECORDS,
    codec: str = "none",
) -> SortPlan:
    """Apply the decision table; see the module docstring."""
    validate_merge_params(fan_in, buffer_records)
    if memory < 1:
        raise ValueError(f"memory must be >= 1, got {memory}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    codec = validate_codec(codec)

    if workers > 1:
        return SortPlan(
            mode="parallel",
            fan_in=fan_in,
            buffer_records=buffer_records,
            workers=workers,
            reason=f"workers={workers} requested",
            codec=codec,
        )
    if input_records is not None and input_records <= memory:
        return SortPlan(
            mode="in_memory",
            fan_in=fan_in,
            buffer_records=buffer_records,
            workers=1,
            reason=f"{input_records} records fit the {memory}-record budget",
            codec=None,
        )
    if input_records is not None and input_records <= memory * fan_in:
        why = "single warm merge pass"
    else:
        why = "large or unknown input"
    return SortPlan(
        mode="spill",
        fan_in=fan_in,
        buffer_records=buffer_records,
        workers=1,
        reason=why,
        codec=codec,
    )


def spec_for_format(
    spec: GeneratorSpec, record_format: RecordFormat
) -> GeneratorSpec:
    """Adjust a 2WRS spec for formats whose records lack arithmetic.

    The victim buffer computes numeric gaps between records; for
    non-numeric formats the spec is rebuilt with the input-buffer-only
    setup (order-based routing works for any comparable keys).
    """
    if record_format.numeric or spec.algorithm != "2wrs":
        return spec
    two_way = spec.two_way if spec.two_way is not None else RECOMMENDED
    if two_way.buffer_setup == "input":
        return spec if spec.two_way is not None else replace(
            spec, two_way=two_way
        )
    return replace(spec, two_way=replace(two_way, buffer_setup="input"))


class SortEngine:
    """Facade over every sort backend behind one plan and one report.

    Parameters
    ----------
    spec:
        Generator recipe (algorithm + memory + 2WRS factors).
    record_format:
        Typed record serialisation and key extraction (integers by
        default; see :mod:`repro.core.records`).  The format decides
        the spill body: csv/tsv rows from
        :func:`~repro.core.records.resolve_format` carry key bytes
        and spill as binary records (DESIGN.md §14), ints as int64
        arrays, everything else as text.
    workers / partition / sample_records:
        Parallel decomposition knobs (:class:`PartitionedSort`).
    fan_in / buffer_records:
        Merge tree width and per-run read-buffer records.
    block_records:
        Records per encode/decode batch on the engine's own input and
        output streams (:meth:`sort_stream`).
    work_dir / input_fingerprint:
        Durable mode (DESIGN.md §11): spilling backends journal their
        progress under the stable ``work_dir`` (kept on failure,
        removed on success) so ``sort(..., resume=True)`` can skip
        every run or shard that survived a previous attempt.
        ``input_fingerprint`` ties the journal to one input; the CLI
        passes path + size + mtime.
    tmp_dir / cpu_op_time:
        Passed through to the chosen backend.

    After a sort is fully consumed, :attr:`report` holds the unified
    :class:`SortReport`, :attr:`plan` the decision that was executed,
    and :attr:`merge_passes` / :attr:`max_resident_records` /
    :attr:`max_open_readers` the merge-side instrumentation (zeros for
    the in-memory mode).  :attr:`backend` is the underlying sorter
    (None for in-memory), for callers that need backend-specific detail
    (per-worker reports, cut points).
    """

    def __init__(
        self,
        spec: GeneratorSpec,
        *,
        record_format: RecordFormat = INT,
        workers: int = 1,
        partition: str = "hash",
        sample_records: Optional[int] = None,
        fan_in: int = DEFAULT_FAN_IN,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        block_records: int = DEFAULT_BLOCK_RECORDS,
        spill_codec: str = "none",
        work_dir: Optional[str] = None,
        input_fingerprint: Optional[str] = None,
        tmp_dir: Optional[str] = None,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
    ) -> None:
        validate_merge_params(fan_in, buffer_records)
        validate_block_records(block_records)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec_for_format(spec, record_format)
        self.record_format = record_format
        self.workers = workers
        self.partition = partition
        self.sample_records = sample_records
        self.fan_in = fan_in
        self.buffer_records = buffer_records
        self.block_records = block_records
        #: Concrete spill codec (DESIGN.md §15): ``"auto"`` is ``"none"``.
        self.spill_codec = validate_codec(spill_codec)
        self.work_dir = work_dir
        self.input_fingerprint = input_fingerprint
        self.tmp_dir = tmp_dir
        self.cpu_op_time = cpu_op_time
        self._resume = False
        # -- filled in by sort() / merge_files() --
        self.plan: Optional[SortPlan] = None
        self.backend: Optional[Any] = None
        self.report: Optional[SortReport] = None
        self.merge_passes = 0
        self.max_resident_records = 0
        self.max_open_readers = 0
        #: Durable-mode reuse accounting of the last sort (zeros for
        #: fresh or non-durable sorts).
        self.runs_reused = 0
        self.merges_reused = 0
        self.shards_reused = 0

    # -- public API --------------------------------------------------------------

    def sort(
        self,
        records: Iterable[Any],
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield ``records`` in ascending order.

        ``input_records`` (when the caller knows it) lets the planner
        decide without probing; otherwise up to ``memory + 1`` records
        are buffered to tell tiny inputs from spilling ones.

        ``resume=True`` (requires ``work_dir``) reuses a compatible
        journal left behind by a previous failed attempt: surviving
        runs / shards are verified and skipped, and the output is
        byte-identical to an uninterrupted sort.  Inputs small enough
        to sort in memory never have anything to resume.

        The per-record view of :meth:`sort_blocks`; the plan is made
        before this returns.
        """
        return records_of(self.sort_blocks(records, input_records, resume))

    def sort_blocks(
        self,
        records: Iterable[Any],
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[List[Any]]:
        """Plan and start a sort as :meth:`sort` does, yielding the
        output as lists of records (each at most
        ``max(block_records, 2 * buffer_records)`` long)."""
        if resume and self.work_dir is None:
            raise ValueError("resume=True requires a work_dir")
        self._resume = resume
        self.runs_reused = 0
        self.merges_reused = 0
        self.shards_reused = 0
        stream = iter(records)
        memory = self.spec.memory
        if self.workers > 1 or input_records is not None:
            plan = self._plan(input_records)
        else:
            probe = list(islice(stream, memory + 1))
            plan = self._plan(len(probe) if len(probe) <= memory else None)
            stream = chain(probe, stream)
        self.plan = plan
        if plan.mode == "in_memory":
            return self._sort_in_memory(stream)
        if plan.mode == "parallel":
            return self._sort_parallel(stream)
        return self._sort_spill(stream)

    def sort_stream(
        self, source: TextIO, sink: TextIO, resume: bool = False
    ) -> int:
        """Decode ``source``, sort, encode into ``sink``; return length.

        Both directions move in blocks of :attr:`block_records`
        records, and the merge hands the writer lists, not records;
        blank input lines are tolerated (the CLI's historical
        contract).  ``resume`` is forwarded to :meth:`sort`.
        """
        records = iter_records(
            source, self.record_format, self.block_records, skip_blank=True,
            codec=None,
        )
        writer = BlockWriter(
            sink, self.record_format, self.block_records, codec=None
        )
        writer.write_blocks(self.sort_blocks(records, resume=resume))
        writer.flush()
        return writer.written

    def merge_files(self, paths: Sequence[str]) -> Iterator[Any]:
        """Merge already-sorted files into one ascending stream.

        Input files are read, never deleted; intermediate passes (when
        ``len(paths) > fan_in``) spill to a private temp directory.
        :attr:`report` afterwards carries the merge phase only.
        """
        from repro.sort.spill import (
            SpilledRun,
            SpillSession,
            merge_spilled_blocks,
            publish_instrumentation,
        )

        session = SpillSession(
            tempfile.mkdtemp(prefix="repro-merge-", dir=self.tmp_dir),
            codec=self.spill_codec,
        )
        counter = MergeCounter()
        # Input files are caller-provided plain lines; only the merge's
        # own intermediate spills are RBLC block streams.
        runs = [
            SpilledRun(
                session, path, 0, self.record_format, self.buffer_records,
                keep=True, plain=True,
            )
            for path in paths
        ]
        report = SortReport(algorithm=f"MERGE[{len(paths)}]", records=0)
        try:
            started = time.perf_counter()
            count = 0
            for block in merge_spilled_blocks(
                session, runs, counter, self.record_format,
                self.fan_in, self.buffer_records,
            ):
                count += len(block)
                yield from block
            report.records = count
            report.merge_phase = PhaseReport(
                cpu_ops=counter.cpu_ops,
                cpu_time=counter.cpu_ops * self.cpu_op_time,
                wall_time=time.perf_counter() - started,
            )
        finally:
            publish_instrumentation(self, session, report)
            session.cleanup()

    # -- internals -----------------------------------------------------------------

    def _plan(self, input_records: Optional[int]) -> SortPlan:
        return plan_sort(
            memory=self.spec.memory,
            workers=self.workers,
            input_records=input_records,
            fan_in=self.fan_in,
            buffer_records=self.buffer_records,
            codec=self.spill_codec,
        )

    def _sort_in_memory(self, stream: Iterable[Any]) -> Iterator[List[Any]]:
        started = time.perf_counter()
        data = sorted(stream)
        n = len(data)
        # Analytic cost of an n log n sort, so in-memory reports stay
        # comparable with the generators' heap accounting.
        cpu_ops = n * log_cost(n) if n else 0
        report = SortReport(
            algorithm="MEM",
            records=n,
            runs=1 if n else 0,
            run_lengths=[n] if n else [],
        )
        report.run_phase = PhaseReport(
            cpu_ops=cpu_ops,
            cpu_time=cpu_ops * self.cpu_op_time,
            wall_time=time.perf_counter() - started,
        )
        self.backend = None
        self.merge_passes = 0
        self.max_resident_records = 0
        self.max_open_readers = 0
        self.report = report
        size = self.block_records
        return (data[start:start + size] for start in range(0, n, size))

    def _sort_spill(self, stream: Iterable[Any]) -> Iterator[List[Any]]:
        backend: FileSpillSort
        if self.work_dir is None:
            backend = FileSpillSort(
                self.spec.build(),
                fan_in=self.fan_in,
                buffer_records=self.buffer_records,
                tmp_dir=self.tmp_dir,
                record_format=self.record_format,
                cpu_op_time=self.cpu_op_time,
                spill_codec=self.spill_codec,
            )
        else:
            from repro.engine.resilience import ResumableSpillSort

            # Durable sorts run LSS, the cheapest per job (DESIGN.md §11).
            backend = ResumableSpillSort(
                memory=self.spec.memory,
                work_dir=self.work_dir,
                fan_in=self.fan_in,
                buffer_records=self.buffer_records,
                record_format=self.record_format,
                resume=self._resume,
                input_fingerprint=self.input_fingerprint,
                cpu_op_time=self.cpu_op_time,
                spill_codec=self.spill_codec,
            )
        self.backend = backend
        return self._finishing(backend, backend.sort_blocks(stream))

    def _sort_parallel(self, stream: Iterable[Any]) -> Iterator[List[Any]]:
        from repro.sort.parallel import PartitionedSort

        kwargs = {}
        if self.sample_records is not None:
            kwargs["sample_records"] = self.sample_records
        backend = PartitionedSort(
            self.spec,
            workers=self.workers,
            partition=self.partition,
            fan_in=self.fan_in,
            buffer_records=self.buffer_records,
            tmp_dir=self.tmp_dir,
            record_format=self.record_format,
            work_dir=self.work_dir,
            resume=self._resume,
            input_fingerprint=self.input_fingerprint,
            cpu_op_time=self.cpu_op_time,
            spill_codec=self.spill_codec,
            **kwargs,
        )
        self.backend = backend
        return self._finishing(backend, backend.sort_blocks(stream))

    def _finishing(
        self, backend: Any, merged: Iterator[List[Any]]
    ) -> Iterator[List[Any]]:
        """Stream a backend's output, then mirror its instrumentation."""
        try:
            yield from merged
        finally:
            self.report = backend.report
            self.merge_passes = backend.merge_passes
            self.max_resident_records = backend.max_resident_records
            self.max_open_readers = backend.max_open_readers
            self.runs_reused = getattr(backend, "runs_reused", 0)
            self.merges_reused = getattr(backend, "merges_reused", 0)
            self.shards_reused = getattr(backend, "shards_reused", 0)
