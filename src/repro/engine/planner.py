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
from repro.engine.spill_codec import validate_codec
from repro.merge.kway import MergeCounter, validate_merge_params
from repro.merge.merge_tree import DEFAULT_FAN_IN
from repro.runs.base import log_cost
from repro.sort.external import (
    DEFAULT_CPU_OP_TIME,
    ExternalSort,
    PhaseReport,
    SortReport,
)
from repro.sort.spill import DEFAULT_BUFFER_RECORDS

#: Execution modes a plan can select.
SORT_MODES = ("in_memory", "spill", "parallel")


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


#: Operators :func:`plan_operator` knows how to place.
OPERATORS = ("distinct", "aggregate", "join", "topk", "merge")


@dataclass(frozen=True, slots=True)
class OperatorPlan:
    """The planner's decision for one relational operator.

    ``mode`` is ``"heap"`` for the top-k bounded-heap short-circuit
    (no sort happens at all), ``"in_memory"`` when the underlying sort
    fits the memory budget, and ``"sort"`` when the operator streams
    over an external (spilling or parallel) sort.  ``sort_plan`` is the
    delegated :class:`SortPlan` for the non-heap modes.
    """

    operator: str
    mode: str
    k: Optional[int]
    sort_plan: Optional[SortPlan]
    reason: str


def plan_operator(
    *,
    operator: str,
    memory: int,
    workers: int = 1,
    input_records: Optional[int] = None,
    k: Optional[int] = None,
    fan_in: int = DEFAULT_FAN_IN,
    buffer_records: int = DEFAULT_BUFFER_RECORDS,
    codec: str = "none",
) -> OperatorPlan:
    """Decision table for the sort-based operators (DESIGN.md §12).

    ==============================  ==========  =======================
    condition                       mode        executed as
    ==============================  ==========  =======================
    ``topk`` and ``k <= memory``    heap        bounded max-heap scan,
                                                no sort, no spill
    sort plan says ``in_memory``    in_memory   ``sorted()`` + stream
    otherwise                       sort        external sort, operator
                                                folds the final merge
    ==============================  ==========  =======================

    Everything below the first row delegates to :func:`plan_sort`, so
    the probe logic (buffer ``memory + 1`` records when the input size
    is unknown) is exactly the sort planner's.  The heap short-circuit
    only applies serially: a parallel top-k still routes through the
    partitioned sort so its output is produced by the same machinery
    it is compared against.
    """
    if operator not in OPERATORS:
        raise ValueError(
            f"unknown operator {operator!r}; known: {', '.join(OPERATORS)}"
        )
    if operator == "topk":
        if k is None or k < 0:
            raise ValueError(f"topk needs k >= 0, got {k}")
        if k <= memory and workers == 1:
            return OperatorPlan(
                operator="topk",
                mode="heap",
                k=k,
                sort_plan=None,
                reason=(
                    f"k={k} fits the {memory}-record budget; bounded "
                    f"heap scan, no sort"
                ),
            )
    sort_plan = plan_sort(
        memory=memory,
        workers=workers,
        input_records=input_records,
        fan_in=fan_in,
        buffer_records=buffer_records,
        codec=codec,
    )
    mode = "in_memory" if sort_plan.mode == "in_memory" else "sort"
    return OperatorPlan(
        operator=operator,
        mode=mode,
        k=k,
        sort_plan=sort_plan,
        reason=sort_plan.reason,
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
    tmp_dir / total_memory / cpu_op_time:
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
        total_memory: Optional[int] = None,
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
        self.total_memory = total_memory
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
        """
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
        records; blank input lines are tolerated (the CLI's historical
        contract).  ``resume`` is forwarded to :meth:`sort`.
        """
        records = iter_records(
            source, self.record_format, self.block_records, skip_blank=True,
            codec=None,
        )
        writer = BlockWriter(
            sink, self.record_format, self.block_records, codec=None
        )
        writer.write_all(self.sort(records, resume=resume))
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
            merge_spilled_runs,
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
            for record in merge_spilled_runs(
                session, runs, counter, self.record_format,
                self.fan_in, self.buffer_records,
            ):
                count += 1
                yield record
            report.records = count
            report.merge_phase = PhaseReport(
                cpu_ops=counter.cpu_ops,
                cpu_time=counter.cpu_ops * self.cpu_op_time,
                wall_time=time.perf_counter() - started,
            )
        finally:
            publish_instrumentation(self, session, report)
            session.cleanup()

    # -- relational operator facades (repro.ops; DESIGN.md §12) ----------------

    def sibling(
        self,
        record_format: Optional[RecordFormat] = None,
        work_dir_suffix: Optional[str] = None,
        input_fingerprint: Optional[str] = None,
    ) -> "SortEngine":
        """A fresh engine sharing this engine's knobs.

        Two-input operators (the sort-merge join) need one engine per
        input: each ``sort()`` owns per-engine report and backend
        state.  A durable engine's sibling gets its own work directory
        (``work_dir + work_dir_suffix``) so the two journals never
        collide.
        """
        work_dir = self.work_dir
        if work_dir is not None and work_dir_suffix:
            work_dir = work_dir + work_dir_suffix
        return SortEngine(
            self.spec,
            record_format=record_format or self.record_format,
            workers=self.workers,
            partition=self.partition,
            sample_records=self.sample_records,
            fan_in=self.fan_in,
            buffer_records=self.buffer_records,
            block_records=self.block_records,
            spill_codec=self.spill_codec,
            work_dir=work_dir,
            input_fingerprint=input_fingerprint,
            tmp_dir=self.tmp_dir,
            total_memory=self.total_memory,
            cpu_op_time=self.cpu_op_time,
        )

    def _run_operator(self, op: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
        self._last_operator = op
        return op.run(*args, **kwargs)

    @property
    def operator_report(self) -> Optional[Any]:
        """The :class:`~repro.ops.OperatorReport` of the last facade
        operator, once its stream is fully consumed (None before)."""
        op = getattr(self, "_last_operator", None)
        return op.report if op is not None else None

    def distinct(
        self,
        records: Iterable[Any],
        by: str = "record",
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield the distinct records (or keys) in sorted order."""
        from repro.ops.distinct import Distinct

        return self._run_operator(
            Distinct(self, by=by), records,
            input_records=input_records, resume=resume,
        )

    def aggregate(
        self,
        records: Iterable[Any],
        aggregates: Sequence[str] = ("count",),
        value_column: Optional[int] = None,
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[str]:
        """Group by the format's key; yield one aggregate row per group."""
        from repro.ops.aggregate import GroupByAggregate

        return self._run_operator(
            GroupByAggregate(
                self, aggregates=aggregates, value_column=value_column
            ),
            records, input_records=input_records, resume=resume,
        )

    def join(
        self,
        left_records: Iterable[Any],
        right_records: Iterable[Any],
        right_engine: Optional["SortEngine"] = None,
        right_format: Optional[RecordFormat] = None,
        buffer_limit: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[str]:
        """Sort-merge equi-join; yields combined output rows."""
        from repro.ops.join import SortMergeJoin

        if right_engine is None:
            right_engine = self.sibling(
                record_format=right_format, work_dir_suffix="-right"
            )
        return self._run_operator(
            SortMergeJoin(self, right_engine, buffer_limit=buffer_limit),
            left_records, right_records, resume=resume,
        )

    def topk(
        self,
        records: Iterable[Any],
        k: int,
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[Any]:
        """The ``k`` smallest records, ascending (``sort | head -k``)."""
        from repro.ops.topk import TopK

        return self._run_operator(
            TopK(self, k), records,
            input_records=input_records, resume=resume,
        )

    @staticmethod
    def simulate(
        spec: GeneratorSpec,
        records: Iterable[Any],
        fan_in: int = DEFAULT_FAN_IN,
    ) -> SortReport:
        """Run the *simulated* pipeline (:class:`ExternalSort`) once.

        The fourth backend behind the facade: analytic CPU + simulated
        disk timings for experiment harnesses and ``repro runs
        --report``.
        """
        generator = spec.build()
        pipeline = ExternalSort(generator, fan_in=fan_in)
        _, report = pipeline.sort(iter(records))
        return report

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

    def _sort_in_memory(self, stream: Iterable[Any]) -> Iterator[Any]:
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
        return iter(data)

    def _sort_spill(self, stream: Iterable[Any]) -> Iterator[Any]:
        if self.work_dir is not None:
            # Durable serial sorting swaps the run generator for the
            # journaled chunk-aligned one (DESIGN.md §11): exact resume
            # needs run boundaries that map back to input positions.
            from repro.engine.resilience import ResumableSpillSort

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
            return self._finishing(backend, backend.sort(stream))
        from repro.sort.spill import FileSpillSort

        backend = FileSpillSort(
            self.spec.build(),
            fan_in=self.fan_in,
            buffer_records=self.buffer_records,
            tmp_dir=self.tmp_dir,
            record_format=self.record_format,
            cpu_op_time=self.cpu_op_time,
            spill_codec=self.spill_codec,
        )
        self.backend = backend
        return self._finishing(backend, backend.sort(stream))

    def _sort_parallel(self, stream: Iterable[Any]) -> Iterator[Any]:
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
            total_memory=self.total_memory,
            work_dir=self.work_dir,
            resume=self._resume,
            input_fingerprint=self.input_fingerprint,
            cpu_op_time=self.cpu_op_time,
            spill_codec=self.spill_codec,
            **kwargs,
        )
        self.backend = backend
        return self._finishing(backend, backend.sort(stream))

    def _finishing(self, backend: Any, merged: Iterator[Any]) -> Iterator[Any]:
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
