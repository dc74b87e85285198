"""Parallel partitioned external sort (DESIGN.md §8).

:class:`FileSpillSort` made the CLI pipeline O(memory) in space but it
still sorts on one core.  This module adds the classic shared-nothing
decomposition on top of it: the input stream is partitioned into
``workers`` shards (by hash or by sampled key ranges), each shard runs
the *entire* run-generation + spill + shard-local merge in its own
worker process, and the parent performs one final fan-in-bounded k-way
merge over the per-shard sorted files.  Because every shard's output is
itself sorted, the final merge is correct for any partitioning, and for
integer keys the merged stream is byte-identical to a serial sort of
the same input.

Memory is arbitrated, not multiplied: the workers share one
:class:`~repro.sort.memory_broker.MemoryBroker` budget hosted in a
manager process (:class:`~repro.sort.memory_broker.SharedMemoryBroker`),
so ``--workers 8 --memory 10000`` still uses ~10 000 records of sorting
memory in total.  Workers that cannot be granted their share
immediately wait in the broker's five-situation queue and are served
when a finishing worker releases.

Workers are spawn-safe: the only things crossing the process boundary
are a picklable :class:`~repro.core.config.GeneratorSpec`, file paths,
a picklable record format, and a broker proxy.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import GeneratorSpec
from repro.core.records import INT, RecordFormat
from repro.engine.block_io import (
    SPILL_FRAMING,
    BlockWriter,
    body_encoding,
    iter_records,
    open_run,
)
from repro.engine.errors import SortError
from repro.engine.spill_codec import validate_codec
from repro.merge.kway import MergeCounter, validate_merge_params
from repro.merge.merge_tree import DEFAULT_FAN_IN
from repro.sort.external import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport
from repro.sort.memory_broker import (
    MemoryBroker,
    SharedMemoryBroker,
    WaitSituation,
)
from repro.sort.spill import (
    DEFAULT_BUFFER_RECORDS,
    FileSpillSort,
    SpilledRun,
    SpillSession,
    merge_spilled_runs,
    publish_instrumentation,
)

#: Supported partitioning strategies.
PARTITION_STRATEGIES = ("hash", "range")

#: Smallest memory grant a worker will sort with.
MIN_WORKER_MEMORY = 2

#: Records sampled from the head of the stream to pick range cut points.
DEFAULT_SAMPLE_RECORDS = 8_192

#: 64-bit Fibonacci multiplier (golden-ratio hashing).
_FIB64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    The honest parallelism bound for sizing worker pools and for
    deciding whether a speedup assertion is even meaningful (the
    CPU-gated test and the scale benchmark both use this).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def hash_shard(
    record: Any, workers: int, encode: Callable[[Any], str] = str
) -> int:
    """Deterministic shard index of ``record`` under hash partitioning.

    Numeric records use ``hash()`` (seed-independent for numbers; the
    Fibonacci multiply scrambles the small-int identity mapping that
    would otherwise turn consecutive keys into ``key % workers``
    patterns).  Everything else — strings, delimited rows as text or
    as key-byte pairs — hashes ``crc32`` of its *encoded* line
    instead, because ``hash()`` on text depends on ``PYTHONHASHSEED``
    and would make shard sizes (and the ``shards=[...]`` report)
    differ on every invocation.  A key-byte row encodes to its stored
    line, so it shards exactly like the same row as text.
    """
    if isinstance(record, (int, float)):
        h = hash(record)
    else:
        h = zlib.crc32(encode(record).encode("utf-8"))
    return (((h * _FIB64) & _MASK64) >> 40) % workers


def range_cut_points(sample: Sequence[Any], workers: int) -> List[Any]:
    """``workers - 1`` ascending cut points from a sample of the input.

    Shard ``i`` receives the records in the ``[cut[i-1], cut[i])`` band
    (closed left, open right: :func:`bisect.bisect_right` sends a record
    equal to a cut point to the shard on its right), so per-shard
    outputs cover disjoint key ranges and the final merge degenerates
    to concatenation.  A skewed or tiny sample yields skewed shards —
    correctness never depends on the cuts, only balance does.
    """
    if workers < 2:
        return []
    ordered = sorted(sample)
    if not ordered:
        return []
    return [
        ordered[min(len(ordered) - 1, (len(ordered) * i) // workers)]
        for i in range(1, workers)
    ]


def _read_encoded(
    path: str,
    record_format: RecordFormat,
    buffer_records: int,
    codec: str = "none",
) -> Iterator[Any]:
    """Stream the records of one partition file.

    Decoding happens block-at-a-time through the record format, so the
    worker's ingest loop pays one Python-level call per block instead
    of one per record.  Every block's CRC is verified (DESIGN.md §15),
    so a partition file corrupted between parent and worker fails
    loudly in the worker instead of poisoning its shard.  Under a
    binary working format the blocks carry length-prefixed binary
    records, so shard transfer never decodes.
    """
    with open_run(path, "r", codec) as handle:
        yield from iter_records(
            handle, record_format, buffer_records, codec=codec
        )


def _acquire_memory(
    broker: Any, owner: str, want: int, poll: float, timeout: float
) -> int:
    """Block until the shared broker grants ``want`` records to ``owner``.

    The first attempt is one atomic grant-or-enqueue round-trip; after
    that the worker polls its own allocation, which the broker fills in
    priority order as finishing workers release their grants.  The
    ``timeout`` bounds the wait: if a sibling dies while holding its
    grant (OOM kill, signal) its release never runs, and an unbounded
    poll would hang the whole sort silently instead of failing.  The
    deadline restarts whenever the broker shows activity (a grant or
    release anywhere in the pool), so a busy pool with slow-but-alive
    siblings is not mistaken for a dead one — only a pool where nothing
    moves for ``timeout`` seconds fails.
    """
    granted = broker.request_or_enqueue(
        owner, want, WaitSituation.ABOUT_TO_START, maximum=want
    )
    deadline = time.monotonic() + timeout
    last_activity = broker.activity_count()
    while not granted:
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"{owner}: no memory grant of {want} records within "
                f"{timeout:.0f}s of broker inactivity — a sibling worker "
                f"may have died while holding its grant"
            )
        time.sleep(poll)
        activity = broker.activity_count()
        if activity != last_activity:
            last_activity = activity
            deadline = time.monotonic() + timeout
        granted = broker.allocated_to(owner)
    return granted


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything one worker process needs, in picklable form."""

    index: int
    partition_path: str
    output_path: str
    spec: GeneratorSpec
    fan_in: int
    buffer_records: int
    work_dir: str
    memory_request: int
    record_format: RecordFormat
    cpu_op_time: float
    poll_interval: float
    acquire_timeout: float
    #: Spill codec on partition, spill and shard files (DESIGN.md §15).
    codec: str = "none"
    #: Durable mode: fsync the shard output and leave a ``.ok``
    #: completion marker behind so a resumed parent can skip it.
    durable: bool = False
    #: Records the parent routed into this shard's partition file;
    #: the worker refuses to return a shard that lost any of them.
    expected_records: Optional[int] = None


@dataclass(slots=True)
class ShardResult:
    """What one worker sends back: its shard's report and accounting."""

    index: int
    output_path: str
    records: int
    granted_memory: int
    wait_time: float
    report: SortReport


def sort_shard(args: Tuple[ShardTask, Any]) -> ShardResult:
    """Worker entry point: fully sort one partition file.

    Top-level so the spawn start method can pickle it.  The worker
    acquires its memory grant from the shared broker, builds a private
    generator from the spec sized to that grant, streams the partition
    file through a :class:`FileSpillSort` into one sorted output file,
    and always releases its grant (re-granting waiters atomically).

    In durable mode the shard file is fsynced and a ``.ok`` completion
    marker (record count + CRC-32 of the intended bytes) is committed
    atomically afterwards, so a resumed parent re-sorts exactly the
    shards that lack a verifiable marker.
    """
    if os.environ.get("REPRO_FAULT_PLAN"):
        # Deterministic fault injection crosses the spawn boundary via
        # the environment; arm this worker's own counters.
        from repro.testing.faults import activate_from_env

        activate_from_env()
    task, broker = args
    owner = f"shard-{task.index}"
    waited = time.perf_counter()
    try:
        granted = _acquire_memory(
            broker, owner, task.memory_request, task.poll_interval,
            task.acquire_timeout,
        )
    except BaseException:
        # Sign off the broker even when the wait fails: the queued
        # request must be cancelled (and any grant that raced in
        # between the last poll and the raise released), or the pool
        # leaks memory to a worker that is about to exit.
        broker.release_and_regrant(owner)
        raise
    waited = time.perf_counter() - waited
    try:
        generator = task.spec.with_memory(granted).build()
        sorter = FileSpillSort(
            generator,
            fan_in=task.fan_in,
            buffer_records=task.buffer_records,
            tmp_dir=task.work_dir,
            record_format=task.record_format,
            cpu_op_time=task.cpu_op_time,
            spill_codec=task.codec,
        )
        length = sorter.sort_to_path(
            _read_encoded(
                task.partition_path, task.record_format,
                task.buffer_records, codec=task.codec,
            ),
            task.output_path,
            fsync=task.durable,
        )
        if (
            task.expected_records is not None
            and length != task.expected_records
        ):
            raise SortError(
                f"shard {task.index}: partition file "
                f"{task.partition_path!r} carried {task.expected_records} "
                f"records but {length} were sorted — partition data was "
                f"lost or corrupted in transit"
            )
        if task.durable:
            from repro.engine.resilience import MARKER_SUFFIX, write_marker

            write_marker(
                task.output_path + MARKER_SUFFIX,
                {"records": length, "crc32": sorter.last_output_crc},
            )
        # The partition file is fully consumed; free its disk before
        # the parent merge doubles the footprint.
        os.remove(task.partition_path)
        return ShardResult(
            task.index, task.output_path, length, granted, waited, sorter.report
        )
    finally:
        broker.release_and_regrant(owner)


class PartitionedSort:
    """Partition the input into shards and sort them in parallel.

    Parameters
    ----------
    spec:
        Recipe for each worker's run generator.  ``spec.memory`` is the
        *shared* budget for the whole sort unless ``total_memory``
        overrides it; each worker asks the broker for an equal share.
    workers:
        Number of shard processes (1 = serial in-process fallback that
        still goes through partitioning, for byte-identical plumbing).
    partition:
        "hash" (default; balanced for any distribution) or "range"
        (sampled cut points; shards cover disjoint key ranges).
    fan_in / buffer_records / tmp_dir / record_format / cpu_op_time:
        As in :class:`FileSpillSort`; the format must be picklable so
        the spawn start method can ship it to workers.
    total_memory:
        Broker pool size in records (defaults to ``spec.memory``).
    mp_context:
        Multiprocessing start method ("spawn" by default — the only
        one that is safe everywhere and matches production forkservers).
    sample_records:
        Head-of-stream records buffered to choose range cut points.
    work_dir / resume / input_fingerprint:
        Durable mode (DESIGN.md §11): shards are sorted under a stable
        ``work_dir`` with fsync + atomic ``.ok`` completion markers,
        kept on failure, and ``resume=True`` skips every shard whose
        marker still verifies — a killed worker costs only its own
        shard, not the whole sort.  ``input_fingerprint`` ties the
        directory to one input (mismatch wipes and starts fresh).

    After a sort is fully consumed, :attr:`report` holds the combined
    :class:`SortReport`, :attr:`worker_reports` the per-shard reports
    in shard order, :attr:`cut_points` the sampled range boundaries
    (range partitioning only), and :attr:`partition_wall` /
    :attr:`merge_passes` / :attr:`max_resident_records` /
    :attr:`max_open_readers` describe the parent-side phases.
    """

    def __init__(
        self,
        spec: GeneratorSpec,
        workers: int,
        partition: str = "hash",
        fan_in: int = DEFAULT_FAN_IN,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        tmp_dir: Optional[str] = None,
        record_format: RecordFormat = INT,
        total_memory: Optional[int] = None,
        mp_context: str = "spawn",
        sample_records: int = DEFAULT_SAMPLE_RECORDS,
        work_dir: Optional[str] = None,
        resume: bool = False,
        input_fingerprint: Optional[str] = None,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
        poll_interval: float = 0.005,
        acquire_timeout: float = 600.0,
        spill_codec: str = "none",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if partition not in PARTITION_STRATEGIES:
            raise ValueError(
                f"partition must be one of {PARTITION_STRATEGIES}, "
                f"got {partition!r}"
            )
        validate_merge_params(fan_in, buffer_records)
        if sample_records < 1:
            raise ValueError(
                f"sample_records must be >= 1, got {sample_records}"
            )
        self.spec = spec
        self.workers = workers
        self.partition = partition
        self.fan_in = fan_in
        self.buffer_records = buffer_records
        self.tmp_dir = tmp_dir
        self.record_format = record_format
        self.total_memory = total_memory if total_memory is not None else spec.memory
        if self.total_memory < MIN_WORKER_MEMORY:
            raise ValueError(
                f"total_memory must be >= {MIN_WORKER_MEMORY}, "
                f"got {self.total_memory}"
            )
        self.mp_context = mp_context
        self.sample_records = sample_records
        #: Spill codec (DESIGN.md §15) on partition, worker-spill and
        #: shard files; the parent's final merge reads it back.
        self.spill_codec = validate_codec(spill_codec)
        self.work_dir = work_dir
        self.resume = resume
        self.input_fingerprint = input_fingerprint
        self.cpu_op_time = cpu_op_time
        self.poll_interval = poll_interval
        self.acquire_timeout = acquire_timeout
        #: Equal broker share each worker requests (all-or-nothing).
        self.memory_per_worker = max(
            MIN_WORKER_MEMORY, self.total_memory // workers
        )
        # -- filled in once a sort() is fully consumed --
        self.report: Optional[SortReport] = None
        self.worker_reports: List[SortReport] = []
        self.shard_records: List[int] = []
        self.granted_memories: List[int] = []
        self.cut_points: List[Any] = []
        self.partition_wall = 0.0
        self.merge_passes = 0
        self.max_resident_records = 0
        self.max_open_readers = 0
        #: Shards whose completion markers let a resume skip re-sorting.
        self.shards_reused = 0
        #: Records routed into each partition file by the last sort.
        self._partition_counts: List[Optional[int]] = [None] * workers
        #: (raw, disk) bytes the parent wrote into partition files.
        self._partition_bytes: Tuple[int, int] = (0, 0)

    # -- public API --------------------------------------------------------------

    def sort(self, records: Iterable[Any]) -> Iterator[Any]:
        """Lazily yield ``records`` in ascending order.

        Partitioning and the worker fan-out happen on the first
        ``next()``; the returned iterator then streams the parent-side
        merge of the per-shard sorted files.  Without a ``work_dir``
        all temporary files are removed even when the sort raises or
        is abandoned mid-stream; in durable mode a failed sort keeps
        the directory (sorted shards, completion markers, journal) so
        a ``resume`` re-sorts only what is missing, and only a fully
        consumed sort removes it.
        """
        durable = self.work_dir is not None
        if durable:
            from repro.engine.resilience import SortJournal

            # The journal is the compatibility gate: a manifest from a
            # different configuration or input wipes the directory so
            # stale shards can never be merged into fresh output.
            # Shard-level progress itself lives in the ``.ok`` markers
            # the workers commit (concurrency-free, crash-atomic).
            SortJournal.open_dir(
                self.work_dir, self._fingerprint(), self.resume
            ).close()
            work_dir = self.work_dir
        else:
            work_dir = tempfile.mkdtemp(prefix="repro-psort-", dir=self.tmp_dir)
        self.shards_reused = 0
        completed = False
        try:
            started = time.perf_counter()
            partition_paths = self._partition(records, work_dir)
            self.partition_wall = time.perf_counter() - started

            started = time.perf_counter()
            results = self._run_workers(partition_paths, work_dir, durable)
            workers_wall = time.perf_counter() - started

            report = self._combine_reports(results)
            report.run_phase.wall_time = self.partition_wall + workers_wall

            started = time.perf_counter()
            merge_dir = os.path.join(work_dir, "merge")
            os.makedirs(merge_dir, exist_ok=True)
            session = SpillSession(merge_dir, codec=self.spill_codec)
            counter = MergeCounter()
            runs = [
                SpilledRun(
                    session,
                    result.output_path,
                    result.records,
                    self.record_format,
                    self.buffer_records,
                    # Durable shard files must survive a failed final
                    # merge so the resume can reuse them; cleanup
                    # removes them with the directory on success.
                    keep=durable,
                )
                for result in results
            ]
            try:
                yield from merge_spilled_runs(
                    session,
                    runs,
                    counter,
                    self.record_format,
                    self.fan_in,
                    self.buffer_records,
                )
                merge_wall = time.perf_counter() - started

                report.merge_phase.cpu_ops += counter.cpu_ops
                report.merge_phase.cpu_time += (
                    counter.cpu_ops * self.cpu_op_time
                )
                report.merge_phase.wall_time = merge_wall
                completed = True
            finally:
                publish_instrumentation(self, session, report)
        finally:
            if not durable or completed:
                shutil.rmtree(work_dir, ignore_errors=True)

    # -- internals -----------------------------------------------------------------

    def _fingerprint(self) -> dict:
        """Parameters a durable work directory must match to be resumed."""
        return {
            "mode": "parallel",
            "workers": self.workers,
            "partition": self.partition,
            "memory": self.spec.memory,
            "total_memory": self.total_memory,
            "fan_in": self.fan_in,
            "buffer_records": self.buffer_records,
            "format": self.record_format.name,
            "framing": SPILL_FRAMING,
            # Body kinds are not mutually readable: a resume across
            # a kind switch must wipe and start over.
            "encoding": body_encoding(self.record_format),
            # Same rule for codecs: shard files written under one codec
            # are unreadable under another, so the codec is part of the
            # resume identity (no mixed-codec work dirs).
            "codec": self.spill_codec,
            "input": self.input_fingerprint,
        }

    def _partition(
        self, records: Iterable[Any], work_dir: str
    ) -> List[str]:
        """Route the input stream into one partition file per worker.

        This loop is the sort's sequential bottleneck, so it does no
        accounting — per-shard record counts come back from the workers.
        Writes are batched per shard, but the batches together never
        hold more than ``total_memory`` records: the parent's
        partitioning residency stays inside the same budget the
        workers share, instead of adding ``workers * buffer_records``
        of unaccounted memory on top.
        """
        paths = [
            os.path.join(work_dir, f"part-{i:03d}.txt")
            for i in range(self.workers)
        ]
        block_records = max(
            1, min(self.buffer_records, self.total_memory // self.workers)
        )
        shard_of, stream = self._shard_function(iter(records))
        handles: List[Any] = []
        try:
            for path in paths:
                handles.append(open_run(path, "w", self.spill_codec))
            writers = [
                BlockWriter(
                    handle, self.record_format, block_records,
                    self.spill_codec,
                )
                for handle in handles
            ]
            for record in stream:
                writers[shard_of(record)].write(record)
            for writer in writers:
                writer.flush()
            #: Per-shard routed counts; workers verify nothing was lost
            #: between the parent's writes and their reads.
            self._partition_counts = [writer.written for writer in writers]
            self._partition_bytes = (
                sum(writer.raw_bytes for writer in writers),
                sum(writer.disk_bytes for writer in writers),
            )
        finally:
            for handle in handles:
                handle.close()
        return paths

    def _shard_function(
        self, stream: Iterator[Any]
    ) -> Tuple[Callable[[Any], int], Iterator[Any]]:
        """Build the record -> shard map; returns (map, stream).

        For range partitioning the first ``sample_records`` records are
        buffered to pick cut points and then chained back in front of
        the remaining stream, so no record is lost and the input is
        still consumed exactly once.
        """
        if self.workers == 1:
            return (lambda record: 0), stream
        if self.partition == "hash":
            workers = self.workers
            encode = self.record_format.encode
            return (
                lambda record: hash_shard(record, workers, encode)
            ), stream
        sample: List[Any] = []
        for record in stream:
            sample.append(record)
            if len(sample) >= self.sample_records:
                break
        cuts = range_cut_points(sample, self.workers)
        self.cut_points = cuts

        def _replay(remainder: Iterator[Any]) -> Iterator[Any]:
            yield from sample
            yield from remainder

        return (lambda record: bisect_right(cuts, record)), _replay(stream)

    def _run_workers(
        self, partition_paths: List[str], work_dir: str, durable: bool
    ) -> List[ShardResult]:
        """Fan the shard tasks out to the worker pool; shard order kept.

        In durable mode, shards whose completion markers verify
        against their on-disk files are not re-sorted: their results
        are synthesised from the markers (``algorithm="REUSED"``,
        zero worker cost) and only the remaining shards go to the
        pool — a killed worker's shard is exactly what gets redone.
        """
        tasks = [
            ShardTask(
                index=i,
                partition_path=path,
                output_path=os.path.join(work_dir, f"shard-{i:03d}.sorted"),
                spec=self.spec,
                fan_in=self.fan_in,
                buffer_records=self.buffer_records,
                work_dir=work_dir,
                memory_request=self.memory_per_worker,
                record_format=self.record_format,
                cpu_op_time=self.cpu_op_time,
                poll_interval=self.poll_interval,
                acquire_timeout=self.acquire_timeout,
                codec=self.spill_codec,
                durable=durable,
                expected_records=self._partition_counts[i],
            )
            for i, path in enumerate(partition_paths)
        ]
        results: List[ShardResult] = []
        pending = tasks
        if durable:
            from repro.engine.resilience import (
                MARKER_SUFFIX,
                artifact_valid,
                read_marker,
            )

            pending = []
            for task in tasks:
                marker = read_marker(task.output_path + MARKER_SUFFIX)
                if (
                    marker is not None
                    and isinstance(marker.get("records"), int)
                    and artifact_valid(
                        task.output_path, marker.get("crc32", -1)
                    )
                ):
                    try:
                        os.remove(task.partition_path)
                    except OSError:
                        pass
                    results.append(
                        ShardResult(
                            index=task.index,
                            output_path=task.output_path,
                            records=marker["records"],
                            granted_memory=0,
                            wait_time=0.0,
                            report=SortReport(
                                algorithm="REUSED",
                                records=marker["records"],
                            ),
                        )
                    )
                else:
                    pending.append(task)
            self.shards_reused = len(results)
        if not pending:
            pass
        elif self.workers == 1 or len(pending) == 1:
            # Serial fallback: same worker code path, but against a
            # plain in-process broker — no manager process, no proxies.
            broker = MemoryBroker(self.total_memory)
            results.extend(sort_shard((task, broker)) for task in pending)
        else:
            with SharedMemoryBroker(
                self.total_memory, self.mp_context
            ) as broker:
                ctx = get_context(self.mp_context)
                with ctx.Pool(
                    processes=min(self.workers, len(pending))
                ) as pool:
                    results.extend(
                        pool.map(
                            sort_shard,
                            [(task, broker.proxy) for task in pending],
                        )
                    )
        results.sort(key=lambda result: result.index)
        self.worker_reports = [result.report for result in results]
        self.shard_records = [result.records for result in results]
        self.granted_memories = [result.granted_memory for result in results]
        return results

    def _combine_reports(self, results: List[ShardResult]) -> SortReport:
        """Aggregate per-shard reports into one combined SortReport.

        CPU ops add up across shards (total work); wall times do not
        (the shards overlap), so the phase wall times are measured on
        the parent side instead.
        """
        reports = [result.report for result in results]
        combined = SortReport(
            algorithm=(
                f"{self.spec.algorithm.upper()}"
                f"[{self.partition}:{self.workers}]"
            ),
            records=sum(r.records for r in reports),
            runs=sum(r.runs for r in reports),
            run_lengths=[n for r in reports for n in r.run_lengths],
        )
        run_ops = sum(r.run_phase.cpu_ops for r in reports)
        merge_ops = sum(r.merge_phase.cpu_ops for r in reports)
        combined.run_phase = PhaseReport(
            cpu_ops=run_ops, cpu_time=run_ops * self.cpu_op_time
        )
        combined.merge_phase = PhaseReport(
            cpu_ops=merge_ops, cpu_time=merge_ops * self.cpu_op_time
        )
        # Spill traffic: the parent's partition files plus every
        # worker's runs, intermediate merges and shard output.  The
        # parent-side final merge adds its own bytes when it finishes.
        part_raw, part_disk = self._partition_bytes
        combined.spill_raw_bytes = part_raw + sum(
            r.spill_raw_bytes for r in reports
        )
        combined.spill_disk_bytes = part_disk + sum(
            r.spill_disk_bytes for r in reports
        )
        return combined
