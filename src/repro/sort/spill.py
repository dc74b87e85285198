"""Real-file spill backend for streaming external sorts (DESIGN.md §6).

The simulated pipeline (:mod:`repro.sort.external`) charges I/O to an
analytic disk clock; this module is its real-I/O twin for the CLI: runs
are spilled to temporary files *as the generator produces them*, and
the merge phase consumes them through lazy buffered readers,
``fan_in`` at a time.  The merge therefore holds
O(fan_in * buffer_records) records regardless of the input size, and
run generation holds O(memory_capacity) plus the run it is yielding:
a generator yields each run as one list, so the peak is bounded per
run, not per input (DESIGN.md §6 caveat).  2WRS runs can be far
longer than memory — its whole point — so its peak follows its
longest run: a default ``repro sort`` child peaks at 63.5 MB RSS on
the 1M-record ``mixed_balanced`` input that LSS sorts in 18.6 MB
(read with ``os.wait4`` from a small parent).  The previous CLI path
materialised every run and the merged output as Python lists.

Serialisation is delegated to a :class:`~repro.core.records.
RecordFormat` (DESIGN.md §9): spill files are checksummed RBLC block
streams written and read through :mod:`repro.engine.block_io` (every
block's CRC is verified on read-back, DESIGN.md §15).  Every merge,
intermediate or final, reads each run synchronously through
:meth:`SpilledRun.records`, one decoded block at a time (DESIGN.md
§9.3).

The backend instruments its own laziness: :attr:`FileSpillSort.
max_resident_records` tracks the largest number of records ever held in
read buffers at once and :attr:`FileSpillSort.max_open_readers` the
widest concurrent reader fan-in, so tests can assert the bounded-memory
property instead of trusting it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.records import INT, RecordFormat
from repro.engine.errors import SortError
from repro.engine.block_io import (
    BlockWriter,
    open_run,
    read_blocks,
    write_sequence,
)
from repro.engine.report import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport
from repro.engine.spill_codec import validate_codec
from repro.engine.merge_reading import open_reading
from repro.merge.kway import (
    DEFAULT_FAN_IN,
    MergeCounter,
    kway_merge,
    reduce_to_fan_in,
    validate_merge_params,
)
from repro.runs.base import RunGenerator, RunGeneratorStats

#: Records decoded per read chunk of one run reader.
DEFAULT_BUFFER_RECORDS = 4096

#: Name prefix of each :class:`FileSpillSort`'s private temp directory.
SPILL_DIR_PREFIX = "repro-sort-"


class SpillSession:
    """Per-``sort()`` state: temp directory and laziness accounting.

    Each call to :meth:`FileSpillSort.sort` owns one session, so
    overlapping or abandoned sorts on the same backend never share a
    temp directory or cross-wire each other's instrumentation.
    """

    def __init__(self, work_dir: str, codec: str = "none") -> None:
        self.work_dir = work_dir
        #: Spill codec (DESIGN.md §15) for every run and intermediate
        #: merge file written under this session.
        self.codec = validate_codec(codec)
        self.next_spill_id = 0
        self.merge_passes = 0
        self.resident = 0
        self.open_readers = 0
        self.max_resident_records = 0
        self.max_open_readers = 0
        #: Spill traffic: encoded record bytes before codec and block
        #: headers vs bytes actually written (headers included).
        self.spill_raw_bytes = 0
        self.spill_disk_bytes = 0

    def spilled(self, raw_bytes: int, disk_bytes: int) -> None:
        """Record one spill write's byte accounting."""
        self.spill_raw_bytes += raw_bytes
        self.spill_disk_bytes += disk_bytes

    def spill_path(self) -> str:
        path = os.path.join(self.work_dir, f"run-{self.next_spill_id:06d}.txt")
        self.next_spill_id += 1
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- laziness instrumentation ----------------------------------------------

    def buffer_grew(self, n: int) -> None:
        self.resident += n
        if self.resident > self.max_resident_records:
            self.max_resident_records = self.resident

    def buffer_shrank(self, n: int) -> None:
        self.resident -= n

    def reader_opened(self) -> None:
        self.open_readers += 1
        if self.open_readers > self.max_open_readers:
            self.max_open_readers = self.open_readers

    def reader_closed(self) -> None:
        self.open_readers -= 1


class SpilledRun:
    """One sorted run stored in a real temporary file.

    The file is an RBLC block stream under the session's codec, or,
    for ``plain=True``, a caller's plain-line file (``repro merge``
    inputs).  :meth:`records` is a lazy block-buffered reader that
    holds at most one decoded block at a time and deletes the file
    once it is fully consumed.
    """

    def __init__(
        self,
        session: SpillSession,
        path: str,
        length: int,
        record_format: RecordFormat = INT,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        keep: bool = False,
        plain: bool = False,
    ) -> None:
        self._session = session
        self.path = path
        self.length = length
        self.record_format = record_format
        self.buffer_records = buffer_records
        #: True for caller-owned files the merge must not delete
        #: (:meth:`SortEngine.merge_files` inputs) and for journaled
        #: durable runs, which only their resilience layer may delete.
        self.keep = keep
        #: The file's framing for :func:`~repro.engine.block_io.
        #: read_blocks`: ``None`` for a caller's plain-line file, else
        #: the session's spill codec.
        self.codec: Optional[str] = None if plain else session.codec
        #: Plain caller files tolerate blank separator lines, the same
        #: contract as the CLI's input streams.
        self.skip_blank = plain and record_format.blank_input_skippable

    def records(self) -> Iterator[Any]:
        """Yield the run's records in order, buffered and lazily.

        A run whose file ends early — block CRCs can only vouch for the
        blocks that *are* there, not for silently missing ones — fails
        with a :class:`~repro.engine.errors.SortError` naming the file
        and both counts, instead of quietly merging a partial run.
        """
        session = self._session
        delivered = 0
        session.reader_opened()
        try:
            with open_run(self.path, "r", self.codec) as handle:
                for chunk in read_blocks(
                    handle, self.record_format, self.buffer_records,
                    skip_blank=self.skip_blank, codec=self.codec,
                ):
                    delivered += len(chunk)
                    session.buffer_grew(len(chunk))
                    try:
                        yield from chunk
                    finally:
                        session.buffer_shrank(len(chunk))
        finally:
            session.reader_closed()
        if self.length and delivered != self.length:
            raise SortError(
                f"spilled run {self.path!r} delivered {delivered} records "
                f"but {self.length} were written — file was truncated or "
                f"lost blocks on disk"
            )
        self.discard()

    def discard(self) -> None:
        """Delete the backing file (idempotent; no-op for kept files)."""
        if self.keep:
            return
        try:
            os.remove(self.path)
        except OSError:
            pass


def merge_group_to_file(
    session: SpillSession,
    group: Sequence[SpilledRun],
    counter: MergeCounter,
    record_format: RecordFormat,
    buffer_records: int,
) -> SpilledRun:
    """Merge one group of spilled runs into a new spilled run file.

    The merge_group callable of one intermediate pass (see
    :func:`repro.merge.kway.reduce_to_fan_in`), shared by the serial
    spill backend, the parallel partitioned sort's parent merge, and
    the engine's file merge.
    """
    path = session.spill_path()
    with open_run(path, "w", session.codec) as out:
        writer = BlockWriter(out, record_format, buffer_records, session.codec)
        writer.write_all(
            kway_merge([run.records() for run in group], counter)
        )
        writer.flush()
    session.spilled(writer.raw_bytes, writer.disk_bytes)
    return SpilledRun(
        session, path, writer.written, record_format, buffer_records
    )


def merge_spilled_runs(
    session: SpillSession,
    runs: Sequence[SpilledRun],
    counter: MergeCounter,
    record_format: RecordFormat,
    fan_in: int,
    buffer_records: int,
    merge_group: Optional[Callable[[Sequence[SpilledRun]], SpilledRun]] = None,
) -> Iterator[Any]:
    """Reduce ``runs`` to ``fan_in`` and stream the final k-way merge.

    The shared merge tail of every real-file backend: intermediate
    passes (``merge_group``, :func:`merge_group_to_file` by default)
    write new spill files; the final merge reads the survivors through
    :meth:`SpilledRun.records`, as the intermediate passes do.
    ``session.merge_passes`` describes what happened once the stream
    is consumed.
    """
    if merge_group is None:
        def merge_group(group: Sequence[SpilledRun]) -> SpilledRun:
            return merge_group_to_file(
                session, group, counter, record_format, buffer_records
            )
    runs, extra_passes = reduce_to_fan_in(runs, fan_in, merge_group)
    session.merge_passes = 1 + extra_passes
    readers = open_reading(runs)
    try:
        yield from kway_merge(
            readers.streams(), counter,
            fan_in=fan_in, buffer_records=buffer_records,
        )
    finally:
        readers.close()


def publish_instrumentation(
    target: Any, session: SpillSession, report: Optional[SortReport]
) -> None:
    """Hand one sort's instrumentation to ``target`` (backend or engine).

    Called from the sort's ``finally``, so an abandoned or faulted
    merge still publishes: a truncating caller like top-k sees the
    run-phase stats with ``merge_phase`` zeroed.  ``report`` (None when
    run generation never finished) gains the session's spill bytes and
    becomes ``target.report``; the merge-side counters are copied as
    they stand.
    """
    if report is not None:
        report.spill_raw_bytes += session.spill_raw_bytes
        report.spill_disk_bytes += session.spill_disk_bytes
        target.report = report
    target.merge_passes = session.merge_passes
    target.max_resident_records = session.max_resident_records
    target.max_open_readers = session.max_open_readers


class FileSpillSort:
    """Streaming external sort over real temporary files.

    Parameters
    ----------
    generator:
        Any :class:`~repro.runs.base.RunGenerator`; each run it yields
        is written to its own temp file immediately and freed.
    fan_in:
        Maximum runs merged simultaneously; with more runs than this,
        intermediate merge passes write new spilled runs first.
    buffer_records:
        Decoded records each run reader holds at a time (also the
        block size of spill-file writes).
    tmp_dir:
        Parent directory for the per-sort temp directory (system
        default when None).
    record_format:
        Record <-> line serialisation and key extraction
        (:data:`~repro.core.records.INT` by default, matching the
        CLI's historical key format).
    cpu_op_time:
        Simulated seconds per analytic CPU op, for the report's
        ``cpu_time`` alongside the measured wall times.

    :attr:`report`, :attr:`merge_passes`, :attr:`max_resident_records`
    and :attr:`max_open_readers` describe the most recently *finished*
    sort (each ``sort()`` call keeps its own
    private state while running, so overlapping sorts do not
    interfere).
    """

    def __init__(
        self,
        generator: RunGenerator,
        fan_in: int = DEFAULT_FAN_IN,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        tmp_dir: Optional[str] = None,
        record_format: RecordFormat = INT,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
        spill_codec: str = "none",
    ) -> None:
        validate_merge_params(fan_in, buffer_records)
        self.generator = generator
        self.fan_in = fan_in
        self.buffer_records = buffer_records
        self.tmp_dir = tmp_dir
        self.record_format = record_format
        self.cpu_op_time = cpu_op_time
        #: Spill codec (DESIGN.md §15) for runs, intermediate merges
        #: and shard output files.  The final ``sort()`` stream is
        #: unaffected — codecs only change bytes at rest.
        self.spill_codec = validate_codec(spill_codec)
        #: CRC-32 of the bytes the last :meth:`sort_to_path` intended
        #: to write; shard completion markers record it so resume
        #: verification catches any divergence between intent and disk.
        self.last_output_crc: Optional[int] = None
        #: Final :class:`SortReport`; set once a sort is fully consumed.
        self.report: Optional[SortReport] = None
        #: Merge passes of the last sort (1 = single lazy merge).
        self.merge_passes = 0
        self.max_resident_records = 0
        self.max_open_readers = 0

    # -- public API --------------------------------------------------------------

    def sort(self, records: Iterable[Any]) -> Iterator[Any]:
        """Lazily yield ``records`` in ascending order.

        Runs are spilled to disk as they are generated; the returned
        iterator streams the merged output.  :attr:`report` holds the
        phase timings once the iterator is exhausted.  Abandoning the
        iterator mid-sort still removes all temporary files.
        """
        # Nothing between opening the session and entering the try:
        # every later failure — run generation raising mid-stream, a
        # decode error during the merge, the caller abandoning the
        # iterator — must reach the finally and close the session.
        session = self._open_session()
        report = None
        completed = False
        try:
            counter = MergeCounter()
            started = time.perf_counter()
            runs, algorithm, stats = self._spill_runs(records, session)
            run_wall = time.perf_counter() - started
            # Snapshot now: a later sort() on the same generator resets
            # its stats while this sort's merge is still streaming.
            report = SortReport(
                algorithm=algorithm,
                records=stats.records_in,
                runs=stats.runs_out,
                run_lengths=list(stats.run_lengths),
            )
            report.run_phase = PhaseReport(
                cpu_ops=stats.cpu_ops,
                cpu_time=stats.cpu_ops * self.cpu_op_time,
                wall_time=run_wall,
            )

            started = time.perf_counter()
            yield from merge_spilled_runs(
                session,
                runs,
                counter,
                self.record_format,
                self.fan_in,
                self.buffer_records,
                merge_group=self._merge_group(session, counter),
            )
            report.merge_phase = PhaseReport(
                cpu_ops=counter.cpu_ops,
                cpu_time=counter.cpu_ops * self.cpu_op_time,
                wall_time=time.perf_counter() - started,
            )
            completed = True
        finally:
            publish_instrumentation(self, session, report)
            self._close_session(session, completed)

    def sort_to_path(
        self,
        records: Iterable[Any],
        path: str,
        fsync: bool = False,
    ) -> int:
        """Sort ``records`` into the file at ``path``; return the length.

        Streaming block-buffered write of the merged output — the
        parallel partitioned sort uses this inside worker processes to
        leave one fully sorted file per shard behind.  The output's
        CRC-32 lands in :attr:`last_output_crc`; ``fsync`` forces the
        file to stable storage before returning — required before a
        durable completion marker may be written for the file.
        """
        with open_run(path, "w", self.spill_codec) as out:
            writer = BlockWriter(
                out, self.record_format, self.buffer_records,
                self.spill_codec,
            )
            writer.write_all(self.sort(records))
            writer.flush()
            if fsync:
                out.flush()
                os.fsync(out.fileno())
        self.last_output_crc = writer.file_crc
        if self.report is not None:
            # The shard file is spill traffic too: the parent merge
            # reads it back exactly like a run.
            self.report.spill_raw_bytes += writer.raw_bytes
            self.report.spill_disk_bytes += writer.disk_bytes
        return writer.written

    # -- steps a durable subclass overrides ----------------------------------

    def _open_session(self) -> SpillSession:
        """The per-sort spill session, over a fresh temp directory."""
        return SpillSession(
            tempfile.mkdtemp(prefix=SPILL_DIR_PREFIX, dir=self.tmp_dir),
            codec=self.spill_codec,
        )

    def _close_session(self, session: SpillSession, completed: bool) -> None:
        """Remove the temp directory, whether or not the sort finished."""
        session.cleanup()

    def _spill_runs(
        self, records: Iterable[Any], session: SpillSession
    ) -> Tuple[List[SpilledRun], str, RunGeneratorStats]:
        """Write each generated run to its own temp file, in blocks.

        Returns the runs, the algorithm name and the run-phase stats.
        """
        runs: List[SpilledRun] = []
        for run in self.generator.generate_runs(records):
            path = session.spill_path()
            write_sequence(
                path, run, self.record_format, self.buffer_records,
                codec=session.codec, session=session,
            )
            runs.append(SpilledRun(
                session, path, len(run), self.record_format,
                self.buffer_records,
            ))
        return runs, self.generator.name, self.generator.stats

    def _merge_group(
        self, session: SpillSession, counter: MergeCounter
    ) -> Callable[[Sequence[SpilledRun]], SpilledRun]:
        """The merge_group of this sort's intermediate passes."""
        return lambda group: self._merge_to_file(session, group, counter)

    def _merge_to_file(
        self,
        session: SpillSession,
        group: Sequence[SpilledRun],
        counter: MergeCounter,
    ) -> SpilledRun:
        """One intermediate merge pass node: group -> new spilled run."""
        return merge_group_to_file(
            session, group, counter, self.record_format, self.buffer_records
        )
