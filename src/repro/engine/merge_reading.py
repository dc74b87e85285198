"""Real-file merge reading strategies (Section 3.7.2, off the simulator).

:mod:`repro.merge.reading` studies the paper's merge reading
strategies on a simulated disk.  This module ports three of them to
*actual file handles* feeding the final k-way merge, with prefetching
done by a small thread pool (reads overlap merging for real — Python
releases the GIL during file reads):

* **naive** — each run holds one buffer of ``buffer_records`` decoded
  records and refills it synchronously when it empties (the seed's
  behaviour, and the zero-overhead choice for warm caches);
* **forecasting** (Knuth) — one extra buffer; after every refill the
  strategy compares the *tail* key of each run's in-memory block and
  prefetches the next block of the run whose tail is smallest — the
  run that must empty first — while the merge keeps consuming;
* **double_buffering** (Salzberg) — two half-sized buffers per run;
  whenever a block is handed to the merge, the reader immediately
  starts refilling its twin in the background.

All three consume identical record sequences, so the merged output is
byte-identical across strategies for any input; only the *timing* of
reads differs.  ``tests/test_merge_reading_files.py`` locks that
property over the six workload distributions.

The strategies deliberately speak the same instrumentation protocol as
:class:`repro.sort.spill.SpillSession` (``buffer_grew`` /
``buffer_shrank`` / ``reader_opened`` / ``reader_closed``), so bounded
-memory assertions keep working whichever strategy reads the files.
In-flight prefetch buffers are charged to the session too — at an
upper bound on the block's size from the moment the read is issued
until the block is claimed — so ``max_resident_records`` bounds true
peak memory, prefetching included.  Spill files are RBLC block streams
whose blocks come back in the size they were written with, so that
bound is the largest block read from the file so far.  All session
accounting happens on the consumer thread (prefetches are issued and
claimed there); worker threads only read and decode.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence

from repro.core.records import RecordFormat
from repro.engine.block_io import open_run, read_blocks, validate_block_records
from repro.engine.errors import SortError

#: Strategy names accepted by :func:`open_reading` and the CLI.
READING_STRATEGIES = ("naive", "forecasting", "double_buffering")

#: Upper bound on prefetch threads regardless of merge width.
_MAX_PREFETCH_THREADS = 8


class _NullSession:
    """No-op instrumentation target."""

    def buffer_grew(self, n: int) -> None:
        pass

    def buffer_shrank(self, n: int) -> None:
        pass

    def reader_opened(self) -> None:
        pass

    def reader_closed(self) -> None:
        pass


class ReadingStats:
    """What a strategy actually did, for reports and regression tests.

    ``block_reads`` counts blocks that *delivered records* (empty
    end-of-file probes are excluded); ``prefetches`` counts issued
    prefetch reads — useful or not — and ``prefetch_hits`` only those
    that delivered data, so ``hits < prefetches`` exposes wasted
    end-of-run prefetching instead of hiding it.
    """

    __slots__ = ("strategy", "block_reads", "prefetches", "prefetch_hits")

    def __init__(self, strategy: str) -> None:
        self.strategy = strategy
        self.block_reads = 0
        self.prefetches = 0
        self.prefetch_hits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadingStats({self.strategy}: reads={self.block_reads}, "
            f"prefetches={self.prefetches}, hits={self.prefetch_hits})"
        )


class _RunSource:
    """Sequential block reader over one sorted run file.

    ``read_block`` may be called from a worker thread, but never
    concurrently for the same source — each strategy guarantees at most
    one outstanding read per run.  Only pure I/O and decoding happen
    here (through :func:`repro.engine.block_io.read_blocks`, the one
    block-read recipe in the codebase); session accounting stays on
    the consumer thread.
    """

    __slots__ = ("run", "fmt", "block_records", "skip_blank", "codec",
                 "charge", "handle", "finished", "delivered", "_blocks")

    def __init__(self, run: Any, fmt: RecordFormat, block_records: int) -> None:
        self.run = run
        self.fmt = fmt
        self.block_records = block_records
        #: Caller-provided merge inputs tolerate blank separator lines.
        self.skip_blank = bool(getattr(run, "skip_blank", False))
        #: The run file's framing (DESIGN.md §15): ``None`` for a
        #: caller's plain-line file, else the RBLC codec it was written
        #: with.  Every RBLC block is CRC-checked and decoded whole, so
        #: prefetch threads verify and decode off the consumer thread.
        self.codec = getattr(run, "codec", "none")
        #: Upper bound on the next block's records, charged to the
        #: session while a prefetch is in flight.  RBLC blocks come back
        #: in their written size, which may exceed ``block_records``;
        #: every block of a file but the last has the same size, so the
        #: largest block seen so far bounds the next one.
        self.charge = block_records
        self.handle: Optional[IO[Any]] = None
        self.finished = False
        self.delivered = 0
        self._blocks: Optional[Iterator[List[Any]]] = None

    def read_block(self) -> List[Any]:
        if self.finished:
            return []
        if self.handle is None:
            self.handle = open_run(self.run.path, "r", self.codec)
            self._blocks = read_blocks(
                self.handle, self.fmt, self.block_records,
                skip_blank=self.skip_blank, codec=self.codec,
            )
        assert self._blocks is not None
        block = next(self._blocks, None)
        if block is None:
            # Block CRCs vouch for present blocks only; a file that
            # ends early lost whole blocks and must not merge quietly.
            expected = getattr(self.run, "length", 0)
            if expected and self.delivered != expected:
                self.close()
                raise SortError(
                    f"spilled run {self.run.path!r} delivered "
                    f"{self.delivered} records but {expected} were "
                    f"written — file was truncated or lost blocks on disk"
                )
            self.close()
            return []
        self.delivered += len(block)
        if len(block) > self.charge:
            self.charge = len(block)
        return block

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None
            self._blocks = None
        if not self.finished:
            self.finished = True
            discard = getattr(self.run, "discard", None)
            if discard is not None:
                discard()


class ReadingStrategy:
    """Base: owns the run sources and turns them into merge streams.

    Subclasses implement :meth:`_next_block`; the base class handles
    stream bookkeeping, instrumentation, and cleanup.  Use as a context
    manager (or call :meth:`close`) so abandoned merges still close
    handles and stop prefetch threads.
    """

    name = "base"
    uses_threads = False

    def __init__(
        self,
        runs: Sequence[Any],
        fmt: RecordFormat,
        buffer_records: int,
        session: Optional[Any] = None,
    ) -> None:
        validate_block_records(buffer_records)
        self.fmt = fmt
        self.buffer_records = buffer_records
        self.session = session if session is not None else _NullSession()
        self.stats = ReadingStats(self.name)
        self.sources = [
            _RunSource(run, fmt, self._source_block_records())
            for run in runs
        ]
        self._opened = [False] * len(self.sources)
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.uses_threads and self.sources:
            self._executor = ThreadPoolExecutor(
                max_workers=min(_MAX_PREFETCH_THREADS, len(self.sources)),
                thread_name_prefix="repro-prefetch",
            )

    # -- public API -----------------------------------------------------------

    def streams(self) -> List[Iterator[Any]]:
        """One ascending record iterator per run, for ``kway_merge``."""
        return [self._stream(i) for i in range(len(self.sources))]

    def close(self) -> None:
        """Stop prefetching and close every handle (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for source in self.sources:
            if source.handle is not None:
                source.handle.close()
                source.handle = None

    def __enter__(self) -> "ReadingStrategy":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- hooks ---------------------------------------------------------------

    def _source_block_records(self) -> int:
        """Decoded records per physical block read (strategy-specific)."""
        return self.buffer_records

    def _next_block(self, index: int) -> List[Any]:
        """Produce the next block of run ``index`` (consumer thread)."""
        raise NotImplementedError

    # -- shared plumbing ------------------------------------------------------

    def _read(self, index: int) -> List[Any]:
        block = self.sources[index].read_block()
        if block:
            self.stats.block_reads += 1
        return block

    def _stream(self, index: int) -> Iterator[Any]:
        session = self.session
        try:
            while True:
                block = self._next_block(index)
                if not block:
                    return
                if not self._opened[index]:
                    self._opened[index] = True
                    session.reader_opened()
                session.buffer_grew(len(block))
                try:
                    yield from block
                finally:
                    session.buffer_shrank(len(block))
        finally:
            self.sources[index].close()
            if self._opened[index]:
                self._opened[index] = False
                session.reader_closed()


class NaiveReading(ReadingStrategy):
    """One buffer per run, refilled synchronously on empty."""

    name = "naive"

    def _next_block(self, index: int) -> List[Any]:
        return self._read(index)


class ForecastingReading(ReadingStrategy):
    """Knuth's forecast: prefetch the run whose buffer empties first.

    One extra buffer exists in the whole merge; at most one prefetch is
    in flight at any time.  The forecast compares the last (largest)
    key of every run's in-memory block: the run with the smallest tail
    key is the first whose buffer can empty, so its next block is the
    one worth fetching early.
    """

    name = "forecasting"
    uses_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # The single extra buffer: (run index, future, charged records)
        # or None.  The charge is the block-size upper bound accounted
        # to the session while the prefetch is in flight.
        self._pending: Optional[tuple] = None
        # Tail key of the block each run is currently consuming.
        self._tails: Dict[int, Any] = {}

    def _next_block(self, index: int) -> List[Any]:
        block = self._claim_prefetch(index)
        if block is None:
            block = self._read(index)
        if block:
            # One key() per *block* (the tail), not per record — the
            # forecast needs it and it is outside the merge hot loop.
            # repro: lint-waive R007 per-block forecast tail, not per-record
            self._tails[index] = self.fmt.key(block[-1])
        else:
            self._tails.pop(index, None)
        self._forecast()
        return block

    def close(self) -> None:
        if self._pending is not None:
            self.session.buffer_shrank(self._pending[2])
            self._pending = None
        super().close()

    def _claim_prefetch(self, index: int) -> Optional[List[Any]]:
        """Take the pending prefetched block if it is this run's.

        Returns ``[]`` (a claimed end-of-file probe) distinct from
        ``None`` (nothing pending for this run, read synchronously).
        """
        if self._pending is None or self._pending[0] != index:
            return None
        _, future, charged = self._pending
        self._pending = None
        self.session.buffer_shrank(charged)
        block = future.result()
        if block:
            self.stats.prefetch_hits += 1
            self.stats.block_reads += 1
        return block

    def _forecast(self) -> None:
        if self._pending is not None or self._executor is None:
            return
        if not self._tails:
            return
        # The run with the smallest in-memory tail key empties first.
        forecast_run = min(self._tails, key=lambda i: self._tails[i])
        source = self.sources[forecast_run]
        if source.finished:
            return
        self.stats.prefetches += 1
        charge = source.charge
        self.session.buffer_grew(charge)
        future = self._executor.submit(source.read_block)
        self._pending = (forecast_run, future, charge)


class DoubleBufferingReading(ReadingStrategy):
    """Salzberg's double buffering: two half-sized buffers per run.

    Handing a block to the merge immediately schedules the refill of
    its twin, so every run (not just the forecast one) overlaps its
    reads with merging — at the price of halving the buffer, doubling
    how often each run pays a read.  The halving only applies to files
    whose reader picks the block size (plain-line files): RBLC spill
    blocks come back in their written size, so each half holds one
    written block and the session is charged accordingly.
    """

    name = "double_buffering"
    uses_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # run index -> (future, charged records) for the in-flight
        # refill of that run's idle buffer half.
        self._pending: Dict[int, tuple] = {}

    def _source_block_records(self) -> int:
        return max(1, self.buffer_records // 2)

    def _next_block(self, index: int) -> List[Any]:
        pending = self._pending.pop(index, None)
        if pending is not None:
            future, charged = pending
            self.session.buffer_shrank(charged)
            block = future.result()
            if block:
                self.stats.prefetch_hits += 1
                self.stats.block_reads += 1
        else:
            block = self._read(index)
        if block and self._executor is not None:
            source = self.sources[index]
            if not source.finished:
                self.stats.prefetches += 1
                charge = source.charge
                self.session.buffer_grew(charge)
                self._pending[index] = (
                    self._executor.submit(source.read_block),
                    charge,
                )
        return block

    def close(self) -> None:
        for _, charged in self._pending.values():
            self.session.buffer_shrank(charged)
        self._pending.clear()
        super().close()


_STRATEGY_CLASSES = {
    "naive": NaiveReading,
    "forecasting": ForecastingReading,
    "double_buffering": DoubleBufferingReading,
}


def validate_reading(reading: str) -> str:
    """Reject an unknown strategy name with a clear error.

    Backends call this at *construction* so a typo fails immediately,
    not after the whole run-generation phase has been spilled.
    """
    if reading not in _STRATEGY_CLASSES:
        raise ValueError(
            f"unknown reading strategy {reading!r}; "
            f"known: {READING_STRATEGIES}"
        )
    return reading


def open_reading(
    reading: str,
    runs: Sequence[Any],
    fmt: RecordFormat,
    buffer_records: int,
    session: Optional[Any] = None,
) -> ReadingStrategy:
    """Instantiate the named strategy over ``runs`` (objects with a
    ``path`` and, optionally, a ``discard()`` called at exhaustion)."""
    validate_reading(reading)
    return _STRATEGY_CLASSES[reading](runs, fmt, buffer_records, session)
