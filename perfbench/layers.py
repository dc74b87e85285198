"""Wrappers that time calls into the program's layers, for traced runs.

Each ``install_*`` function replaces public functions or methods of
one group of modules with traced versions and records what it
replaced in a :class:`Patches`, whose ``undo()`` puts the originals
back.  Nothing is installed in untraced runs, and nothing under
``src/`` changes: a name is patched where the caller looks it up
(``repro.sort.spill.read_blocks`` is the spill module's own binding).

Every wrapper sits at a per-block, per-run, per-op or per-job
boundary; none runs once per record.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Tuple

from tracer import Tracer

__all__ = ["Patches", "install_sort_layers", "install_store_layers",
           "install_service_layers"]


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _block_iterator(tracer: Tracer, original: Callable[..., Any], name: str,
                    blocks_counter: str) -> Callable[..., Iterator[Any]]:
    """A ``read_blocks`` twin with one span per decoded block."""
    def on_block(_block: Any) -> None:
        tracer.count(blocks_counter)

    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        return tracer.wrap_items(original(*args, **kwargs), name, on_block)

    return traced


def _traced_writer(tracer: Tracer, base: type, name: str,
                   bytes_counter: str) -> type:
    """A ``BlockWriter`` subclass with one span per flushed block."""
    class TracedBlockWriter(base):  # type: ignore[misc, valid-type]
        def flush(self) -> None:
            before = self.disk_bytes
            with tracer.span(name):
                base.flush(self)
            if bytes_counter:
                tracer.count(bytes_counter, self.disk_bytes - before)

    return TracedBlockWriter


def _traced_file_write(tracer: Tracer,
                       original: Callable[..., Any]) -> Callable[..., Any]:
    """A twin of a function that writes one whole run file to its first
    argument: one ``block_io.spill_write`` span, and the file's size
    counted as ``block_io.spill_bytes``."""
    def traced(path: str, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("block_io.spill_write"):
            out = original(path, *args, **kwargs)
        tracer.count("block_io.spill_bytes", os.path.getsize(path))
        return out

    return traced


def install_sort_layers(tracer: Tracer, patches: Patches) -> None:
    """Run generation, block I/O and merge of the sort engine.

    Layer names: ``two_way.rungen`` (one span per generated run; the
    input decode it pulls is nested), ``block_io.input_decode``,
    ``block_io.run_read``, ``block_io.spill_write``,
    ``block_io.output_encode``, ``merge.intermediate`` (one span per
    merged group), ``merge.final`` (from opening the final merge's
    readers to closing them; the output blocks written meanwhile
    nest inside it) and ``engine.publish`` (fsync + rename of the
    output).
    """
    import repro.cli as cli
    import repro.engine.block_io as block_io
    import repro.engine.merge_reading as merge_reading
    import repro.engine.planner as planner
    import repro.engine.resilience as resilience
    import repro.sort.spill as spill
    from repro.core.two_way import TwoWayReplacementSelection

    # -- run generation (per run) -------------------------------------------
    original_generate = TwoWayReplacementSelection.generate_runs

    def generate_runs(self: Any, records: Any) -> Iterator[Any]:
        tracer.gauge_max("two_way.memory", self.memory_capacity)

        def on_run(run: Any) -> None:
            tracer.count("two_way.runs")
            tracer.count("two_way.run_records", len(run))
            tracer.gauge_max("two_way.max_run_records", len(run))

        yield from tracer.wrap_items(
            original_generate(self, records), "two_way.rungen", on_run
        )
        tracer.count("two_way.cpu_ops", self.stats.cpu_ops)

    patches.set(TwoWayReplacementSelection, "generate_runs", generate_runs)

    # -- block reads (per block) ---------------------------------------------
    patches.set(block_io, "read_blocks", _block_iterator(
        tracer, block_io.read_blocks, "block_io.input_decode",
        "block_io.input_blocks"))
    patches.set(spill, "read_blocks", _block_iterator(
        tracer, spill.read_blocks, "block_io.run_read",
        "block_io.run_blocks_read"))
    patches.set(merge_reading, "read_blocks", _block_iterator(
        tracer, merge_reading.read_blocks, "block_io.run_read",
        "block_io.run_blocks_read"))

    # -- spill writes (per run, per block of an intermediate merge) ----------
    patches.set(spill, "write_sequence",
                _traced_file_write(tracer, spill.write_sequence))

    patches.set(spill, "BlockWriter", _traced_writer(
        tracer, spill.BlockWriter, "block_io.spill_write", "block_io.spill_bytes"))
    patches.set(planner, "BlockWriter", _traced_writer(
        tracer, planner.BlockWriter, "block_io.output_encode", ""))
    # The journaled sort (service jobs) writes its runs and merge
    # outputs through the resilience module's own bindings.
    patches.set(resilience, "write_block_file",
                _traced_file_write(tracer, resilience.write_block_file))
    patches.set(resilience, "BlockWriter", _traced_writer(
        tracer, resilience.BlockWriter, "block_io.spill_write",
        "block_io.spill_bytes"))

    # -- merge ------------------------------------------------------------------
    patches.set(spill, "merge_group_to_file", tracer.wrap_call(
        spill.merge_group_to_file, "merge.intermediate"))
    original_journaled_group = resilience.ResumableSpillSort._journaled_merge_group

    def journaled_merge_group(self: Any, *args: Any, **kwargs: Any) -> Any:
        return tracer.wrap_call(original_journaled_group(self, *args, **kwargs),
                                "merge.intermediate")

    patches.set(resilience.ResumableSpillSort, "_journaled_merge_group",
                journaled_merge_group)
    original_reduce = spill.reduce_to_fan_in

    def reduce_to_fan_in(*args: Any, **kwargs: Any) -> Any:
        runs, extra = original_reduce(*args, **kwargs)
        tracer.count("merge.passes", 1 + extra)
        return runs, extra

    patches.set(spill, "reduce_to_fan_in", reduce_to_fan_in)
    original_open_reading = spill.open_reading

    def open_reading(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin("merge.final")
        strategy = original_open_reading(*args, **kwargs)
        original_close = strategy.close

        def close() -> None:
            # The merge closes its strategy once; later calls are no-ops.
            strategy.close = original_close
            original_close()
            tracer.count("merge_reading.prefetches", strategy.stats.prefetches)
            tracer.count("merge_reading.prefetch_hits",
                         strategy.stats.prefetch_hits)
            tracer.end(frame)

        strategy.close = close
        return strategy

    patches.set(spill, "open_reading", open_reading)

    # -- output publish -------------------------------------------------------
    patches.set(cli, "atomic_output", _traced_publish(tracer, cli.atomic_output))


def _traced_publish(tracer: Tracer,
                    original: Callable[[str], Any]) -> Callable[[str], Any]:
    """An ``atomic_output`` twin whose publish step (fsync + rename on
    a clean exit) is one ``engine.publish`` span."""
    @contextmanager
    def atomic_output(path: str) -> Iterator[Any]:
        manager = original(path)
        handle = manager.__enter__()
        try:
            yield handle
        except BaseException as exc:
            if not manager.__exit__(type(exc), exc, exc.__traceback__):
                raise
            return
        with tracer.span("engine.publish"):
            manager.__exit__(None, None, None)

    return atomic_output


def install_store_layers(tracer: Tracer, patches: Patches) -> None:
    """WAL, memtable, flush, compaction and table probes of the store.

    Per-op spans (``store.put``, ``store.wal.append``,
    ``store.memtable.apply``, ``store.lookup``,
    ``block_io.sst_block_read``) are aggregated, not recorded; flushes,
    compactions and gets are recorded.
    """
    import repro.store.sstable as sstable
    from repro.store.memtable import Memtable
    from repro.store.store import Store
    from repro.store.wal import WalWriter

    patches.set(Store, "put", tracer.wrap_call(Store.put, "store.put", False))
    patches.set(Store, "delete",
                tracer.wrap_call(Store.delete, "store.put", False))
    patches.set(Store, "get", tracer.wrap_call(Store.get, "store.get"))
    patches.set(WalWriter, "append", tracer.wrap_call(
        WalWriter.append, "store.wal.append", False))
    patches.set(Memtable, "apply", tracer.wrap_call(
        Memtable.apply, "store.memtable.apply", False))
    patches.set(Store, "flush", tracer.wrap_call(Store.flush, "store.flush"))
    original_compact = Store._compact_tables

    def compact_tables(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = self.compacted_bytes
        with tracer.span("store.compaction"):
            out = original_compact(self, *args, **kwargs)
        tracer.count("store.compacted_bytes", self.compacted_bytes - before)
        return out

    patches.set(Store, "_compact_tables", compact_tables)
    original_lookup = sstable.SSTableReader.lookup

    def lookup(self: Any, want: bytes) -> Any:
        frame = tracer.begin("store.lookup", record=False)
        try:
            found = original_lookup(self, want)
        finally:
            tracer.end(frame)
        if found is not None:
            tracer.count("store.useful_probes")
        return found

    patches.set(sstable.SSTableReader, "lookup", lookup)
    patches.set(sstable, "read_framed_block", tracer.wrap_call(
        sstable.read_framed_block, "block_io.sst_block_read", False))


def install_service_layers(tracer: Tracer, patches: Patches) -> None:
    """Job execution inside ``repro serve``: one span per job, the
    store reopen of ingest jobs, and the job's output encode and
    publish (the runner's own bindings).  Install together with
    :func:`install_sort_layers` in the server process."""
    import repro.service.runner as runner
    import repro.service.scheduler as scheduler

    patches.set(runner, "Store", tracer.wrap_call(
        runner.Store, "service.store_open"))
    patches.set(scheduler, "run_job", tracer.wrap_call(
        scheduler.run_job, "service.job_run"))
    patches.set(runner, "BlockWriter", _traced_writer(
        tracer, runner.BlockWriter, "block_io.output_encode", ""))
    patches.set(runner, "atomic_output",
                _traced_publish(tracer, runner.atomic_output))
