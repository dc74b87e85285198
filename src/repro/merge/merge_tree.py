"""Multi-pass merge tree with configurable fan-in (Section 6.1.1).

The merge phase is computed as a tree of k-way merges: each pass groups
the surviving runs into batches of ``fan_in`` and merges every batch to
one new run file, until a single run remains.

The fan-in trades off two costs on the simulated disk:

* a *small* fan-in needs more passes, re-reading and re-writing all
  records each time;
* a *large* fan-in splits the fixed merge memory into more, smaller
  per-run input buffers, so each buffer refill amortises one seek over
  fewer sequential page transfers.

The paper measures the optimum at fan-in 10 for its hardware
(Figure 6.1); the same U-shaped curve falls out of this model.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence

from repro.iosim.files import SimulatedFile, SimulatedFileSystem
from repro.merge.kway import DEFAULT_FAN_IN, MergeCounter, kway_merge


def _stream_of(source: Any, buffer_pages: int) -> Iterator[Any]:
    """Open an ascending record stream from any supported run source."""
    if hasattr(source, "records_buffered"):
        return source.records_buffered(buffer_pages)
    if hasattr(source, "records"):
        return source.records()
    return iter(source)


class MergeTree:
    """Merge run files down to one, ``fan_in`` at a time.

    Parameters
    ----------
    fs:
        Filesystem providing the intermediate and final run files.
    fan_in:
        Runs merged simultaneously per merge node.
    memory_capacity:
        Records of memory available to the merge phase; divided into
        ``fan_in`` input buffers plus one output buffer (all in whole
        pages, minimum one page each).
    """

    def __init__(
        self,
        fs: SimulatedFileSystem,
        fan_in: int = DEFAULT_FAN_IN,
        memory_capacity: int = 10_000,
    ) -> None:
        if fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {fan_in}")
        if memory_capacity < 1:
            raise ValueError(
                f"memory_capacity must be >= 1, got {memory_capacity}"
            )
        self.fs = fs
        self.fan_in = fan_in
        self.memory_capacity = memory_capacity
        self.counter = MergeCounter()
        self._next_id = 0

    @property
    def buffer_pages(self) -> int:
        """Pages per input/output buffer at the configured fan-in."""
        page_records = self.fs.disk.geometry.page_records
        per_buffer = self.memory_capacity // (self.fan_in + 1)
        return max(1, per_buffer // page_records)

    def merge(self, sources: Sequence[Any]) -> SimulatedFile:
        """Merge ``sources`` (run files / readers) into one sorted file.

        Input :class:`SimulatedFile` objects are deleted from the
        filesystem after they are consumed, as the real algorithm frees
        temporary run files between passes.
        """
        if not sources:
            empty = self._new_file()
            empty.close()
            return empty
        level: List[Any] = list(sources)
        while True:
            if len(level) == 1 and isinstance(level[0], SimulatedFile):
                return level[0]
            # A single non-file source still needs copying into a file.
            groups = [
                level[start : start + self.fan_in]
                for start in range(0, len(level), self.fan_in)
            ]
            level = [self._merge_group(group) for group in groups]

    def _merge_group(self, group: Sequence[Any]) -> SimulatedFile:
        buffer_pages = self.buffer_pages
        out = self._new_file()
        streams = [_stream_of(source, buffer_pages) for source in group]
        for record in kway_merge(streams, self.counter):
            out.append(record)
        out.close()
        for source in group:
            if isinstance(source, SimulatedFile) and source.name in self.fs:
                self.fs.delete(source.name)
        return out

    def _new_file(self) -> SimulatedFile:
        name = f"merge-{id(self)}-{self._next_id}"
        self._next_id += 1
        return self.fs.create(name, write_buffer_pages=self.buffer_pages)


def merge_files(
    fs: SimulatedFileSystem,
    sources: Sequence[Any],
    fan_in: int = DEFAULT_FAN_IN,
    memory_capacity: int = 10_000,
    counter: Optional[MergeCounter] = None,
) -> SimulatedFile:
    """One-shot helper around :class:`MergeTree`."""
    tree = MergeTree(fs, fan_in=fan_in, memory_capacity=memory_capacity)
    if counter is not None:
        tree.counter = counter
    return tree.merge(sources)
