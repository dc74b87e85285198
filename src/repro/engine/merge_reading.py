"""The final k-way merge's run readers (DESIGN.md §9.3).

Every merge over spilled runs — intermediate passes and the final one
alike — reads each run synchronously through
:meth:`repro.sort.spill.SpilledRun.records`: one decoded block per run
at a time, charged to the sort's session while it is buffered.  The
paper's §3.7.2 reading strategies (Knuth's forecasting, Salzberg's
double buffering) hide disk seeks in a read-bound merge; here the
final merge reads files written moments earlier from the page cache,
and real-file ports of both measured no faster than this reader, so
only the simulator (:mod:`repro.merge.reading`) keeps them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Generator, List, Sequence

# perfbench/layers.py patches ``merge_reading.read_blocks``,
# ``spill.open_reading`` and ``spill.read_blocks`` by name, wraps the
# ``close()`` of what ``open_reading`` returns, and counts its
# ``stats.prefetches`` / ``stats.prefetch_hits`` (always 0): these
# names stay so traced runs keep working.
from repro.engine.block_io import read_blocks  # noqa: F401


class RunReaders:
    """One record stream per run, for ``kway_merge``.

    :meth:`close` (idempotent) closes every stream, so an abandoned
    merge releases its file handles and buffered blocks at once.
    """

    def __init__(self, runs: Sequence[Any]) -> None:
        self.stats = SimpleNamespace(prefetches=0, prefetch_hits=0)
        self._streams: List[Generator[Any, None, None]] = [
            run.records() for run in runs
        ]

    def streams(self) -> List[Generator[Any, None, None]]:
        return self._streams

    def close(self) -> None:
        for stream in self._streams:
            stream.close()


def open_reading(runs: Sequence[Any]) -> RunReaders:
    """Readers over ``runs`` (:class:`~repro.sort.spill.SpilledRun`)."""
    return RunReaders(runs)
