"""Batched replacement selection (Larson 2003; Section 3.7.1).

Larson's cache-conscious variant keeps incoming records in small sorted
buffers called *miniruns* instead of pushing every record through the
full-size heap: the heap holds only the head record of each minirun, so
its footprint (and, on real hardware, its cache miss rate) shrinks by
the minirun length.  When a head record is popped, the next record of
the same minirun replaces it.

In this simulation the cache effect shows up as a smaller analytic CPU
cost (the heap holds ``memory / minirun`` entries, so each traversal is
``log2`` of a much smaller number), at the price of slightly shorter
runs: a minirun whose head is tagged *next run* blocks its remaining
records even if some of them could still join the current run.
"""

from __future__ import annotations

from heapq import heappush
from itertools import islice
from typing import Any, Iterable, Iterator, List, Tuple

from repro.heaps import _textbook_pop_min, _textbook_replace_min
from repro.runs.base import RunGenerator, log_cost

#: Larson's experiments output records in batches of 1000; miniruns are
#: of comparable size.  We default to a modest size suited to the scaled
#: experiments.
DEFAULT_MINIRUN_LENGTH = 64


class _Minirun:
    """A sorted buffer consumed front to back.

    Heap entries are ``(run, head, minirun)``.  No minirun orders before
    another, so two entries that tie on ``(run, head)`` compare equal:
    the heap order is the run-tagged key order alone, with no slot
    breaking ties.
    """

    __slots__ = ("records", "position")

    def __init__(self, records: List[Any]) -> None:
        self.records = records
        self.position = 0

    def __lt__(self, other: "_Minirun") -> bool:
        return False

    def peek(self) -> Any:
        return self.records[self.position]

    def advance(self) -> None:
        self.position += 1

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.records)


class BatchedReplacementSelection(RunGenerator):
    """Replacement selection over minirun head records.

    The heap is a ``heapq`` list, popped and replaced with the textbook
    sift-down for every key type (:mod:`repro.heaps`).  Unlike RS, the
    order in which equal heads pop shows even for tie-blind keys: once
    the input ends, it decides which minirun runs dry first and so the
    heap size each later output is charged at (``cpu_ops``).

    Parameters
    ----------
    memory_capacity:
        Total records in memory (miniruns plus heap entries).
    minirun_length:
        Records per minirun; the heap holds ``memory / minirun_length``
        head entries.
    """

    name = "BRS"

    def __init__(
        self, memory_capacity: int, minirun_length: int = DEFAULT_MINIRUN_LENGTH
    ) -> None:
        super().__init__(memory_capacity)
        if minirun_length < 1:
            raise ValueError(f"minirun_length must be >= 1, got {minirun_length}")
        self.minirun_length = min(minirun_length, memory_capacity)
        self.num_miniruns = max(1, memory_capacity // self.minirun_length)

    def _load_minirun(self, stream: Iterator[Any]) -> _Minirun | None:
        chunk = list(islice(stream, self.minirun_length))
        if not chunk:
            return None
        self.stats.records_in += len(chunk)
        self.stats.cpu_ops += len(chunk) * log_cost(len(chunk))
        chunk.sort()
        return _Minirun(chunk)

    def generate_runs(self, records: Iterable[Any]) -> Iterator[List[Any]]:
        self.stats.reset()
        stats = self.stats
        stream = iter(records)

        heap: List[Tuple[int, Any, _Minirun]] = []
        for _ in range(self.num_miniruns):
            minirun = self._load_minirun(stream)
            if minirun is None:
                break
            heappush(heap, (0, minirun.peek(), minirun))
            stats.cpu_ops += log_cost(len(heap))

        current_run = 0
        out: List[Any] = []
        while heap:
            run, key, minirun = heap[0]
            if run != current_run:
                yield out
                stats.note_run(len(out))
                out = []
                current_run = run
            out.append(key)
            minirun.advance()
            stats.cpu_ops += log_cost(len(heap))
            if minirun.exhausted:
                refill = self._load_minirun(stream)
                if refill is None:
                    _textbook_pop_min(heap)
                    continue
                minirun = refill
            head = minirun.peek()
            tag = current_run + 1 if head < key else current_run
            _textbook_replace_min(heap, (tag, head, minirun))
        if out:
            yield out
            stats.note_run(len(out))
