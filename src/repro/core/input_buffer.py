"""The 2WRS input buffer (Section 4.2).

A FIFO queue between the input stream and the heaps.  Records are read
into the buffer in input order; the algorithm always consumes the head.
The buffer's purpose is to *sample* the upcoming input so the Mean and
Median input heuristics can infer the local distribution.

When the configured capacity is zero (the paper's "victim buffer only"
setup still crosses all heuristics), the buffer degenerates to a direct
pass-through but keeps a small shadow window of recently read records so
Mean/Median remain defined — a documented deviation (DESIGN.md §5).

The statistics are *memoized per generation*: every mutation of the
buffer bumps :attr:`generation`, and ``sample``/``mean``/``median`` are
recomputed at most once per generation and only when actually asked
for.  Heuristics that ignore the distribution therefore never pay for
the statistics at all; the :attr:`mean_computations` /
:attr:`median_computations` counters make that observable in tests and
benchmarks.

:meth:`InputBuffer.drain` is the victim buffer's block-wise reader: it
consumes in-range head records a queue-sized slice at a time, ending in
exactly the state the same number of :meth:`InputBuffer.next` calls
would leave (DESIGN.md §5).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from itertools import islice, zip_longest
from typing import Any, Deque, Iterable, Iterator, List, Optional, Tuple

#: Size of the shadow sample kept when the buffer capacity is zero.
SHADOW_WINDOW = 16

#: Returned by :meth:`InputBuffer.drain` when it moved ``limit`` records
#: without meeting an out-of-range record or the end of the input.
LIMIT_REACHED = object()


def _discard(mirror: List[Any], head: Any) -> None:
    """Remove the queue head ``head`` from the sorted mirror.

    With totally ordered keys bisect lands on an entry equal to
    ``head``.  A NaN anywhere in the mirror breaks the order bisect
    relies on, so on a miss the exact entry is removed instead
    (``list.remove`` matches by identity before equality, which is
    what finds a NaN).
    """
    index = bisect_left(mirror, head)
    if index < len(mirror) and mirror[index] == head:
        del mirror[index]
    else:
        mirror.remove(head)


class InputBuffer:
    """FIFO read-ahead buffer with distribution statistics.

    Parameters
    ----------
    stream:
        The record source.
    capacity:
        Number of records held; 0 disables buffering (pass-through with
        a shadow sample window).
    """

    def __init__(self, stream: Iterable[Any], capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._stream: Iterator[Any] = iter(stream)
        self.capacity = capacity
        self._queue: Deque[Any] = deque()
        self._shadow: Deque[Any] = deque(maxlen=SHADOW_WINDOW)
        self._exhausted = False
        self.records_read = 0
        #: Bumped on every mutation; invalidates the memoized statistics.
        self.generation = 0
        #: Number of times the mean / median were actually recomputed.
        self.mean_computations = 0
        self.median_computations = 0
        self._sample_cache: Optional[Tuple[int, List[Any]]] = None
        self._mean_cache: Optional[Tuple[int, Optional[float]]] = None
        self._median_cache: Optional[Tuple[int, Optional[Any]]] = None
        # Sorted mirror of the queue, activated by the first median()
        # call and maintained incrementally from then on, so the Median
        # heuristic costs O(log n) bookkeeping per record instead of an
        # O(n log n) re-sort per lookup.  None = never asked for.
        self._sorted_queue: Optional[List[Any]] = None
        # Running sum of the queue, activated by the first mean() call
        # (same pattern): the generation changes on every record, so
        # without it each mean() would re-sum the whole buffer.  Exact
        # for the paper's integer keys.  None = never asked for, or
        # non-numeric keys.
        self._queue_sum: Optional[Any] = None
        self._fill()

    def _pull(self) -> Optional[Any]:
        """Read one record from the underlying stream."""
        if self._exhausted:
            return None
        try:
            value = next(self._stream)
        except StopIteration:
            self._exhausted = True
            return None
        self.records_read += 1
        self._shadow.append(value)
        self.generation += 1
        return value

    def _fill(self) -> None:
        while len(self._queue) < self.capacity:
            value = self._pull()
            if value is None:
                break
            self._queue.append(value)

    def next(self) -> Optional[Any]:
        """Pop the head record (refilling the tail), or None at EOF."""
        if self._queue:
            head = self._queue.popleft()
            if self._sorted_queue is not None:
                _discard(self._sorted_queue, head)
            if self._queue_sum is not None:
                self._queue_sum -= head
            self.generation += 1
            refill = self._pull()
            if refill is not None:
                self._queue.append(refill)
                if self._sorted_queue is not None:
                    insort(self._sorted_queue, refill)
                if self._queue_sum is not None:
                    self._queue_sum += refill
            return head
        return self._pull()

    def drain(self, out: List[Any], low: Any, high: Any, limit: int) -> Any:
        """Move consecutive head records with ``low <= r <= high`` to ``out``.

        Stops after ``limit`` records have moved (returning
        :data:`LIMIT_REACHED`), at the first record outside the range
        (consumed and returned, not moved), or at the end of the input
        (returning None).  The buffer ends in exactly the state the same
        number of :meth:`next` calls would leave: queue, running sum,
        sorted mirror, shadow window, :attr:`generation` and
        :attr:`records_read`.

        The work goes in rounds of at most ``len(queue)`` heads.  A round
        range-tests a copy of the queue, moves the in-range prefix and
        reads exactly as many refills as heads it consumed, so nothing
        is read ahead of what ``next`` would have read.  The queue is
        refilled in place, the counters and the shadow window advance
        by arithmetic, and the running sum by two slice sums when it
        and both sums are exact ints.  A float sum rounds differently
        in another order, so it, the sorted mirror and the
        pass-through of a capacity-0 buffer are updated one record at
        a time, in :meth:`next`'s order (DESIGN.md §5).
        """
        queue = self._queue
        while limit > 0 and queue:
            heads = list(queue)
            window = heads if len(heads) <= limit else heads[:limit]
            moved = len(window)
            result: Any = LIMIT_REACHED
            for index, head in enumerate(window):
                if not low <= head <= high:
                    moved, result = index, head
                    break
            consumed = moved + (result is not LIMIT_REACHED)
            refills: List[Any] = []
            if not self._exhausted:
                refills = list(islice(self._stream, consumed))
            if len(refills) < consumed:
                self._exhausted = True
            self._advance(heads[:consumed], refills)
            queue.clear()
            queue.extend(heads[consumed:])
            queue.extend(refills)
            out.extend(window[:moved])
            if result is not LIMIT_REACHED:
                return result
            limit -= moved
        # An empty queue is a capacity-0 pass-through or the end of the
        # input: nothing can be looked at before it is read.
        for _ in range(limit):
            head = self._pull()
            if head is None or not low <= head <= high:
                return head
            out.append(head)
        return LIMIT_REACHED

    def _advance(self, heads: List[Any], refills: List[Any]) -> None:
        """Account for popping ``heads`` and appending ``refills``.

        There are never more refills than heads: a head without one was
        popped at the end of the input.
        """
        self.generation += len(heads) + len(refills)
        self.records_read += len(refills)
        self._shadow.extend(refills[-SHADOW_WINDOW:])
        mirror, total = self._sorted_queue, self._queue_sum
        if total is not None:
            gone, came = sum(heads), sum(refills)
            if type(total) is int and type(gone) is int and type(came) is int:
                self._queue_sum = total - gone + came
            else:
                for head, refill in zip_longest(heads, refills):
                    total -= head
                    if refill is not None:
                        total += refill
                self._queue_sum = total
        if mirror is not None:
            for head, refill in zip_longest(heads, refills):
                _discard(mirror, head)
                if refill is not None:
                    insort(mirror, refill)

    def __bool__(self) -> bool:
        return bool(self._queue) or not self._exhausted

    # -- statistics for the Mean / Median heuristics ---------------------------

    def sample(self) -> List[Any]:
        """Current buffer contents, or the shadow window when unbuffered.

        The returned list is memoized until the next mutation — treat it
        as read-only.
        """
        if self._sample_cache is None or self._sample_cache[0] != self.generation:
            values = list(self._queue) if self._queue else list(self._shadow)
            self._sample_cache = (self.generation, values)
        return self._sample_cache[1]

    def mean(self) -> Optional[float]:
        """Mean of the sample, or None when unavailable.

        None is also returned for non-numeric keys (the paper assumes
        numeric sort keys; the Mean heuristic then degrades to a coin
        flip while order-based heuristics keep working).
        """
        if self._mean_cache is None or self._mean_cache[0] != self.generation:
            result: Optional[float]
            if self._queue:
                # First call sums the buffer once and activates the
                # running sum; later calls are O(1) per record.
                if self._queue_sum is None:
                    try:
                        self._queue_sum = sum(self._queue)
                    except TypeError:
                        self._queue_sum = None
                result = (
                    self._queue_sum / len(self._queue)
                    if self._queue_sum is not None
                    else None
                )
            else:
                values = self.sample()
                if not values:
                    result = None
                else:
                    try:
                        result = sum(values) / len(values)
                    except TypeError:
                        result = None
            self.mean_computations += 1
            self._mean_cache = (self.generation, result)
        return self._mean_cache[1]

    def median(self) -> Optional[Any]:
        """Median of the sample (lower middle), or None when empty.

        The first call sorts the buffer once and activates an
        incrementally-maintained sorted mirror; later calls are O(1)
        lookups.  The shadow window (≤ :data:`SHADOW_WINDOW` records)
        falls back to a memoized sort.
        """
        if self._median_cache is None or self._median_cache[0] != self.generation:
            if self._queue:
                mirror = self._sorted_queue
                if mirror is None or len(mirror) != len(self._queue):
                    mirror = self._sorted_queue = sorted(self._queue)
                result = mirror[(len(mirror) - 1) // 2]
            else:
                values = sorted(self._shadow)
                result = values[(len(values) - 1) // 2] if values else None
            self.median_computations += 1
            self._median_cache = (self.generation, result)
        return self._median_cache[1]
