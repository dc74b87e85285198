"""k-way merge of sorted streams (Section 2.1.2).

At each step the smallest of the k head records is selected (with a
min-heap, so selection costs ``log2 k`` comparisons) and moved to the
output.  When a stream empties the merge continues as a (k-1)-way merge,
exactly as in the paper's worked example (Figures 2.1-2.3).

The merge heap is :mod:`heapq` over ``(record, stream_index)`` entries
— tuple comparison orders by record and breaks ties on the stream
index, the same total order the explicit array heap used to compute
through a Python ``before`` predicate.  The stream index makes every
entry unique, so unlike the run-generation heaps (:mod:`repro.heaps`)
no tie can show and the C functions serve every key type; they keep the
per-record cost at one native comparison: for binary spill records that
comparison is a raw ``bytes`` memcmp, which is the point of the whole
binary path.

There are two merge loops over that heap, one per kind of stream;
they share no code because each is tuned to what its streams hand it
(DESIGN.md §6, §14):

* :func:`merge_blocks` takes one iterator of blocks (lists of
  records) per stream and yields output lists of about
  ``block_records`` records (never more than twice that), so the run
  readers and the output writer around a spill merge move blocks, not
  records.
* :func:`kway_merge` takes record streams and yields records, for
  callers whose streams are record generators (``grouped``, the
  operators, store compaction, the simulated merges).  Cutting such a
  stream into blocks would only add a hand-over per record.

Both keep the Python work per record small the same ways:

* **Galloping.**  After the top record of stream ``i`` is output, the
  stream keeps going while its next record is strictly below both
  children of the heap root, without touching the heap; the first
  record that is not goes back through ``heapreplace``.  A strict
  ``<`` on records implies the ``(record, index)`` tuple order, and
  every tie (``-0.0`` against ``0.0`` included) falls through to
  ``heapreplace``, which breaks it on the stream index — so the
  output is exactly the ``(record, stream_index)`` order the store's
  last-writer-wins compaction relies on.
* **One stream left** is copied out without the heap.
* **Hoisted cost charge.**  ``log_cost`` of the heap width is charged
  per stretch of constant width (it only changes when a stream ends);
  the charge reaches the :class:`MergeCounter` once, in a
  ``finally``, for exactly the records delivered, so an abandoned
  merge reports just the prefix its consumer took.

The block loop adds **slices after a streak**: once one stream has
supplied :data:`MIN_GALLOP` records in a row (timsort's idea), it
bisects that stream's current block for the smallest rival head and
emits the whole slice below it with one ``extend``.  The bisect side
follows the stream index — ``bisect_right`` when the stream wins ties
against the rival, ``bisect_left`` when it loses them — so ties keep
the same order.  A short slice drops the merge back to per-record
steps, so fully interleaved streams pay for no bisects.  The last
stream is copied a slice at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from itertools import groupby
from operator import length_hint
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

from repro.runs.base import log_cost

#: Paper default fan-in (the measured optimum of Section 6.1.1).
DEFAULT_FAN_IN = 10

#: Records one stream must supply in a row before the merge bisects
#: its block instead of stepping record by record (timsort's value).
MIN_GALLOP = 7


class MergeCounter:
    """Optional cost accumulator threaded through merges."""

    def __init__(self) -> None:
        self.records = 0
        self.cpu_ops = 0


def validate_merge_params(
    fan_in: Optional[int] = None, buffer_records: Optional[int] = None
) -> None:
    """Reject nonsensical merge parameters with clear errors.

    A fan-in below 2 cannot make progress (merging one stream is a
    copy) and a read buffer below one record can never hold a head —
    both used to slip through to confusing downstream behaviour when a
    caller bypassed the backend constructors.
    """
    if fan_in is not None and fan_in < 2:
        raise ValueError(f"fan_in must be >= 2, got {fan_in}")
    if buffer_records is not None and buffer_records < 1:
        raise ValueError(
            f"buffer_records must be >= 1, got {buffer_records}"
        )


def _check_streams(
    streams: Sequence[Any],
    fan_in: Optional[int],
    buffer_records: Optional[int],
) -> None:
    validate_merge_params(fan_in, buffer_records)
    if fan_in is not None and len(streams) > fan_in:
        raise ValueError(
            f"{len(streams)} streams exceed the declared fan_in {fan_in}"
        )


def _charge(
    counter: Optional[MergeCounter],
    stretches: List[Tuple[int, int]],
    records: int,
) -> None:
    """Charge ``counter`` for the first ``records`` output records.

    ``stretches`` holds ``(first_record, cost)`` per stretch of
    constant heap width, in output order.
    """
    if counter is None:
        return
    cpu_ops = 0
    ends = [start for start, _ in stretches[1:]] + [records]
    for (start, cost), end in zip(stretches, ends):
        if start >= records:
            break
        cpu_ops += (min(end, records) - start) * cost
    counter.records += records
    counter.cpu_ops += cpu_ops


def _next_block(source: Iterator[Sequence[Any]]) -> Optional[Sequence[Any]]:
    """The source's next non-empty block, or None at its end."""
    for block in source:
        if block:
            return block
    return None


def _merge(
    sources: List[Iterator[Sequence[Any]]],
    block_records: int,
    stretches: List[Tuple[int, int]],
) -> Iterator[List[Any]]:
    """The merge loop behind :func:`merge_blocks` (module docstring).

    Each stream is its current block plus a list iterator over it; the
    heap holds each stream's head.  ``stretches`` receives the cost
    stretches as streams end.  The loop delivers what it holds before
    it asks any source for another block.  Every source is closed on
    the way out.
    """
    count = len(sources)
    blocks: List[Any] = [None] * count
    iterators: List[Any] = [None] * count
    heap: List[Tuple[Any, int]] = []
    try:
        for index, source in enumerate(sources):
            block = _next_block(source)
            if block is not None:
                blocks[index] = block
                iterator = iterators[index] = iter(block)
                heap.append((next(iterator), index))
        heapify(heap)
        width = len(heap)
        stretches.append((0, log_cost(width)))
        delivered = 0
        out: List[Any] = []
        append = out.append
        # The stream that supplied the last record, and how many it
        # supplied in a row; at ``limit`` the merge bisects.  The limit
        # never exceeds block_records, which bounds each list at twice
        # block_records.
        last = -1
        streak = 0
        limit = min(MIN_GALLOP, block_records)
        while width > 1:
            key, index = heap[0]
            append(key)
            iterator = iterators[index]
            if index != last:
                last = index
                streak = 0
            else:
                streak += 1
                if streak >= limit:
                    block = blocks[index]
                    size = len(block)
                    position = size - length_hint(iterator)
                    bound, rival_index = heap[1]
                    if width > 2 and heap[2] < heap[1]:
                        bound, rival_index = heap[2]
                    cap = min(size, position + block_records - len(out))
                    if index < rival_index:
                        end = bisect_right(block, bound, position, cap)
                    else:
                        end = bisect_left(block, bound, position, cap)
                    out += block[position:end]
                    if end < cap and end - position < limit:
                        streak = 0
                    # Skip the iterator past the slice (list iterators
                    # keep their position as pickle state).
                    iterator.__setstate__(end)
            rival = heap[1][0]
            for head in iterator:
                if head < rival and (width == 2 or head < heap[2][0]):
                    if streak < limit:
                        append(head)
                        streak += 1
                        continue
                heapreplace(heap, (head, index))
                break
            else:
                if out:
                    delivered += len(out)
                    yield out
                    out = []
                    append = out.append
                block = _next_block(sources[index])
                if block is None:
                    # The reader has finished; free its last block now,
                    # not at the end of the whole merge.
                    blocks[index] = iterators[index] = None
                    heappop(heap)
                    width -= 1
                    stretches.append((delivered + len(out), log_cost(width)))
                else:
                    blocks[index] = block
                    iterator = iterators[index] = iter(block)
                    heapreplace(heap, (next(iterator), index))
            if len(out) >= block_records:
                delivered += len(out)
                yield out
                out = []
                append = out.append

        if heap:
            # One stream left: copy it out, head included.
            index = heap[0][1]
            remaining: Optional[Sequence[Any]] = blocks[index]
            position = len(blocks[index]) - length_hint(iterators[index]) - 1
            while remaining is not None:
                while position < len(remaining):
                    room = block_records - len(out)
                    out += remaining[position:position + room]
                    position += room
                    if len(out) >= block_records:
                        yield out
                        out = []
                if out:
                    yield out
                    out = []
                remaining = _next_block(sources[index])
                position = 0
        if out:
            yield out
    finally:
        # Drop every block reference at once, and close every closeable
        # source, so one raising reader (or an abandoned merge) does not
        # leak the other streams' open file handles until garbage
        # collection.
        blocks.clear()
        iterators.clear()
        for source in sources:
            close = getattr(source, "close", None)
            if close is not None:
                close()


def merge_blocks(
    streams: Sequence[Iterable[Sequence[Any]]],
    counter: Optional[MergeCounter] = None,
    *,
    block_records: int,
    fan_in: Optional[int] = None,
) -> Iterator[List[Any]]:
    """Lazily merge block streams into ascending lists of records.

    Parameters
    ----------
    streams:
        One iterable of blocks per sorted stream: each block a list of
        records, the blocks of a stream in order.  Closeable streams
        (run readers) are closed when the merge ends or is abandoned.
    counter:
        When given, ``records`` and ``cpu_ops`` are accumulated on it
        for the lists delivered (``log2 k`` ops per output record, the
        analytic CPU model).
    block_records:
        Output list size (``>= 1``): each list holds ``block_records``
        records, or up to twice that mid-merge, and the last may be
        short.
    fan_in:
        Optional declared merge width: validated (``>= 2``) and
        enforced against ``len(streams)``, so a scheduling bug that
        hands the final merge more runs than its fan-in fails loudly
        instead of silently over-widening the merge.
    """
    _check_streams(streams, fan_in, block_records)
    stretches: List[Tuple[int, int]] = []
    merged = _merge([iter(s) for s in streams], block_records, stretches)
    records = 0
    try:
        for block in merged:
            records += len(block)
            yield block
    finally:
        merged.close()
        _charge(counter, stretches, records)


def kway_merge(
    streams: Sequence[Iterable[Any]],
    counter: Optional[MergeCounter] = None,
    *,
    fan_in: Optional[int] = None,
    buffer_records: Optional[int] = None,
) -> Iterator[Any]:
    """Lazily merge ``streams`` (each ascending) into one ascending stream.

    The record-at-a-time merge loop (module docstring), for callers
    whose streams yield records.

    Parameters
    ----------
    streams:
        Sorted record sources; anything iterable.  Each is read only
        when the merge needs its next record.
    counter:
        When given, ``records`` and ``cpu_ops`` are accumulated on it
        (``log2 k`` ops per output record, the analytic CPU model).
    fan_in:
        Optional declared merge width: validated (``>= 2``) and
        enforced against ``len(streams)``, so a scheduling bug that
        hands the final merge more runs than its fan-in fails loudly
        instead of silently over-widening the merge.
    buffer_records:
        Optional declared reader buffer size; validated (``>= 1``).
        The merge itself does not buffer — the parameter exists so
        file-backed callers funnel their knobs through one validator.
    """
    _check_streams(streams, fan_in, buffer_records)
    iterators: List[Iterator[Any]] = [iter(s) for s in streams]
    heap: List[tuple] = []
    exhausted: Iterator[Any] = iter(())
    # ``cost`` is charged per stretch of constant heap width, from
    # ``charged`` records on (module docstring).
    records = charged = 0
    cost = cpu_ops = 0
    try:
        for index, iterator in enumerate(iterators):
            try:
                head = next(iterator)
            except StopIteration:
                iterators[index] = exhausted
                continue
            heap.append((head, index))
        heapify(heap)
        width = len(heap)
        cost = log_cost(width)

        while width > 1:
            key, index = heap[0]
            rival = heap[1][0]
            records += 1
            yield key
            for head in iterators[index]:
                # Gallop: while the stream's next record is strictly
                # below both children of the root, it is the minimum
                # and stays on top without touching the heap.
                if head < rival and (width == 2 or head < heap[2][0]):
                    records += 1
                    yield head
                    continue
                heapreplace(heap, (head, index))
                break
            else:
                # Drop the reference so a file-backed reader (and any
                # chunk it buffers) is freed as soon as its run is
                # exhausted, not at the end of the whole merge.
                iterators[index] = exhausted
                heappop(heap)
                cpu_ops += (records - charged) * cost
                charged = records
                width -= 1
                cost = log_cost(width)

        if heap:
            # One stream left: copy it out.
            key, index = heap[0]
            records += 1
            yield key
            for key in iterators[index]:
                records += 1
                yield key
    finally:
        if counter is not None:
            counter.records += records
            counter.cpu_ops += cpu_ops + (records - charged) * cost
        # One raising reader (or an abandoned merge) must not leak the
        # other streams' open file handles until garbage collection:
        # close every closeable reader still referenced.  Harmless for
        # plain iterables and already-finished generators.
        for iterator in iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def records_of(blocks: Iterator[Sequence[Any]]) -> Iterator[Any]:
    """The records of a block stream, in order.

    The per-record view the sort backends give over their block
    paths; ``blocks`` is closed when the view ends or is abandoned.
    """
    try:
        for block in blocks:
            yield from block
    finally:
        close = getattr(blocks, "close", None)
        if close is not None:
            close()


def grouped(
    records: Iterable[Any], key_of: Callable[[Any], Any]
) -> Iterator[Tuple[Any, Iterator[Any]]]:
    """Lazily group an *ascending* record stream by key.

    The duplicate-run-aware half of the aggregating merge: individual
    runs are internally sorted but any key can recur in *every* run,
    and :func:`kway_merge` interleaves them so all duplicates of a key
    become adjacent — this exposes that adjacency as ``(key, group)``
    pairs where ``group`` is a lazy iterator over the consecutive
    records sharing ``key``.  No group is ever materialised, which is
    what lets the :mod:`repro.ops` operators fold arbitrarily large
    (skewed) groups in O(1) memory while the final merge pass streams.
    Like :func:`itertools.groupby` (which this wraps), advancing to
    the next pair invalidates the previous group iterator, and an
    unconsumed group is skipped automatically.
    """
    return iter(groupby(records, key=key_of))


def reduce_to_fan_in(
    runs: Sequence[Any],
    fan_in: int,
    merge_group: Callable[[Sequence[Any]], Any],
) -> Tuple[List[Any], int]:
    """Schedule intermediate merge passes until ``fan_in`` runs remain.

    This is the pass structure of a merge tree over *abstract* runs:
    each pass groups the surviving runs ``fan_in`` at a time and calls
    ``merge_group`` to combine one group into one new run.  A trailing
    singleton group is carried forward untouched — merging one run
    would only copy it.  Both the file-spill backend and the parallel
    partitioned sort drive their real-I/O passes through this function.

    Returns ``(runs, extra_passes)`` where ``runs`` has at most
    ``fan_in`` entries ready for a final (usually streaming) merge and
    ``extra_passes`` counts the intermediate passes performed.
    """
    validate_merge_params(fan_in)
    level = list(runs)
    passes = 0
    while len(level) > fan_in:
        passes += 1
        level = [
            group[0] if len(group) == 1 else merge_group(group)
            for group in (
                level[i : i + fan_in] for i in range(0, len(level), fan_in)
            )
        ]
    return level, passes


def merge_runs(runs: Sequence[Sequence[Any]]) -> List[Any]:
    """Eagerly merge in-memory runs; convenience wrapper for tests."""
    return list(kway_merge(runs))
