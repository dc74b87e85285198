"""Binary heaps as ``heapq`` lists (Section 3.1 of the paper).

The paper stores every heap as a complete binary tree in an array: node
``i`` has children ``2 i + 1`` and ``2 i + 2``.  A Python list under
:mod:`heapq` is exactly that layout, so RS, batched RS, 2WRS and the
top-k scan all keep their heaps as plain lists.

Ties
----
C ``heappush`` sifts up exactly as the paper's heap does, but C
``heappop`` / ``heapreplace`` sift the hole down to a leaf first and so
release *equal* entries in another order than the textbook sift-down.
That order is invisible while every key has an exact type in
:data:`TIE_BLIND_TYPES`, whose equal values cannot be told apart.  A
generator that meets any other key (a float, whose ``-0.0`` and ``0.0``
compare equal, or a record object) switches, one way, to the textbook
pops and replace below, which run over the same lists, so its output
stays exactly that of the paper's heap.  Batched RS uses the textbook
functions for every key type, because there the tie order shows in
its ``cpu_ops``; top-k's entries are all distinct, so it needs none.
"""

from __future__ import annotations

from typing import Any, List

try:  # Python 3.14+ names the max-heap functions publicly.
    from heapq import heappop_max as _c_pop_max  # type: ignore[attr-defined]
    from heapq import heappush_max as _push_max  # type: ignore[attr-defined]
    from heapq import heapreplace_max as _c_replace_max  # type: ignore[attr-defined]
except ImportError:
    from heapq import _heappop_max as _c_pop_max  # type: ignore[attr-defined]
    from heapq import _heapreplace_max as _c_replace_max  # type: ignore[attr-defined]

    def _push_max(heap: List[Any], item: Any) -> None:
        """Append ``item`` to the max-heap list ``heap`` and sift it up."""
        i = len(heap)
        heap.append(item)
        while i:
            p = (i - 1) >> 1
            parent = heap[p]
            if item > parent:
                heap[i] = parent
                i = p
            else:
                break
        heap[i] = item


#: Key types whose equal values cannot be told apart, so the order in
#: which a heap releases equal entries never shows in its output.
TIE_BLIND_TYPES = frozenset({int, str, bytes})


class HeapFullError(OverflowError):
    """Raised when pushing into a bounded heap that is at capacity."""


def _sift_root_min(heap: List[Any], item: Any) -> None:
    """Put ``item`` at the root of a min-heap list and sift it down.

    Ties go as in the paper's heap: the left child wins an equal pair,
    and an equal child never rises above the sifted entry.
    """
    n = len(heap)
    i = 0
    child = 1
    while child < n:
        right = child + 1
        if right < n and heap[right] < heap[child]:
            child = right
        winner = heap[child]
        if not winner < item:
            break
        heap[i] = winner
        i = child
        child = 2 * i + 1
    heap[i] = item


def _sift_root_max(heap: List[Any], item: Any) -> None:
    """The max-heap twin of :func:`_sift_root_min`."""
    n = len(heap)
    i = 0
    child = 1
    while child < n:
        right = child + 1
        if right < n and heap[right] > heap[child]:
            child = right
        winner = heap[child]
        if not winner > item:
            break
        heap[i] = winner
        i = child
        child = 2 * i + 1
    heap[i] = item


def _textbook_pop_min(heap: List[Any]) -> Any:
    """Pop a min-heap list: last entry to the root, then sift it down."""
    last = heap.pop()
    if not heap:
        return last
    head = heap[0]
    _sift_root_min(heap, last)
    return head


def _textbook_replace_min(heap: List[Any], item: Any) -> Any:
    """Pop the root of a min-heap list and push ``item`` in one sift-down."""
    head = heap[0]
    _sift_root_min(heap, item)
    return head


def _textbook_pop_max(heap: List[Any]) -> Any:
    """Pop a max-heap list with the paper's sift-down."""
    last = heap.pop()
    if not heap:
        return last
    head = heap[0]
    _sift_root_max(heap, last)
    return head
