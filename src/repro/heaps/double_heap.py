"""Two heaps sharing one fixed array (Section 4.1, Figures 4.2-4.5).

2WRS keeps a *BottomHeap* and a *TopHeap* in a single statically
allocated array so that one heap can grow at the expense of the other
without dynamic allocation.  The bottom heap occupies positions
``0 .. len(bottom) - 1`` growing upward; the top heap occupies positions
``capacity - len(top) .. capacity - 1`` growing downward, stored in
*reverse level order* (the top heap's logical node ``i`` lives at array
index ``capacity - 1 - i``, which is Python's ``array[~i]``).

:class:`DoubleHeap` exposes the combined structure; its ``bottom`` side
is a max-heap and its ``top`` side a min-heap, both with the familiar
push/pop/peek interface over the shared array.  As in
:class:`~repro.heaps.binary_heap.MinHeap` / ``MaxHeap``, the sift loops
use the native ``<`` / ``>`` operators and index the array directly, so
a side costs no Python call per comparison or per array access.

This module is the paper-layout reference, not the production path.
2WRS (:mod:`repro.core.two_way`) keeps the same rule -- both heaps
together hold at most ``capacity`` records -- with two C ``heapq``
lists under one combined bound; once a key's ties could show, it pops
them with the same textbook sift-down as this module.
``benchmarks/bench_ablation_heaps.py`` compares the layouts and
``tests/test_double_heap.py`` checks this one.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generic, List, TypeVar

from repro.heaps.binary_heap import HeapEmptyError, HeapFullError

T = TypeVar("T")


class HeapSide(Generic[T]):
    """One of the two heaps of a :class:`DoubleHeap`.

    The side does not own storage: it reads and writes the array it
    shares with ``other``, the opposite side, and both together may hold
    at most ``capacity`` records.  Subclasses fix where logical node
    ``i`` lives in the array and which order pops first.
    """

    __slots__ = ("_array", "_capacity", "_size", "other")

    #: ``_before(a, b)`` means ``a`` pops before ``b`` (checks only).
    _before: Callable[[Any, Any], bool]

    def __init__(self, array: List[Any]) -> None:
        self._array = array
        self._capacity = len(array)
        self._size = 0
        #: The opposite side; :class:`DoubleHeap` pairs the two.
        self.other: HeapSide[T] = self

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _full(self) -> HeapFullError:
        return HeapFullError(f"double heap is at capacity {self._capacity}")

    def as_list(self) -> List[T]:
        """Return this side's records in level order (a copy)."""
        raise NotImplementedError

    def check_invariant(self) -> bool:
        """True iff the heap property holds on this side (for tests)."""
        nodes = self.as_list()
        return not any(
            self._before(nodes[i], nodes[(i - 1) // 2])
            for i in range(1, len(nodes))
        )


class BottomSide(HeapSide[T]):
    """The max-heap side: logical node ``i`` at array index ``i``."""

    __slots__ = ()

    _before = operator.gt

    def peek(self) -> T:
        """Return the largest record."""
        if not self._size:
            raise HeapEmptyError("peek from an empty heap side")
        return self._array[0]

    def push(self, item: T) -> None:
        """Insert into this side; fails when the *shared* array is full."""
        i = self._size
        if i + self.other._size >= self._capacity:
            raise self._full()
        self._size = i + 1
        array = self._array
        while i > 0:
            p = (i - 1) // 2
            parent = array[p]
            if item > parent:
                array[i] = parent
                i = p
            else:
                break
        array[i] = item

    def pop(self) -> T:
        """Remove and return the largest record."""
        n = self._size
        if not n:
            raise HeapEmptyError("pop from an empty heap side")
        array = self._array
        top = array[0]
        n -= 1
        self._size = n
        if n:
            self._sift_down(array[n])
        return top

    def replace(self, item: T) -> T:
        """Pop the top and push ``item`` with a single sift-down."""
        if not self._size:
            raise HeapEmptyError("replace on an empty heap side")
        top = self._array[0]
        self._sift_down(item)
        return top

    def as_list(self) -> List[T]:
        return self._array[: self._size]

    def _sift_down(self, item: T) -> None:
        """Place ``item`` at the root and sift it down."""
        array = self._array
        n = self._size
        i = 0
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and array[right] > array[child]:
                child = right
            winner = array[child]
            if winner > item:
                array[i] = winner
                i = child
            else:
                break
        array[i] = item


class TopSide(HeapSide[T]):
    """The min-heap side: logical node ``i`` at array index ``~i``.

    ``array[~i]`` is ``array[capacity - 1 - i]``: the reverse level
    order of Figure 4.3, with the root in the array's last slot.
    """

    __slots__ = ()

    _before = operator.lt

    def peek(self) -> T:
        """Return the smallest record."""
        if not self._size:
            raise HeapEmptyError("peek from an empty heap side")
        return self._array[-1]

    def push(self, item: T) -> None:
        """Insert into this side; fails when the *shared* array is full."""
        i = self._size
        if i + self.other._size >= self._capacity:
            raise self._full()
        self._size = i + 1
        array = self._array
        while i > 0:
            p = (i - 1) // 2
            parent = array[~p]
            if item < parent:
                array[~i] = parent
                i = p
            else:
                break
        array[~i] = item

    def pop(self) -> T:
        """Remove and return the smallest record."""
        n = self._size
        if not n:
            raise HeapEmptyError("pop from an empty heap side")
        array = self._array
        top = array[-1]
        n -= 1
        self._size = n
        if n:
            self._sift_down(array[~n])
        return top

    def replace(self, item: T) -> T:
        """Pop the top and push ``item`` with a single sift-down."""
        if not self._size:
            raise HeapEmptyError("replace on an empty heap side")
        top = self._array[-1]
        self._sift_down(item)
        return top

    def as_list(self) -> List[T]:
        array = self._array
        return [array[~i] for i in range(self._size)]

    def _sift_down(self, item: T) -> None:
        """Place ``item`` at the root and sift it down."""
        array = self._array
        n = self._size
        i = 0
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and array[~right] < array[~child]:
                child = right
            winner = array[~child]
            if winner < item:
                array[~i] = winner
                i = child
            else:
                break
        array[~i] = item


class DoubleHeap(Generic[T]):
    """Two opposed heaps in one statically allocated array.

    Parameters
    ----------
    capacity:
        Total number of records both heaps may hold together.

    Notes
    -----
    ``bottom`` is a max-heap growing from index 0 upward; ``top`` is a
    min-heap growing from index ``capacity - 1`` downward (reverse
    level order, as in Figure 4.3).  The structure is full when
    ``len(bottom) + len(top) == capacity``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._array: List[Any] = [None] * capacity
        self.bottom: BottomSide[T] = BottomSide(self._array)
        self.top: TopSide[T] = TopSide(self._array)
        self.bottom.other = self.top
        self.top.other = self.bottom

    def __len__(self) -> int:
        return len(self.bottom) + len(self.top)

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def capacity(self) -> int:
        """Total shared capacity."""
        return self._capacity

    @property
    def is_full(self) -> bool:
        """True when no record can be pushed into either side."""
        return len(self) >= self._capacity

    @property
    def free(self) -> int:
        """Number of array slots not used by either heap."""
        return self._capacity - len(self)

    def as_array(self) -> List[Any]:
        """Return a copy of the raw shared array (Figure 4.3 layout).

        Slots not owned by either heap hold stale values or None; callers
        should interpret the array with ``len(bottom)`` and ``len(top)``.
        """
        return list(self._array)

    def check_invariant(self) -> bool:
        """True iff both sides satisfy their heap property and fit."""
        if len(self) > self._capacity:
            return False
        return self.bottom.check_invariant() and self.top.check_invariant()
