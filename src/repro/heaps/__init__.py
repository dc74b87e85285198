"""Heap data structures (Chapter 3 and Section 4.1 of the paper)."""

from repro.heaps.binary_heap import (
    BinaryHeap,
    HeapEmptyError,
    HeapFullError,
    MaxHeap,
    MinHeap,
    left_child_index,
    parent_index,
    right_child_index,
)
from repro.heaps.heapsort import heapsort, heapsort_inplace
from repro.heaps.run_heap import BottomRunHeap, TaggedRecord, TopRunHeap

__all__ = [
    "BinaryHeap",
    "BottomRunHeap",
    "HeapEmptyError",
    "HeapFullError",
    "MaxHeap",
    "MinHeap",
    "TaggedRecord",
    "TopRunHeap",
    "heapsort",
    "heapsort_inplace",
    "left_child_index",
    "parent_index",
    "right_child_index",
]
