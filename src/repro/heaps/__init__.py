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
from repro.heaps.run_heap import TaggedRecord, TopRunHeap

__all__ = [
    "BinaryHeap",
    "HeapEmptyError",
    "HeapFullError",
    "MaxHeap",
    "MinHeap",
    "TaggedRecord",
    "TopRunHeap",
    "left_child_index",
    "parent_index",
    "right_child_index",
]
