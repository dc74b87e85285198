"""Run-tagged heaps for replacement-selection style algorithms.

During run generation every record in memory is tagged with the run it
belongs to (Section 3.3).  Records of the *next* run must sink below all
records of the *current* run so that "top record belongs to the next run"
is equivalent to "every record in memory belongs to the next run".

:class:`TaggedRecord` is an immutable (run, key, payload) triple.
:class:`TopRunHeap` orders by (run asc, key asc) — the RS / TopHeap order.
:func:`bottom_before` is the 2WRS BottomHeap order (run asc, key desc):
within the current run the *largest* key pops first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.heaps.binary_heap import BinaryHeap


@dataclass(frozen=True, slots=True)
class TaggedRecord:
    """A record tagged with the run it belongs to.

    Attributes
    ----------
    run:
        Index of the run this record can still join.
    key:
        The sort key.
    payload:
        Opaque data carried alongside the key (ignored by ordering).
    """

    run: int
    key: Any
    payload: Any = field(default=None, compare=False)


def top_before(a: TaggedRecord, b: TaggedRecord) -> bool:
    """Current run before next run; within a run, ascending keys."""
    if a.run != b.run:
        return a.run < b.run
    return a.key < b.key


def bottom_before(a: TaggedRecord, b: TaggedRecord) -> bool:
    """Current run before next run; within a run, descending keys."""
    if a.run != b.run:
        return a.run < b.run
    return a.key > b.key


class TopRunHeap(BinaryHeap[TaggedRecord]):
    """Min-heap over (run, key): the heap used by RS and the 2WRS TopHeap."""

    def __init__(
        self,
        items: Optional[Iterable[TaggedRecord]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(top_before, items=items, capacity=capacity)
