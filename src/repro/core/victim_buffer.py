"""The 2WRS victim buffer (Section 4.3).

The two heaps release an increasing stream (stream 1) and a decreasing
stream (stream 4); between the last record released on each side lies a
*gap* of values that can no longer join the current run through either
heap.  The victim buffer captures records falling in that gap, sorts
them when full, and flushes them to two more streams: the part below the
largest internal gap extends stream 3 (increasing), the part above it
extends stream 2 (decreasing).  The largest internal gap becomes the new
(narrower) valid range.

At the start of each run the buffer plays a second role: it collects the
first heap outputs (from both heaps), and its first flush chooses the
widest gap available instead of just the gap between the two heap tops —
a wider valid range makes the victim more likely to capture records.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import sub
from typing import Any, List, Optional, Tuple


class VictimPhase(Enum):
    """Lifecycle of the victim buffer within one run."""

    DISABLED = "disabled"
    INITIAL_FILL = "initial_fill"
    ACTIVE = "active"


def largest_gap(sorted_values: List[Any]) -> Tuple[int, Any, Any]:
    """Find the widest gap between consecutive sorted values.

    Returns ``(split_index, low, high)`` where values ``[:split_index]``
    lie at or below the gap and values ``[split_index:]`` at or above it.
    Equal widths go to the first.  Requires at least two values; keys
    without subtraction raise ``TypeError``.
    """
    if len(sorted_values) < 2:
        raise ValueError("need at least two values to find a gap")
    widths = list(map(sub, sorted_values[1:], sorted_values))
    # max() replaces its pick only on a strictly greater width, as a
    # scan with ``>`` would, so it returns the first widest gap; no
    # earlier width equals it, so index() lands on that same one.
    best_index = widths.index(max(widths)) + 1
    return best_index, sorted_values[best_index - 1], sorted_values[best_index]


class VictimBuffer:
    """Gap-capturing buffer with a valid range and flush bookkeeping.

    The buffer itself does not own the output streams; flushes return
    ``(to_stream3, to_stream2)`` lists (ascending and descending
    respectively) for the caller to route.

    Parameters
    ----------
    capacity:
        Records held before a flush; 0 disables the buffer entirely.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        #: Records captured since the last flush.  The 2WRS generation
        #: loop appends to it directly, and through ``InputBuffer.drain``.
        self.held: List[Any] = []
        #: Current inclusive (low, high) acceptance range.  Set only in
        #: the ACTIVE phase; None while no range is established (initial
        #: fill, disabled, or a degenerate flush).
        self.valid_range: Optional[Tuple[Any, Any]] = None
        self.phase = (
            VictimPhase.DISABLED if capacity == 0 else VictimPhase.INITIAL_FILL
        )
        #: analytic comparisons spent sorting flushes
        self.cpu_ops = 0

    def __len__(self) -> int:
        return len(self.held)

    def start_run(self) -> None:
        """Reset for a new run (records must have been flushed already)."""
        if self.held:
            raise RuntimeError("victim buffer restarted while holding records")
        self.valid_range = None
        if self.capacity > 0:
            self.phase = VictimPhase.INITIAL_FILL

    # -- initial fill (first heap outputs of the run) --------------------------

    def flush_initial(self) -> Tuple[List[Any], List[Any]]:
        """Establish the valid range from the buffered first outputs.

        Returns ``(to_stream3, to_stream2)``: the records below the
        widest gap (ascending) and above it (descending).  After this
        call the buffer is ACTIVE with the gap as its valid range.
        """
        if self.phase is not VictimPhase.INITIAL_FILL:
            raise RuntimeError(f"flush_initial in phase {self.phase}")
        self.phase = VictimPhase.ACTIVE
        return self._split(self._sorted_and_cleared())

    # -- active phase -------------------------------------------------------------

    def flush_full(self) -> Tuple[List[Any], List[Any]]:
        """Flush a full buffer, narrowing the valid range to its widest gap."""
        return self._split(self._sorted_and_cleared())

    def flush_run_end(self) -> List[Any]:
        """Flush everything ascending at a run boundary.

        All held records lie inside the previous valid range, so they
        slot between streams 3 and 2 of the finishing run.
        """
        records = self._sorted_and_cleared()
        self.valid_range = None
        if self.capacity > 0:
            self.phase = VictimPhase.INITIAL_FILL
        return records

    def _split(self, records: List[Any]) -> Tuple[List[Any], List[Any]]:
        """Split sorted flushed records at their widest gap.

        Degenerate flushes -- fewer than two records, or keys without
        subtraction (str, bytes, tuples), which have no gap width --
        set no valid range, so the buffer accepts nothing until the
        run ends, and send every record ascending to stream 3.
        """
        if len(records) >= 2:
            try:
                split, low, high = largest_gap(records)
            except TypeError:
                pass
            else:
                self.valid_range = (low, high)
                # split >= 1, so the reversed slice stops just above it.
                return records[:split], records[: split - 1 : -1]
        self.valid_range = None
        return records, []

    def _sorted_and_cleared(self) -> List[Any]:
        records = self.held
        self.held = []
        if len(records) > 1:
            self.cpu_ops += int(len(records) * max(1.0, math.log2(len(records))))
            records.sort()
        return records
