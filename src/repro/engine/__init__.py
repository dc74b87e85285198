"""Unified sort engine: record formats, block I/O, planner, facade.

``repro.engine`` is the layer every sort backend sits behind
(DESIGN.md §9): :mod:`~repro.engine.block_io` moves blocks of records
between files and memory — plain lines for the files users hand in and
get back, checksummed RBLC block streams (DESIGN.md §15) for every file
the engine writes and reads back itself —
:mod:`~repro.engine.merge_reading` holds the final merge's run readers,
:mod:`~repro.engine.planner` picks a backend (in-memory, spill,
partitioned-parallel) and exposes the :class:`~repro.engine.planner.
SortEngine` facade the CLI and experiments drive, and
:mod:`~repro.engine.resilience` makes the spilling backends
crash-safe and resumable (DESIGN.md §11).
"""

from typing import Any

from repro.engine.block_io import (
    BLOCK_MAGIC,
    DEFAULT_BLOCK_RECORDS,
    BlockWriter,
    read_blocks,
    write_sequence,
)
from repro.engine.errors import CorruptBlockError, JournalError, SortError

#: Names resolved lazily: the planner imports the sort backends, which
#: themselves import repro.engine.block_io — an eager import here would
#: cycle during ``repro.sort`` initialisation.
_LAZY = ("SortEngine", "SortPlan", "plan_sort", "OperatorPlan", "plan_operator")


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from repro.engine import planner

        return getattr(planner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BLOCK_MAGIC",
    "DEFAULT_BLOCK_RECORDS",
    "BlockWriter",
    "CorruptBlockError",
    "JournalError",
    "SortError",
    "read_blocks",
    "write_sequence",
    "SortEngine",
    "SortPlan",
    "plan_sort",
    "OperatorPlan",
    "plan_operator",
]
