"""Streaming sort-based relational operators (DESIGN.md §12).

External sort is the workhorse primitive under real database
operators; this package builds four of them directly on the
:class:`~repro.engine.planner.SortEngine` instead of re-implementing
spilling:

* :class:`Distinct` — external dedup over any record format's key;
* :class:`GroupByAggregate` — count/sum/min/max/avg per key group,
  folded into the final merge pass so groups never materialise;
* :class:`SortMergeJoin` — two-input equi-join with bounded per-key
  buffering and a loud spill-to-disk fallback for skewed keys;
* :class:`TopK` — the k smallest records, short-circuited to a
  bounded heap when ``k`` fits the memory budget.

Every operator streams: peak memory stays within the engine's
``memory + fan_in * buffer_records`` sort bound plus O(1) operator
state (the join adds its own bounded, spill-backed group buffer).
Each operator takes the engine(s) it sorts with, e.g.
``Distinct(engine).run(records)``; the join takes one engine per
input.  Every operator plans once, after ``engine.sort()`` has probed
its input; only :class:`TopK`'s heap short-circuit is decided before
any row.  The CLI adds ``distinct`` / ``agg`` / ``join`` / ``topk``
subcommands.
"""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use (see :mod:`repro.engine`).
_LAZY = {
    "AGGREGATES": "repro.ops.base",
    "GroupByAggregate": "repro.ops.aggregate",
    "OperatorReport": "repro.ops.base",
    "DISTINCT_MODES": "repro.ops.base",
    "Distinct": "repro.ops.distinct",
    "SortMergeJoin": "repro.ops.join",
    "TopK": "repro.ops.topk",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AGGREGATES",
    "DISTINCT_MODES",
    "Distinct",
    "GroupByAggregate",
    "OperatorReport",
    "SortMergeJoin",
    "TopK",
]
