"""Shared operator plumbing: the plan and report types, stream accounting.

Every operator in :mod:`repro.ops` streams its input through a
:class:`~repro.engine.planner.SortEngine` and folds the engine's
*final merge pass* directly, so the operator adds O(1) state on top of
the sort's own ``memory + fan_in * buffer_records`` bound.  Once an
operator's output stream is fully consumed, its ``report`` attribute
holds an :class:`OperatorReport` — the engine's
:class:`~repro.engine.report.SortReport` extended with relational
row accounting (rows in/out, groups, join matches, skew spills) —
and its ``plan`` attribute the :class:`OperatorPlan` it executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from repro.engine.report import SortReport

if TYPE_CHECKING:
    # Annotation only: the parsers of client subcommands read this
    # module's constants without loading the sort backends.
    from repro.engine.planner import SortPlan

__all__ = [
    "AGGREGATES",
    "DISTINCT_MODES",
    "OperatorPlan",
    "OperatorReport",
    "CountingIterator",
    "report_as_dict",
    "report_from_sort",
    "sorted_plan",
    "close_stream",
]

#: Supported aggregate functions, in canonical order.
AGGREGATES = ("count", "sum", "min", "max", "avg")

#: What "duplicate" means: the whole record, or just its sort key.
DISTINCT_MODES = ("record", "key")


@dataclass(slots=True)
class OperatorReport(SortReport):
    """A :class:`SortReport` plus relational operator accounting.

    ``rows_in`` counts records consumed across *all* inputs (both join
    sides), ``rows_out`` the records the operator emitted, ``groups``
    the distinct keys it saw (dedup groups, aggregate groups, matched
    join keys), ``matches`` the joined pairs, and ``skew_spills`` how
    many skewed join key groups overflowed their buffer to disk.
    """

    operator: str = ""
    rows_in: int = 0
    rows_out: int = 0
    groups: int = 0
    matches: int = 0
    skew_spills: int = 0

    def summary(self) -> str:
        # Explicit base call: dataclass(slots=True) rebuilds the class,
        # which breaks the zero-argument super() closure on 3.10/3.11.
        lines = [SortReport.summary(self)]
        parts = [
            f"rows_in={self.rows_in}",
            f"rows_out={self.rows_out}",
            f"groups={self.groups}",
        ]
        if self.operator == "join":
            parts.append(f"matches={self.matches}")
            parts.append(f"skew_spills={self.skew_spills}")
        lines.append(f"  ops    " + "  ".join(parts))
        return "\n".join(lines)


class CountingIterator:
    """Pass-through iterator that counts the records it delivers."""

    __slots__ = ("_iterator", "count")

    def __init__(self, records: Iterable[Any]) -> None:
        self._iterator = iter(records)
        self.count = 0

    def __iter__(self) -> Iterator[Any]:
        return self

    def __next__(self) -> Any:
        record = next(self._iterator)
        self.count += 1
        return record


def report_from_sort(
    operator: str,
    sort_report: Optional[SortReport],
    *,
    rows_in: int,
    rows_out: int,
    groups: int = 0,
    matches: int = 0,
    skew_spills: int = 0,
) -> OperatorReport:
    """Extend the engine's sort report with operator row accounting.

    ``sort_report`` may be None when the operator never ran a sort at
    all (top-k closed before pulling a record, empty input edge
    cases); the report then carries only the row counts.
    """
    base = sort_report or SortReport(algorithm="-", records=rows_in)
    return OperatorReport(
        algorithm=f"{operator}({base.algorithm})",
        records=base.records,
        runs=base.runs,
        run_lengths=list(base.run_lengths),
        run_phase=base.run_phase,
        merge_phase=base.merge_phase,
        spill_raw_bytes=base.spill_raw_bytes,
        spill_disk_bytes=base.spill_disk_bytes,
        operator=operator,
        rows_in=rows_in,
        rows_out=rows_out,
        groups=groups,
        matches=matches,
        skew_spills=skew_spills,
    )


def report_as_dict(report: Optional[SortReport]) -> Optional[dict]:
    """A JSON-safe dict of a sort/operator report (service ``status``).

    The resident service streams per-job reports over its JSON
    protocol; this is the one serialisation both
    :class:`~repro.engine.report.SortReport` and
    :class:`OperatorReport` share, so every job — plain sort or
    relational operator — reports through the same shape.  Wall times
    are included (they are measurements *about* the job, not contents
    *of* its output, so determinism is untouched); simulated-cost
    fields stay out, they mean nothing for a real service run.
    """
    if report is None:
        return None
    data = {
        "algorithm": report.algorithm,
        "records": report.records,
        "runs": report.runs,
        "average_run_length": report.average_run_length,
        "run_wall_s": report.run_phase.wall_time,
        "merge_wall_s": report.merge_phase.wall_time,
        "spill_raw_bytes": report.spill_raw_bytes,
        "spill_disk_bytes": report.spill_disk_bytes,
        "spill_ratio": report.spill_ratio,
    }
    if isinstance(report, OperatorReport):
        data.update(
            operator=report.operator,
            rows_in=report.rows_in,
            rows_out=report.rows_out,
            groups=report.groups,
            matches=report.matches,
            skew_spills=report.skew_spills,
        )
    return data


@dataclass(frozen=True, slots=True)
class OperatorPlan:
    """How one relational operator executed (DESIGN.md §12).

    ``mode`` is ``"heap"`` for the top-k bounded-heap short-circuit
    (no sort happens at all), ``"in_memory"`` when the underlying sort
    fit the memory budget, and ``"sort"`` when the operator streamed
    over an external (spilling or parallel) sort.  ``sort_plan`` is the
    engine's executed :class:`~repro.engine.planner.SortPlan` for the
    non-heap modes.
    """

    mode: str
    sort_plan: Optional[SortPlan]
    reason: str


def sorted_plan(engine: Any) -> OperatorPlan:
    """The operator plan of a sort ``engine.sort()`` has just planned.

    The engine plans eagerly, before its stream is consumed (probing
    the input when its size is unknown), so ``engine.plan`` is the
    decision that is actually executed.
    """
    sort_plan = engine.plan
    return OperatorPlan(
        mode="in_memory" if sort_plan.mode == "in_memory" else "sort",
        sort_plan=sort_plan,
        reason=sort_plan.reason,
    )


def close_stream(stream: Any) -> None:
    """Close a (possibly plain) record iterator.

    Spilling engine sorts are generators whose ``finally`` blocks
    release temp files and publish reports; in-memory sorts hand back
    plain list iterators with nothing to close.
    """
    close = getattr(stream, "close", None)
    if close is not None:
        close()
