"""Group-by aggregation folded into the final merge pass.

The engine sorts by the format's key, which makes every group a
contiguous key run in the merged stream; the operator folds each group
with O(1) running state (count / sum / min / max) *while the final
merge produces it* — no group, however skewed, is ever materialised.
The memory bound is therefore the sort's own
``memory + fan_in * buffer_records``, which tests assert through the
engine's SpillSession peak instrumentation.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.records import BinaryRecordFormat, DelimitedFormat, _parse_key
from repro.merge.kway import grouped
from repro.ops.base import (
    AGGREGATES,
    CountingIterator,
    close_stream,
    report_from_sort,
    sorted_plan,
)

__all__ = ["GroupByAggregate", "AGGREGATES"]


def _render_number(value: Any) -> str:
    """Encode an aggregate result the way the scalar formats would."""
    return repr(value) if isinstance(value, float) else str(value)


class GroupByAggregate:
    """count/sum/min/max/avg per key group, streamed.

    For a :class:`DelimitedFormat` engine the group key is the
    format's key column(s) and ``value_column`` names the aggregated
    field; for scalar formats the record itself is both key and value.
    Output records are delimited text rows: the key column text (from
    the group's first row in sorted order, so the choice is
    deterministic across backends) followed by one field per requested
    aggregate.

    ``min``/``max`` compare values through the same type-ranked key
    order the sort uses (numbers before text), so a column mixing
    numeric and text tokens aggregates without a ``TypeError`` and the
    winner is reported in its original spelling.  ``sum``/``avg``
    require numeric values and fail with a clear :class:`ValueError`
    naming the offending field otherwise.
    """

    def __init__(
        self,
        engine: Any,
        aggregates: Sequence[str] = ("count",),
        value_column: Optional[int] = None,
    ) -> None:
        aggregates = tuple(aggregates)
        if not aggregates:
            raise ValueError("at least one aggregate is required")
        unknown = [a for a in aggregates if a not in AGGREGATES]
        if unknown:
            raise ValueError(
                f"unknown aggregate(s) {', '.join(unknown)}; "
                f"known: {', '.join(AGGREGATES)}"
            )
        # Hoisted out of _ranked_value/_key_text: they run once per
        # record in the fold loop, the operator's hottest path.
        fmt = engine.record_format
        self._fmt = fmt
        # csv/tsv rows arrive as (key bytes, row bytes) pairs; grouping
        # runs on the key bytes and project() splits the stored row.
        self._delimited = isinstance(
            fmt, (DelimitedFormat, BinaryRecordFormat)
        )
        needs_value = any(a != "count" for a in aggregates)
        if self._delimited:
            if needs_value and value_column is None:
                raise ValueError(
                    f"aggregates {aggregates} read a value field; pass "
                    f"value_column (the CLI's --value) for delimited rows"
                )
            self._delimiter = fmt.delimiter
        else:
            if value_column is not None:
                raise ValueError(
                    "value_column only applies to delimited formats; "
                    f"{fmt.name!r} records are their own value"
                )
            self._delimiter = ","
        self.engine = engine
        self.aggregates = aggregates
        self.value_column = value_column
        self.report = None
        self.plan = None

    # -- value extraction -------------------------------------------------------

    def _ranked_value(self, record: Any) -> Tuple[Tuple[int, Any], str]:
        """``(type-ranked value, original text)`` of one record's value."""
        fmt = self._fmt
        if self._delimited:
            text = fmt.project(record, (self.value_column,))[0]
            return _parse_key(text), text
        if fmt.numeric:
            return (0, record), fmt.encode(record)
        return (1, record), fmt.encode(record)

    def _key_text(self, record: Any) -> str:
        fmt = self._fmt
        if self._delimited:
            return self._delimiter.join(fmt.project(record, fmt.key_columns))
        return fmt.encode(record)

    # -- public API --------------------------------------------------------------

    def run(
        self,
        records: Iterable[Any],
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[str]:
        """Yield one delimited aggregate row per key group, key-ascending."""
        engine = self.engine
        counted = CountingIterator(records)
        stream = engine.sort(
            counted, input_records=input_records, resume=resume
        )
        self.plan = sorted_plan(engine)
        needs_value = any(a != "count" for a in self.aggregates)
        self._groups = 0
        try:
            yield from self._fold_groups(stream, needs_value)
        finally:
            # An abandoned stream still releases the engine's spill
            # files and still publishes a (partial-count) report.
            close_stream(stream)
            self.report = report_from_sort(
                "aggregate",
                engine.report,
                rows_in=counted.count,
                rows_out=self._groups,
                groups=self._groups,
            )

    def _fold_groups(self, stream, needs_value: bool) -> Iterator[str]:
        """Fold each key group with O(1) state as the merge streams."""
        engine = self.engine
        for _key, group in grouped(stream, engine.record_format.key):
            self._groups += 1
            first = next(group)
            count = 1
            if needs_value:
                ranked, text = self._ranked_value(first)
                total = ranked[1] if ranked[0] == 0 else None
                numeric = ranked[0] == 0
                min_pair = max_pair = (ranked, text)
                for record in group:
                    count += 1
                    ranked, text = self._ranked_value(record)
                    if numeric and ranked[0] == 0:
                        total += ranked[1]
                    else:
                        numeric = False
                    if ranked < min_pair[0]:
                        min_pair = (ranked, text)
                    if ranked > max_pair[0]:
                        max_pair = (ranked, text)
            else:
                for _record in group:
                    count += 1
            fields: List[str] = [self._key_text(first)]
            for aggregate in self.aggregates:
                if aggregate == "count":
                    fields.append(str(count))
                    continue
                if aggregate == "min":
                    fields.append(min_pair[1])
                    continue
                if aggregate == "max":
                    fields.append(max_pair[1])
                    continue
                if not numeric:
                    # Text values rank after numbers, so the running
                    # max pair always names a non-numeric offender.
                    raise ValueError(
                        f"{aggregate} needs numeric values but key group "
                        f"{fields[0]!r} holds non-numeric value "
                        f"{max_pair[1]!r}"
                    )
                if aggregate == "sum":
                    fields.append(_render_number(total))
                else:  # avg
                    fields.append(_render_number(total / count))
            yield self._delimiter.join(fields)
