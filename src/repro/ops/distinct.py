"""External dedup over a sorted stream (``sort -u`` as an operator).

Sorting brings every duplicate adjacent, so dedup is a single O(1)
comparison against the previous record while the engine's final merge
pass streams by — the operator never holds more than one record beyond
the sort's own bounded buffers.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.merge.kway import grouped
from repro.ops.base import (
    DISTINCT_MODES,
    CountingIterator,
    close_stream,
    report_from_sort,
    sorted_plan,
)

__all__ = ["Distinct", "DISTINCT_MODES"]


class Distinct:
    """Streaming dedup of any :class:`RecordFormat`'s records.

    ``by="record"`` drops exact duplicate records (``sort -u``
    semantics: for delimited rows, byte-identical lines).  ``by="key"``
    keeps the first record of every distinct *key* group (``DISTINCT
    ON (key)``): for delimited rows that is the first row in
    ``(key, row text)`` order, which makes the choice deterministic
    across backends.

    ``report`` holds the :class:`~repro.ops.base.OperatorReport` once
    the output stream has been fully consumed.
    """

    def __init__(self, engine: Any, by: str = "record") -> None:
        if by not in DISTINCT_MODES:
            raise ValueError(
                f"by must be one of {DISTINCT_MODES}, got {by!r}"
            )
        self.engine = engine
        self.by = by
        self.report = None
        self.plan = None

    def run(
        self,
        records: Iterable[Any],
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield the distinct records in ascending order."""
        engine = self.engine
        counted = CountingIterator(records)
        stream = engine.sort(
            counted, input_records=input_records, resume=resume
        )
        self.plan = sorted_plan(engine)
        rows_out = 0
        try:
            if self.by == "key":
                for _key, group in grouped(stream, engine.record_format.key):
                    rows_out += 1
                    yield next(group)
            else:
                previous = _NOTHING
                for record in stream:
                    if previous is _NOTHING or record != previous:
                        previous = record
                        rows_out += 1
                        yield record
        finally:
            # An abandoned stream still releases the engine's spill
            # files and still publishes a (partial-count) report.
            close_stream(stream)
            self.report = report_from_sort(
                "distinct",
                engine.report,
                rows_in=counted.count,
                rows_out=rows_out,
                groups=rows_out,
            )


#: Sentinel distinguishable from any record (None can be a record).
_NOTHING = object()
