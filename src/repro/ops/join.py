"""Two-input sort-merge equi-join with a skew spill fallback.

Each side is sorted by its join key through its own
:class:`~repro.engine.planner.SortEngine` (serial or partitioned-
parallel — the engines decide), then a single streaming pass zips the
two grouped streams: advance whichever side's key is smaller, and on a
match emit the cross product of the two key groups.

Output order matches coreutils ``join``: left-major (for each left row
in sorted order, every matching right row in sorted order), so the
right group must be re-iterable.  Up to ``buffer_limit`` right rows
per key are buffered in memory; a skewed key that exceeds the limit
overflows *loudly* to a spill file (a warning on stderr, a
``skew_spills`` count in the report) which is re-read once per left
row — the classic block-nested fallback, trading I/O for the bounded
memory guarantee.

Output rows are text: the left key field(s), then the left row's
non-key fields, then the right row's non-key fields, joined by the
left delimiter (for scalar formats, just the matched value) —
coreutils ``join``'s default field order.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.records import BinaryRecordFormat, DelimitedFormat, RecordFormat
from repro.engine.block_io import BlockWriter, iter_records, open_run
from repro.engine.planner import plan_operator
from repro.merge.kway import grouped
from repro.ops.base import (
    CountingIterator,
    close_stream,
    executed_plan,
    report_from_sort,
)
from repro.sort.external import PhaseReport, SortReport

__all__ = ["SortMergeJoin"]

#: Formats whose records are rows with fields and key columns.
_DELIMITED = (DelimitedFormat, BinaryRecordFormat)


def _check_key_compatibility(left: RecordFormat, right: RecordFormat) -> None:
    """Refuse side formats whose keys cannot be compared.

    Delimited keys are type-ranked pairs and compare against each
    other for any delimiter, as long as both sides use the same number
    of key columns.  Scalar sides must both be numeric or both be
    text — an int key against a str key would ``TypeError`` deep
    inside the merge loop.

    Binary working formats must match on both sides: the zip compares
    keys *across* the streams, and raw key bytes only compare against
    raw key bytes.  :func:`~repro.core.records.resolve_format` wraps
    both csv/tsv sides, but library callers can still pass a bare
    :class:`DelimitedFormat` for one of them.  Binary delimited keys
    share one component layout, so any delimiter pair works.
    """
    left_binary = isinstance(left, BinaryRecordFormat)
    right_binary = isinstance(right, BinaryRecordFormat)
    if left_binary != right_binary:
        raise ValueError(
            f"cannot join {left.name!r} with {right.name!r}: one side "
            f"compares raw key bytes, the other decoded keys — wrap "
            f"both sides or neither in BinaryRecordFormat"
        )
    left_delimited = isinstance(left, _DELIMITED)
    right_delimited = isinstance(right, _DELIMITED)
    if left_delimited != right_delimited:
        raise ValueError(
            f"cannot join {left.name!r} with {right.name!r}: one side "
            f"has delimited keys, the other scalar records"
        )
    if left_delimited:
        if left.key_arity != right.key_arity:
            raise ValueError(
                f"cannot join {left.name!r} with {right.name!r}: key "
                f"arities differ ({left.key_arity} vs {right.key_arity})"
            )
        return
    if left.numeric != right.numeric:
        raise ValueError(
            f"cannot join {left.name!r} with {right.name!r}: numeric "
            f"keys cannot be compared with text keys"
        )


class _RightGroup:
    """One right-side key group: bounded buffer + optional spill file.

    The group is written once and re-iterated once per left row.  The
    first ``buffer_limit`` records stay in memory; the rest stream to
    an RBLC spill file through the right engine's record format, so
    re-reads are batched and every block is CRC-checked.
    """

    def __init__(
        self,
        records: Iterator[Any],
        fmt: RecordFormat,
        buffer_limit: int,
        buffer_records: int,
        tmp_dir: Optional[str],
        describe,
    ) -> None:
        self.buffered: List[Any] = []
        self.spill_path: Optional[str] = None
        self.spilled = 0
        self._fmt = fmt
        self._buffer_records = buffer_records
        writer = None
        handle = None
        try:
            for record in records:
                if len(self.buffered) < buffer_limit:
                    self.buffered.append(record)
                    continue
                if writer is None:
                    fd, self.spill_path = tempfile.mkstemp(
                        prefix="repro-join-skew-", suffix=".txt", dir=tmp_dir
                    )
                    os.close(fd)
                    handle = open_run(self.spill_path, "w")
                    writer = BlockWriter(handle, fmt, buffer_records)
                    print(
                        f"repro: join: key {describe(record)!r} exceeds "
                        f"the {buffer_limit}-record group buffer; "
                        f"spilling the overflow to disk (skewed key)",
                        file=sys.stderr,
                    )
                writer.write(record)
                self.spilled += 1
        except BaseException:
            # The caller never sees this instance, so it could not call
            # discard(): clean the half-written spill file here.
            if handle is not None:
                handle.close()
                handle = None
            self.discard()
            raise
        finally:
            if writer is not None and handle is not None:
                writer.flush()
            if handle is not None:
                handle.close()

    def __iter__(self) -> Iterator[Any]:
        yield from self.buffered
        if self.spill_path is not None:
            with open_run(self.spill_path, "r") as handle:
                yield from iter_records(
                    handle, self._fmt, self._buffer_records
                )

    def discard(self) -> None:
        if self.spill_path is not None:
            try:
                os.remove(self.spill_path)
            except OSError:
                pass
            self.spill_path = None


class SortMergeJoin:
    """Streaming equi-join of two record streams.

    Parameters
    ----------
    left_engine / right_engine:
        One :class:`SortEngine` per input (distinct instances — each
        sort owns per-engine state).  Their formats must have
        compatible keys (see module docstring); delimiters and key
        columns may differ per side.
    buffer_limit:
        Right-group records held in memory before the skew fallback
        spills to disk.  Defaults to the left engine's memory budget.
    tmp_dir:
        Where skew spill files go (system default when None).
    """

    def __init__(
        self,
        left_engine: Any,
        right_engine: Any,
        *,
        buffer_limit: Optional[int] = None,
        tmp_dir: Optional[str] = None,
    ) -> None:
        if left_engine is right_engine:
            raise ValueError(
                "left and right need separate engines (each sort owns "
                "per-engine report state); use engine.sibling()"
            )
        _check_key_compatibility(
            left_engine.record_format, right_engine.record_format
        )
        if buffer_limit is None:
            buffer_limit = left_engine.spec.memory
        if buffer_limit < 1:
            raise ValueError(
                f"buffer_limit must be >= 1, got {buffer_limit}"
            )
        self.left_engine = left_engine
        self.right_engine = right_engine
        self.buffer_limit = buffer_limit
        self.tmp_dir = tmp_dir
        # Hoisted out of _combine: it runs once per emitted pair, the
        # operator's hottest loop.  csv/tsv streams carry (key bytes,
        # row bytes) pairs: the zip advances on the key bytes and
        # fields() splits the stored row.
        left_fmt = left_engine.record_format
        right_fmt = right_engine.record_format
        self._left_fmt = left_fmt
        self._right_fmt = right_fmt
        self._delimited = isinstance(left_fmt, _DELIMITED)
        if self._delimited:
            self._left_key_columns = left_fmt.key_columns
            self._left_key_set = frozenset(left_fmt.key_columns)
            self._right_key_set = frozenset(right_fmt.key_columns)
            self._delimiter = left_fmt.delimiter
        self.report = None
        self.plan = None
        #: Per-side sort reports, once the join stream is consumed.
        self.left_report = None
        self.right_report = None

    # -- output assembly ---------------------------------------------------------

    def _left_parts(self, left_record: Any) -> List[str]:
        """Output fields contributed by one left row (key first)."""
        if not self._delimited:
            return [self._left_fmt.encode(left_record)]
        left_fields = self._left_fmt.fields(left_record)
        out = [left_fields[c] for c in self._left_key_columns]
        out += [
            field
            for index, field in enumerate(left_fields)
            if index not in self._left_key_set
        ]
        return out

    def _emit(self, left_parts: List[str], right_record: Any) -> str:
        if not self._delimited:
            return left_parts[0]
        out = left_parts + [
            field
            for index, field in enumerate(self._right_fmt.fields(right_record))
            if index not in self._right_key_set
        ]
        return self._delimiter.join(out)

    def _describe_key(self, right_record: Any) -> str:
        """The user-visible key text of a right record (skew warning)."""
        fmt = self._right_fmt
        if isinstance(fmt, _DELIMITED):
            return fmt.delimiter.join(
                fmt.project(right_record, fmt.key_columns)
            )
        return fmt.encode(right_record)

    # -- public API --------------------------------------------------------------

    def run(
        self,
        left_records: Iterable[Any],
        right_records: Iterable[Any],
        resume: bool = False,
    ) -> Iterator[str]:
        """Lazily yield joined output rows, key-ascending."""
        left_engine = self.left_engine
        right_engine = self.right_engine
        self.plan = plan_operator(
            operator="join",
            memory=left_engine.spec.memory,
            workers=left_engine.workers,
            fan_in=left_engine.fan_in,
            buffer_records=left_engine.buffer_records,
        )
        left_counted = CountingIterator(left_records)
        right_counted = CountingIterator(right_records)
        left_stream = left_engine.sort(left_counted, resume=resume)
        right_stream = right_engine.sort(right_counted, resume=resume)
        # Both probes have run; report the *wider* executed mode — a
        # join is only in-memory when both sides were.
        left_plan = executed_plan(self.plan, left_engine)
        right_plan = executed_plan(self.plan, right_engine)
        self.plan = (
            left_plan if right_plan.mode == "in_memory" else right_plan
        )
        left_key = left_engine.record_format.key
        right_key = right_engine.record_format.key
        matches = 0
        groups = 0
        skew_spills = 0
        rows_out = 0
        try:
            left_groups = grouped(left_stream, left_key)
            right_groups = grouped(right_stream, right_key)
            left_pair = next(left_groups, None)
            right_pair = next(right_groups, None)
            while left_pair is not None and right_pair is not None:
                left_k, left_group = left_pair
                right_k, right_group = right_pair
                if left_k < right_k:
                    left_pair = next(left_groups, None)
                    continue
                if right_k < left_k:
                    right_pair = next(right_groups, None)
                    continue
                groups += 1
                group = _RightGroup(
                    right_group,
                    right_engine.record_format,
                    self.buffer_limit,
                    right_engine.buffer_records,
                    self.tmp_dir,
                    self._describe_key,
                )
                if group.spilled:
                    skew_spills += 1
                try:
                    for left_record in left_group:
                        # The left row's projection is invariant across
                        # the inner loop; split it once per left row,
                        # not once per emitted pair.
                        prefix = self._left_parts(left_record)
                        for right_record in group:
                            matches += 1
                            rows_out += 1
                            yield self._emit(prefix, right_record)
                finally:
                    group.discard()
                left_pair = next(left_groups, None)
                right_pair = next(right_groups, None)
            # Success: one side exhausted first.  A durable engine only
            # removes its journaled work dir when its sort is fully
            # consumed, so drain the longer side's tail (one read pass,
            # nothing emitted) instead of leaking its .joinwork side.
            if left_engine.work_dir is not None:
                for _record in left_stream:
                    pass
            if right_engine.work_dir is not None:
                for _record in right_stream:
                    pass
        finally:
            close_stream(left_stream)
            close_stream(right_stream)
            self.left_report = left_engine.report
            self.right_report = right_engine.report
            self.report = report_from_sort(
                "join",
                self._combined_sort_report(),
                rows_in=left_counted.count + right_counted.count,
                rows_out=rows_out,
                groups=groups,
                matches=matches,
                skew_spills=skew_spills,
            )

    # -- internals -----------------------------------------------------------------

    def _combined_sort_report(self) -> Optional[SortReport]:
        """Sum the two side sorts into one report (phase-wise)."""
        left = self.left_report
        right = self.right_report
        if left is None or right is None:
            return left or right

        def combine(a: PhaseReport, b: PhaseReport) -> PhaseReport:
            return PhaseReport(
                io_time=a.io_time + b.io_time,
                cpu_ops=a.cpu_ops + b.cpu_ops,
                cpu_time=a.cpu_time + b.cpu_time,
                wall_time=a.wall_time + b.wall_time,
            )

        report = SortReport(
            algorithm=f"{left.algorithm}+{right.algorithm}",
            records=left.records + right.records,
            runs=left.runs + right.runs,
            run_lengths=list(left.run_lengths) + list(right.run_lengths),
        )
        report.run_phase = combine(left.run_phase, right.run_phase)
        report.merge_phase = combine(left.merge_phase, right.merge_phase)
        return report
