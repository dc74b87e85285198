"""Bounded top-k: the k smallest records (``sort | head -k``).

When ``k`` fits the memory budget the operator short-circuits the sort
entirely: a bounded max-heap of k records scans the input in one pass
(O(n log k) comparisons, zero disk I/O).  Larger k — or a parallel
run — falls back to the engine's external sort, truncated after k
records; abandoning the sort stream early still releases every spill
file through the engine's cleanup.  Both paths produce byte-identical
output: equal records encode identically, so which duplicates survive
the cut cannot change the bytes.

The heap scan compares each row once and never sorts, so it gains
nothing from order-preserving key bytes: for csv/tsv it reads the
base format's ``(key, row)`` tuples, which are cheaper to build.
Callers decode through :meth:`TopK.input_format` before the first row.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.records import BinaryRecordFormat, RecordFormat
from repro.engine.report import PhaseReport, SortReport
from repro.heaps import _c_replace_max, _push_max
from repro.ops.base import (
    CountingIterator,
    OperatorPlan,
    close_stream,
    report_from_sort,
    sorted_plan,
)
from repro.runs.base import log_cost

__all__ = ["TopK"]


class TopK:
    """The ``k`` smallest records of a stream, in ascending order."""

    def __init__(self, engine: Any, k: int) -> None:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.engine = engine
        self.k = k
        self.report = None
        self.plan = None

    def _heap_plan(self) -> Optional[OperatorPlan]:
        """The heap short-circuit's plan, or None when top-k must sort.

        A parallel top-k never takes it, so ``--workers N`` output
        comes from the same partitioned machinery it is compared
        against.  The rule reads only k, memory and workers, so it is
        known before any row.
        """
        engine = self.engine
        memory = engine.spec.memory
        if self.k > memory or engine.workers != 1:
            return None
        return OperatorPlan(
            mode="heap",
            sort_plan=None,
            reason=(
                f"k={self.k} fits the {memory}-record budget; bounded "
                f"heap scan, no sort"
            ),
        )

    def input_format(self) -> RecordFormat:
        """The format :meth:`run` takes and yields records in.

        The engine's format, except that a heap-mode scan over key-byte
        rows takes the base format's tuples.
        """
        fmt = self.engine.record_format
        if not isinstance(fmt, BinaryRecordFormat):
            return fmt
        return fmt.base if self._heap_plan() is not None else fmt

    def run(
        self,
        records: Iterable[Any],
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield the k smallest records, ascending."""
        self.plan = self._heap_plan()
        if self.plan is not None:
            return self._run_heap(records)
        return self._run_sorted(records, input_records, resume)

    # -- internals -----------------------------------------------------------------

    def _run_heap(self, records: Iterable[Any]) -> Iterator[Any]:
        """One bounded-heap pass; never sorts, never spills.

        Heap entries are ``(record, input_index)`` pairs: the index
        tie-break makes both eviction and the final ordering *stable*
        for records that compare equal but encode differently (e.g.
        ``0.0`` vs ``-0.0``), so this path stays byte-identical to the
        stable-sort fallback.  It also makes every entry unique, so no
        tie can show and the C max-heap functions serve every key type.
        """
        started = time.perf_counter()
        counted = CountingIterator(records)
        heap: List[Tuple[Any, int]] = []
        cpu_ops = 0
        k = self.k
        if k:
            for index, record in enumerate(counted):
                entry = (record, index)
                if len(heap) < k:
                    _push_max(heap, entry)
                    cpu_ops += log_cost(len(heap))
                elif entry < heap[0]:
                    _c_replace_max(heap, entry)
                    cpu_ops += log_cost(k)
        else:
            for _record in counted:  # still count rows_in
                pass
        entries = sorted(heap)
        result = [record for record, _index in entries]
        wall = time.perf_counter() - started
        base = SortReport(
            algorithm="HEAP",
            records=counted.count,
            runs=0,
        )
        base.run_phase = PhaseReport(
            cpu_ops=cpu_ops,
            cpu_time=cpu_ops * self.engine.cpu_op_time,
            wall_time=wall,
        )
        self.report = report_from_sort(
            "topk",
            base,
            rows_in=counted.count,
            rows_out=len(result),
            groups=len(result),
        )
        return iter(result)

    def _run_sorted(
        self,
        records: Iterable[Any],
        input_records: Optional[int],
        resume: bool,
    ) -> Iterator[Any]:
        engine = self.engine
        counted = CountingIterator(records)
        stream = engine.sort(
            counted, input_records=input_records, resume=resume
        )
        self.plan = sorted_plan(engine)
        rows_out = 0
        try:
            for record in stream:
                if rows_out >= self.k:
                    # A durable sort only removes its journaled work
                    # dir when fully consumed — drain the tail (one
                    # read pass, nothing yielded) so a *successful*
                    # truncation does not leak OUTPUT.sortwork.
                    if engine.work_dir is not None:
                        for _record in stream:
                            pass
                    break
                rows_out += 1
                yield record
        finally:
            # Run generation consumed the whole input before the first
            # record came back, so abandoning the merge here only skips
            # already-sorted output; closing releases the spill files
            # and publishes the engine report.
            close_stream(stream)
            self.report = report_from_sort(
                "topk",
                engine.report,
                rows_in=counted.count,
                rows_out=rows_out,
                groups=rows_out,
            )
