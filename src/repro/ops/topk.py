"""Bounded top-k: the k smallest records (``sort | head -k``).

When ``k`` fits the memory budget the planner short-circuits the sort
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
from typing import Any, Iterable, Iterator, Optional

from repro.core.records import BinaryRecordFormat, RecordFormat
from repro.engine.planner import OperatorPlan, plan_operator
from repro.heaps.binary_heap import MaxHeap
from repro.ops.base import (
    CountingIterator,
    close_stream,
    executed_plan,
    report_from_sort,
)
from repro.runs.base import log_cost
from repro.sort.external import PhaseReport, SortReport

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

    def _plan(self, input_records: Optional[int]) -> OperatorPlan:
        engine = self.engine
        return plan_operator(
            operator="topk",
            memory=engine.spec.memory,
            workers=engine.workers,
            input_records=input_records,
            k=self.k,
            fan_in=engine.fan_in,
            buffer_records=engine.buffer_records,
        )

    def input_format(self) -> RecordFormat:
        """The format :meth:`run` takes and yields records in.

        The engine's format, except that a heap-mode scan over key-byte
        rows takes the base format's tuples.  The heap decision depends
        only on k, memory and workers, so it is known before any row.
        """
        fmt = self.engine.record_format
        if not isinstance(fmt, BinaryRecordFormat):
            return fmt
        return fmt.base if self._plan(None).mode == "heap" else fmt

    def run(
        self,
        records: Iterable[Any],
        input_records: Optional[int] = None,
        resume: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield the k smallest records, ascending."""
        self.plan = self._plan(input_records)
        if self.plan.mode == "heap":
            return self._run_heap(records)
        return self._run_sorted(records, input_records, resume)

    # -- internals -----------------------------------------------------------------

    def _run_heap(self, records: Iterable[Any]) -> Iterator[Any]:
        """One bounded-heap pass; never sorts, never spills.

        Heap entries are ``(record, input_index)`` pairs: the index
        tie-break makes both eviction and the final ordering *stable*
        for records that compare equal but encode differently (e.g.
        ``0.0`` vs ``-0.0``), so this path stays byte-identical to the
        stable-sort fallback.
        """
        started = time.perf_counter()
        counted = CountingIterator(records)
        heap: MaxHeap = MaxHeap(capacity=self.k)
        cpu_ops = 0
        k = self.k
        if k:
            for index, record in enumerate(counted):
                entry = (record, index)
                if len(heap) < k:
                    heap.push(entry)
                    cpu_ops += log_cost(len(heap))
                elif entry < heap.peek():
                    heap.replace(entry)
                    cpu_ops += log_cost(k)
        else:
            for _record in counted:  # still count rows_in
                pass
        entries = sorted(heap.as_list())
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
        self.plan = executed_plan(self.plan, engine)
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
