"""Execute one service job through the existing ``SortEngine``.

This is the CLI subcommand bodies re-expressed as a library call: the
runner builds the engine(s) for a :class:`~repro.service.jobs.JobSpec`,
streams the operator, and publishes the result atomically
(:func:`~repro.engine.resilience.atomic_output`).  Every job runs
*durably* — its work directory rides the §11 sort journal — so a job
killed with the server resumes from its surviving runs when the same
spec (same id) is submitted again.

Cancellation is cooperative: the input and output record streams check
a :class:`threading.Event` once per batch and raise
:class:`JobCancelled`, which unwinds through the engine generators'
``finally`` blocks (temp cleanup; the memory grant goes back to the
pool in the scheduler's own ``finally``).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.config import GeneratorSpec, RECOMMENDED, TwoWayConfig
from repro.core.records import STR, RecordFormat, resolve_format
from repro.engine.block_io import (
    BlockWriter,
    DEFAULT_BLOCK_RECORDS,
    iter_records,
)
from repro.engine.planner import SortEngine
from repro.engine.resilience import atomic_output, input_fingerprint
from repro.ops import Distinct, GroupByAggregate, SortMergeJoin, TopK
from repro.ops.base import CountingIterator, report_as_dict
from repro.service.jobs import STORE_OPS, JobSpec
from repro.sort.spill import DEFAULT_BUFFER_RECORDS
from repro.store import Store
from repro.store.oplog import format_item, parse_op_line

__all__ = ["JobCancelled", "JobOutcome", "run_job"]

#: Records between cancellation checks on the streamed input/output.
_CANCEL_CHECK_EVERY = 1024


class JobCancelled(Exception):
    """Raised inside a job's worker thread when its cancel event fires."""


@dataclass(slots=True)
class JobOutcome:
    """What a finished job reports back through ``status``."""

    records_out: int = 0
    report: Optional[Dict[str, Any]] = None
    runs_reused: int = 0
    merges_reused: int = 0
    shards_reused: int = 0


def _cancellable(
    records: Iterator[Any], cancel: Optional[threading.Event], job_id: str
) -> Iterator[Any]:
    """Pass-through stream that aborts when the job is cancelled."""
    if cancel is None:
        yield from records
        return
    for index, record in enumerate(records):
        if index % _CANCEL_CHECK_EVERY == 0 and cancel.is_set():
            raise JobCancelled(f"job {job_id} cancelled")
        yield record


def _generator_spec(spec: JobSpec, memory: int) -> GeneratorSpec:
    two_way = None
    if spec.algorithm == "2wrs":
        two_way = TwoWayConfig(
            buffer_setup=RECOMMENDED.buffer_setup,
            buffer_fraction=RECOMMENDED.buffer_fraction,
            input_heuristic=RECOMMENDED.input_heuristic,
            output_heuristic=RECOMMENDED.output_heuristic,
            seed=0,
        )
    return GeneratorSpec(
        algorithm=spec.algorithm, memory=memory, two_way=two_way
    )


def _record_format(spec: JobSpec, key: Any) -> RecordFormat:
    if key is not None and spec.fmt not in ("csv", "tsv"):
        raise ValueError(
            f"key columns only apply to csv/tsv, not {spec.fmt!r}"
        )
    return resolve_format(spec.fmt, key=key if key is not None else 0)


def _engine(
    spec: JobSpec,
    memory: int,
    record_format: RecordFormat,
    work_dir: str,
    fingerprint: Optional[str],
) -> SortEngine:
    return SortEngine(
        _generator_spec(spec, memory),
        record_format=record_format,
        workers=1,
        fan_in=spec.fan_in,
        buffer_records=DEFAULT_BUFFER_RECORDS,
        block_records=DEFAULT_BLOCK_RECORDS,
        spill_codec=spec.spill_codec,
        work_dir=work_dir,
        input_fingerprint=fingerprint,
    )


def _resume_counters(outcome: JobOutcome, engines: List[SortEngine]) -> None:
    outcome.runs_reused = sum(engine.runs_reused for engine in engines)
    outcome.merges_reused = sum(engine.merges_reused for engine in engines)
    outcome.shards_reused = sum(engine.shards_reused for engine in engines)


def run_job(
    spec: JobSpec,
    *,
    memory: int,
    work_dir: str,
    result_path: str,
    cancel: Optional[threading.Event] = None,
    job_id: str = "",
) -> JobOutcome:
    """Run ``spec`` with a granted ``memory`` budget; publish atomically.

    ``memory`` is what the scheduler actually granted (the spec's ask
    clamped by the tenant quota); the sorted *output* is identical for
    any budget, so clamping never changes results, only run counts.
    """
    if spec.op == "join":
        return _run_join(
            spec, memory=memory, work_dir=work_dir,
            result_path=result_path, cancel=cancel, job_id=job_id,
        )
    if spec.op in STORE_OPS:
        return _run_store(
            spec, memory=memory,
            result_path=result_path, cancel=cancel, job_id=job_id,
        )
    record_format = _record_format(spec, spec.key)
    engine = _engine(
        spec, memory, record_format,
        os.path.join(work_dir, "sort"), input_fingerprint(spec.input),
    )
    op: Any = None
    input_format = output_format = engine.record_format
    if spec.op == "distinct":
        op = Distinct(engine, by=spec.by)
    elif spec.op == "agg":
        op = GroupByAggregate(
            engine, aggregates=spec.aggregates, value_column=spec.value
        )
        output_format = STR
    elif spec.op == "topk":
        op = TopK(engine, spec.k)
        # The heap scan reads csv/tsv rows as the base format's tuples.
        input_format = output_format = op.input_format()
    elif spec.op != "sort":  # pragma: no cover - validate() rejects
        raise ValueError(f"unknown op {spec.op!r}")
    outcome = JobOutcome()
    # repro: lint-waive R002 job input is user data at the service boundary (the CLI reads it the same way); spill I/O below it is seamed
    with open(spec.input, "r", encoding="utf-8") as handle, \
            atomic_output(result_path) as out:
        records = _cancellable(
            iter_records(
                handle, input_format, DEFAULT_BLOCK_RECORDS,
                skip_blank=True, codec=None,
            ),
            cancel, job_id,
        )
        writer = BlockWriter(
            out, output_format, DEFAULT_BLOCK_RECORDS, codec=None
        )
        if op is None:
            produced = engine.sort(records, resume=True)
            writer.write_all(_cancellable(produced, cancel, job_id))
            writer.flush()
            outcome.records_out = engine.report.records if engine.report else 0
            outcome.report = report_as_dict(engine.report)
            _resume_counters(outcome, [engine])
            return outcome
        counted = CountingIterator(
            _cancellable(op.run(records, resume=True), cancel, job_id)
        )
        writer.write_all(counted)
        writer.flush()
        outcome.records_out = counted.count
        outcome.report = report_as_dict(op.report)
        _resume_counters(outcome, [engine])
        return outcome


def _run_join(
    spec: JobSpec,
    *,
    memory: int,
    work_dir: str,
    result_path: str,
    cancel: Optional[threading.Event],
    job_id: str,
) -> JobOutcome:
    left_format = _record_format(spec, spec.key)
    right_format = _record_format(
        spec, spec.right_key if spec.right_key is not None else spec.key
    )
    assert spec.right_input is not None  # validate() guarantees it
    left_engine = _engine(
        spec, memory, left_format,
        os.path.join(work_dir, "left"), input_fingerprint(spec.input),
    )
    right_engine = _engine(
        spec, memory, right_format,
        os.path.join(work_dir, "right"),
        input_fingerprint(spec.right_input),
    )
    op = SortMergeJoin(left_engine, right_engine)
    outcome = JobOutcome()
    # repro: lint-waive R002 join inputs are user data at the service boundary; spill I/O below is seamed
    with open(spec.input, "r", encoding="utf-8") as left_handle, \
            open(spec.right_input, "r", encoding="utf-8") as right_handle, \
            atomic_output(result_path) as out:
        left_records = _cancellable(
            iter_records(
                left_handle, left_engine.record_format,
                DEFAULT_BLOCK_RECORDS, skip_blank=True, codec=None,
            ),
            cancel, job_id,
        )
        right_records = iter_records(
            right_handle, right_engine.record_format,
            DEFAULT_BLOCK_RECORDS, skip_blank=True, codec=None,
        )
        writer = BlockWriter(out, STR, DEFAULT_BLOCK_RECORDS, codec=None)
        counted = CountingIterator(
            _cancellable(
                op.run(left_records, right_records, resume=True),
                cancel, job_id,
            )
        )
        writer.write_all(counted)
        writer.flush()
        outcome.records_out = counted.count
    outcome.report = report_as_dict(op.report)
    _resume_counters(outcome, [left_engine, right_engine])
    return outcome


def _run_store(
    spec: JobSpec,
    *,
    memory: int,
    result_path: str,
    cancel: Optional[threading.Event],
    job_id: str,
) -> JobOutcome:
    """Run one store job against the spec's server-side directory.

    The job's grant *is* the memtable budget, so store jobs share the
    service's memory pool exactly like sorts do.  Ingest runs with
    ``sync=False`` — per-operation WAL fsyncs would make bulk loads
    I/O-bound for no benefit, because the service acknowledges the
    *job*, not individual operations, and ``close()`` syncs the WAL
    before the job reaches its terminal state.
    """
    assert spec.store is not None  # validate() guarantees it
    outcome = JobOutcome()
    store = Store(
        spec.store,
        memory=memory,
        codec=spec.spill_codec,
        fan_in=spec.fan_in,
        sync=False,
    )
    try:
        if spec.op == "store_ingest":
            applied = 0
            # repro: lint-waive R002 the oplog is user data at the service boundary (the CLI reads it the same way); store I/O below is seamed
            with open(spec.input, "r", encoding="utf-8") as handle:
                lines = _cancellable(
                    enumerate(handle, start=1), cancel, job_id
                )
                for lineno, line in lines:
                    parsed = parse_op_line(line, lineno)
                    if parsed is None:
                        continue
                    op, key, value = parsed
                    if op == "put":
                        store.put(key, value)
                    else:
                        store.delete(key)
                    applied += 1
            outcome.records_out = applied
            outcome.report = {
                "op": spec.op,
                "applied": applied,
                "flushed_tables": store.flushed_tables,
                "flushed_bytes": store.flushed_bytes,
                "compacted_tables": store.compacted_tables,
                "compacted_bytes": store.compacted_bytes,
            }
            with atomic_output(result_path) as out:
                json.dump(outcome.report, out, sort_keys=True)
                out.write("\n")
        elif spec.op == "store_scan":
            count = 0
            with atomic_output(result_path) as out:
                items = _cancellable(store.scan(), cancel, job_id)
                for key, value in items:
                    out.write(format_item(key, value) + "\n")
                    count += 1
            outcome.records_out = count
            outcome.report = {"op": spec.op, "items": count}
        else:  # store_compact
            name = store.compact()
            summary = store.verify()
            summary["op"] = spec.op
            summary["output"] = name
            outcome.records_out = summary["table_records"]
            outcome.report = summary
            with atomic_output(result_path) as out:
                json.dump(summary, out, sort_keys=True)
                out.write("\n")
    finally:
        store.close()
    return outcome
