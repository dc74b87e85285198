"""Execute one service job.

A sort or operator job runs through the one op pipeline of
:mod:`repro.engine.job`, as the CLI subcommand does with
``--work-dir``; the runner adds only the memory grant, the atomic
publish of the result (:func:`~repro.engine.resilience.atomic_output`)
and the :class:`JobOutcome` its status reports.  Every job runs
*durably* — its work directory rides the §11 sort journal — so a job
killed with the server resumes from its surviving runs when the same
spec (same id) is submitted again.

Cancellation is cooperative: the pipeline checks a
:class:`threading.Event` once per block and raises
:class:`JobCancelled`, which unwinds through the engine generators'
``finally`` blocks (temp cleanup; the memory grant goes back to the
pool in the scheduler's own ``finally``).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

# Not called here: the tracer of perfbench/layers.py patches this name.
from repro.engine.block_io import BlockWriter  # noqa: F401
from repro.engine.job import JobCancelled, OpRun, blocks_of, cancellable
from repro.engine.resilience import atomic_output
from repro.ops.base import report_as_dict
from repro.service.jobs import STORE_OPS, JobSpec
from repro.store import Store
from repro.store.oplog import apply_oplog, format_item

__all__ = ["JobCancelled", "JobOutcome", "run_job"]

#: Oplog lines or scanned items between cancellation checks.
_CANCEL_CHECK_EVERY = 1024


@dataclass(slots=True)
class JobOutcome:
    """What a finished job reports back through ``status``."""

    records_out: int = 0
    report: Optional[Dict[str, Any]] = None
    runs_reused: int = 0
    merges_reused: int = 0
    shards_reused: int = 0


def _cancellable(
    items: Iterable[Any], cancel: Optional[threading.Event]
) -> Iterator[Any]:
    return chain.from_iterable(
        cancellable(blocks_of(items, _CANCEL_CHECK_EVERY), cancel)
    )


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
    ``job_id`` is the scheduler's name for the job; the run needs none.
    """
    if spec.op in STORE_OPS:
        return _run_store(
            spec, memory=memory, result_path=result_path, cancel=cancel
        )
    inputs: Tuple[str, ...] = (spec.input,)
    sides: Tuple[str, ...] = ("sort",)
    if spec.op == "join":
        assert spec.right_input is not None  # validate() guarantees it
        inputs = (spec.input, spec.right_input)
        sides = ("left", "right")
    job = OpRun(
        replace(spec, memory=memory),
        inputs=inputs,
        work_dirs=[os.path.join(work_dir, side) for side in sides],
    )
    with ExitStack() as stack:
        sources = [
            # repro: lint-waive R002 job inputs are user data at the service boundary (the CLI reads them the same way); spill I/O below is seamed
            stack.enter_context(open(path, "r", encoding="utf-8"))
            for path in inputs
        ]
        out = stack.enter_context(atomic_output(result_path))
        records_out = job.run(
            sources[0], out, *sources[1:], resume=True, cancel=cancel
        )
    return JobOutcome(
        records_out=records_out,
        report=report_as_dict(job.report),
        runs_reused=sum(engine.runs_reused for engine in job.engines),
        merges_reused=sum(engine.merges_reused for engine in job.engines),
        shards_reused=sum(engine.shards_reused for engine in job.engines),
    )


def _run_store(
    spec: JobSpec,
    *,
    memory: int,
    result_path: str,
    cancel: Optional[threading.Event],
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
            # repro: lint-waive R002 the oplog is user data at the service boundary (the CLI reads it the same way); store I/O below is seamed
            with open(spec.input, "r", encoding="utf-8") as handle:
                applied = apply_oplog(store, _cancellable(handle, cancel))
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
                for key, value in _cancellable(store.scan(), cancel):
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
