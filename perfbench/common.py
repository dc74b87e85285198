"""Shared plumbing: paths, child processes, inputs, statistics, metrics."""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: Scratch space for inputs, outputs and spools (removed after a run).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Where traced runs leave their span files.
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")

#: Seconds after which a single program child is killed as hung.
CHILD_TIMEOUT_S = 150.0


class ProgramMissing(Exception):
    """The checkout holds no program to benchmark."""


def require_program() -> None:
    """Put the program's sources on ``sys.path`` or raise."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise ProgramMissing(
            f"no program sources under {SRC!r}; run from a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def make_workdir(name: str) -> str:
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Child:
    """One program process, reaped with ``os.wait4`` for its own peak RSS.

    ``RUSAGE_CHILDREN`` would report the maximum over every child the
    benchmark ever reaped, so one large sort would mask all later ones.
    """

    def __init__(self, argv: Sequence[str], stdout: Any = subprocess.DEVNULL,
                 stderr: Any = subprocess.DEVNULL) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), env=child_env(), cwd=ROOT, stdout=stdout,
            stderr=stderr,
        )
        self._killer = threading.Timer(CHILD_TIMEOUT_S, self._kill)
        self._killer.daemon = True
        self._killer.start()

    def _kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass

    def wait(self) -> Tuple[int, float, float]:
        """Block until the child exits: ``(exit code, wall s, peak RSS MB)``.

        A child already reaped by ``Popen.poll`` (it died early) has
        lost its usage record and reports 0 MB."""
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        except ChildProcessError:
            self._killer.cancel()
            return self.proc.returncode, time.perf_counter() - self.started, 0.0
        wall = time.perf_counter() - self.started
        self._killer.cancel()
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        return code, wall, usage.ru_maxrss / 1024.0


def repetitions(seconds: float, nominal_s: float) -> int:
    """How many units of work fill ``seconds``, from the unit's nominal
    duration on the 2-CPU machine the benchmark was sized on.

    The count depends on ``seconds`` alone, never on a measurement, so
    every run (and every commit) measures the same amount of work; on
    this machine's speed swings a measured count would differ between
    runs, and the slowest-of-N metrics with it."""
    return max(1, round(seconds / nominal_s))


# -- inputs and oracles ----------------------------------------------------------


def write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)


def int_lines(values: Iterable[int]) -> List[str]:
    return [f"{v}\n" for v in values]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- statistics --------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# -- per-layer metrics ----------------------------------------------------------------

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: the workload never enters reports 0 (the bypass evidence).
PER_LAYER_UNITS: Dict[str, str] = {
    "two_way.rungen_self_s": "s",
    "two_way.runs": "count",
    "two_way.run_len_over_memory": "ratio",
    "two_way.max_run_records": "count",
    "two_way.cpu_ops": "count",
    "block_io.input_decode_s": "s",
    "block_io.output_encode_s": "s",
    "block_io.spill_write_s": "s",
    "block_io.spill_bytes": "bytes",
    "block_io.run_read_s": "s",
    "block_io.run_blocks_read": "count",
    "block_io.sst_block_read_s": "s",
    "block_io.sst_blocks_per_get": "count",
    "merge.passes": "count",
    "merge.intermediate_s": "s",
    "merge.final_heap_s": "s",
    "merge_reading.prefetch_hit_ratio": "ratio",
    "merge_reading.prefetches": "count",
    "engine.publish_s": "s",
    "store.wal.append_s": "s",
    "store.memtable.apply_s": "s",
    "store.flush_s": "s",
    "store.flushes": "count",
    "store.compaction_s": "s",
    "store.compactions": "count",
    "store.compacted_bytes": "bytes",
    "store.tables_live": "count",
    "store.probes_per_get": "count",
    "store.useful_probe_ratio": "ratio",
    "store.lookup_s": "s",
    "store.scan_merge_self_s": "s",
    "service.admission_wait_ms": "ms",
    "service.run_ms.sort": "ms",
    "service.run_ms.agg": "ms",
    "service.run_ms.ingest": "ms",
    "service.result_stream_ms": "ms",
    "service.polls_per_job": "count",
    "service.poll_slack_ms": "ms",
    "service.store_open_ms": "ms",
    "put_p9999_us": "us",
    "get_p50_us": "us",
    "scan_keys_per_s": "1/s",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "sort_job_p50_ms": "ms",
    "agg_job_p50_ms": "ms",
    "ingest_job_p50_ms": "ms",
    "job_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def span_total(summary: Dict[str, Any], name: str, field: int = 1) -> float:
    entry = summary["totals"].get(name)
    return float(entry[field]) if entry else 0.0


def sort_layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Run generation, block I/O and merge metrics from a tracer summary."""
    counters = summary["counters"]
    runs = counters.get("two_way.runs", 0)
    memory = counters.get("two_way.memory", 0)
    prefetches = counters.get("merge_reading.prefetches", 0)
    return {
        "two_way.rungen_self_s": span_total(summary, "two_way.rungen", 2),
        "two_way.runs": runs,
        "two_way.run_len_over_memory": (
            counters.get("two_way.run_records", 0) / runs / memory
            if runs and memory else 0.0
        ),
        "two_way.max_run_records": counters.get("two_way.max_run_records", 0),
        "two_way.cpu_ops": counters.get("two_way.cpu_ops", 0),
        "block_io.input_decode_s": span_total(summary, "block_io.input_decode"),
        "block_io.output_encode_s": span_total(summary, "block_io.output_encode"),
        "block_io.spill_write_s": span_total(summary, "block_io.spill_write"),
        "block_io.spill_bytes": counters.get("block_io.spill_bytes", 0),
        "block_io.run_read_s": span_total(summary, "block_io.run_read"),
        "block_io.run_blocks_read": counters.get("block_io.run_blocks_read", 0),
        "merge.passes": counters.get("merge.passes", 0),
        "merge.intermediate_s": span_total(summary, "merge.intermediate"),
        "merge.final_heap_s": span_total(summary, "merge.final", 2),
        "merge_reading.prefetch_hit_ratio": (
            counters.get("merge_reading.prefetch_hits", 0) / prefetches
            if prefetches else 0.0
        ),
        "merge_reading.prefetches": prefetches,
        "engine.publish_s": span_total(summary, "engine.publish"),
    }


def tracer_summary(tracer: Any, root_ids: Sequence[int]) -> Dict[str, Any]:
    """What a traced run hands back: totals, counters and the summed
    duration and self time of its root spans."""
    snap = tracer.snapshot()
    roots = [span for span in tracer.spans if span[0] in root_ids]
    snap["root_s"] = sum(span[3] - span[2] for span in roots)
    snap["root_self_s"] = sum(tracer.self_time(span[0]) for span in roots)
    return snap


def full_layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, 0 where the workload did not set it."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
