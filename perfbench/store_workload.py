"""``store``: one closed-loop client driving ``repro.store.Store``.

The store runs in a child process of its own (this file, run as a
script), pinned to one CPU, so its peak RSS and speed are measured
like the other programs'.  A run is a fixed number of units; one unit:

1. load a fresh directory with default settings except ``sync=False``
   -- puts (85%) and deletes (15%) over even-numbered keys;
2. run a share of the point gets against it, drawn uniformly over
   twice the key range (so half miss inside the range), closing and
   reopening the store 10 times before every 100 gets;

and after the last unit, fixed-width range scans and one full scan
whose digest must match the oracle.

Every get and scan is checked against a dict oracle.  The operations
come from the seed and are generated before any timing.  A reference
unit (:mod:`refclock`) runs after every block of puts, every reopen
and every get, outside the timed spans, and each timing is reported
at the reference speed of the units on either side of it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    TRACE_DIR,
    Child,
    full_layer_metrics,
    make_workdir,
    median,
    percentile,
    repetitions,
    require_program,
    span_total,
    tracer_summary,
)
from refclock import Interleaved, pin_to_one_cpu  # noqa: E402

#: (load ops, distinct keys, gets, scans); scans span SCAN_WIDTH key
#: numbers.  182k ops make 44 flushes of 4096 distinct keys; the 44th
#: leaves 11 level-0 tables, one more than the fan-in, so the fourth
#: compaction runs and the reads probe 4 level-1 tables.
FULL_SIZE = (182_000, 50_000, 1_000, 40)
SMALL_SIZE = (12_000, 8_000, 100, 5)
SCAN_WIDTH = 2_000
PUT_FRACTION = 0.85
#: Puts timed as one block between two reference units.
PUT_BLOCK = 512
#: Before every GETS_PER_REOPEN gets the store is closed and reopened
#: REOPEN_BATCH times; setup_s is the median over these batches of the
#: mean reopen.
GETS_PER_REOPEN = 100
REOPEN_BATCH = 10
#: The get percentile reported as latency_tail_ms: 20 of the 1000 gets
#: lie beyond it.  At p99 (10 beyond) runs of one seed read either
#: ~22 or ~26.5 ms: a run with more than ten gets hit by a pause (not a
#: slower CPU, which the reference units see) moves it.
TAIL_PERCENTILE = 98
#: Nominal seconds of one unit (see ``common.repetitions``): one load
#: and a third of the gets at the default size.
UNIT_NOMINAL_S = 7.5
#: Units of a traced run's untraced and traced halves.
TRACE_UNITS = 1


def _key(number: int) -> bytes:
    return b"k%08d" % number


class Ops:
    """The seeded operation stream and its oracle."""

    def __init__(self, seed: int, small: bool) -> None:
        n_ops, n_keys, n_gets, n_scans = SMALL_SIZE if small else FULL_SIZE
        rng = random.Random(seed)
        # Keys in a seeded order, each once per pass over the key set:
        # every memtable fills with distinct keys, so flushes and
        # compactions (and the table set the reads probe) fall at the
        # same ops for every seed.
        order = [_key(2 * k) for k in range(n_keys)]
        rng.shuffle(order)
        self.load: List[Tuple[bool, bytes, bytes]] = []
        self.oracle: Dict[bytes, bytes] = {}
        self.logical_bytes = 0
        for i in range(n_ops):
            key = order[i % n_keys]
            if rng.random() < PUT_FRACTION:
                value = b"%08d:%016x" % (i, rng.getrandbits(64))
                self.load.append((True, key, value))
                self.oracle[key] = value
                self.logical_bytes += len(key) + len(value)
            else:
                self.load.append((False, key, b""))
                self.oracle.pop(key, None)
                self.logical_bytes += len(key)
        self.gets = [_key(rng.randrange(2 * n_keys)) for _ in range(n_gets)]
        span = max(1, 2 * n_keys - SCAN_WIDTH)
        self.scans = []
        for _ in range(n_scans):
            start = rng.randrange(span)
            self.scans.append((_key(start), _key(start + SCAN_WIDTH)))
        self.sorted_keys = sorted(self.oracle)
        self.live_bytes = sum(len(k) + len(v) for k, v in self.oracle.items())
        digest = hashlib.sha256()
        for key in self.sorted_keys:
            digest.update(key + b"\t" + self.oracle[key] + b"\n")
        self.digest = digest.hexdigest()

    def scan_oracle(self, start: bytes, end: bytes) -> List[Tuple[bytes, bytes]]:
        lo = bisect.bisect_left(self.sorted_keys, start)
        hi = bisect.bisect_left(self.sorted_keys, end)
        return [(k, self.oracle[k]) for k in self.sorted_keys[lo:hi]]


def _disk_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name.endswith((".sst", ".log"))
    )


def _load(ops: Ops, path: str,
          put_lat: Optional[List[float]]) -> Tuple[float, int]:
    """Load ``ops`` into a fresh store; return (seconds at the reference
    speed, SSTable bytes written).  ``put_lat`` collects each put's
    own latency (traced runs only: the per-op clock reads cost)."""
    from repro.store import Store

    shutil.rmtree(path, ignore_errors=True)
    clock = time.perf_counter
    store = Store(path, sync=False)
    busy = 0.0
    paced = Interleaved()
    for first in range(0, len(ops.load), PUT_BLOCK):
        block = ops.load[first:first + PUT_BLOCK]
        t = clock()
        if put_lat is None:
            for is_put, key, value in block:
                if is_put:
                    store.put(key, value)
                else:
                    store.delete(key)
        else:
            for is_put, key, value in block:
                t_op = clock()
                if is_put:
                    store.put(key, value)
                else:
                    store.delete(key)
                put_lat.append(clock() - t_op)
        busy += paced.scale(clock() - t)
    written = store.flushed_bytes + store.compacted_bytes
    store.close()
    return busy, written


class _Phase:
    """The tracer totals and counters one kind of phase accrues, summed
    over its windows (the get windows sit between loads); ``summary``
    has the shape of a tracer snapshot."""

    def __init__(self, tracer: Any) -> None:
        self._tracer = tracer
        self._start: Dict[str, Any] = {}
        self.summary: Dict[str, Dict[str, Any]] = {"totals": {}, "counters": {}}

    def __enter__(self) -> "_Phase":
        if self._tracer is not None:
            self._start = self._tracer.snapshot()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._tracer is None:
            return
        end = self._tracer.snapshot()
        totals = self.summary["totals"]
        counters = self.summary["counters"]
        for name, values in end["totals"].items():
            before = self._start["totals"].get(name, [0, 0.0, 0.0])
            mine = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += values[i] - before[i]
        for name, value in end["counters"].items():
            counters[name] = (counters.get(name, 0)
                              + value - self._start["counters"].get(name, 0))


def units(ops: Ops, path: str, count: int, tracer: Any = None,
          put_lat: Optional[List[float]] = None) -> Dict[str, Any]:
    """``count`` units of one load and its share of the gets, then the
    scans and the full scan of the last load; returns the measurements
    (durations at the reference speed).  Interleaving loads and gets
    spreads every metric over the whole run rather than one stretch
    of it."""
    from repro.store import Store

    clock = time.perf_counter
    failed = 0
    started = clock()
    root = tracer.begin("store.units") if tracer is not None else None

    load_s = []
    reopen_s = []
    get_s: List[float] = []
    gets_phase = _Phase(tracer)
    store = None
    for unit in range(count):
        load_wall, written = _load(ops, path, put_lat)
        load_s.append(load_wall)
        store = None
        paced = Interleaved()
        with gets_phase:
            for index, key in enumerate(ops.gets[unit::count]):
                if index % GETS_PER_REOPEN == 0:
                    batch = 0.0
                    for _ in range(REOPEN_BATCH):
                        if store is not None:
                            store.close()
                        t = clock()
                        store = Store(path, sync=False)
                        batch += paced.scale(clock() - t)
                    reopen_s.append(batch / REOPEN_BATCH)
                t = clock()
                value = store.get(key)
                get_s.append(paced.scale(clock() - t))
                if value != ops.oracle.get(key):
                    failed += 1
        if unit < count - 1:
            store.close()

    scan_keys = 0
    scan_s = 0.0
    with _Phase(tracer) as scans_phase:
        for start, end in ops.scans:
            t = clock()
            if tracer is not None:
                with tracer.span("store.scan"):
                    items = list(store.scan(start, end))
            else:
                items = list(store.scan(start, end))
            scan_s += clock() - t
            scan_keys += len(items)
            if items != ops.scan_oracle(start, end):
                failed += 1

    digest = hashlib.sha256()
    for key, value in store.scan():
        digest.update(key + b"\t" + value + b"\n")
    if digest.hexdigest() != ops.digest:
        failed += 1
    tables_live = len(store.table_names())
    store.close()
    if tracer is not None:
        tracer.end(root)
    wall = clock() - started

    result = {
        "wall": wall,
        "failed": failed,
        "attempted": (count * len(ops.load) + REOPEN_BATCH * len(reopen_s)
                      + len(ops.gets) + len(ops.scans) + 1),
        "put_ops_s": [len(ops.load) / s for s in load_s],
        "get_s": get_s,
        "scan_keys_per_s": scan_keys / scan_s if scan_s else 0.0,
        "write_amp": written / ops.logical_bytes,
        "space_amp": _disk_bytes(path) / ops.live_bytes,
        "reopen_s": reopen_s,
        "tables_live": tables_live,
    }
    if put_lat:
        result["put_p9999_us"] = percentile(put_lat, 99.99) * 1e6
    if tracer is not None:
        result["phases"] = (gets_phase, scans_phase)
        result["root_id"] = root.id
    shutil.rmtree(path, ignore_errors=True)
    return result


def store_layer_metrics(result: Dict[str, Any],
                        summary: Dict[str, Any]) -> Dict[str, float]:
    gets = result["phases"][0].summary
    scans = result["phases"][1].summary
    n_gets = span_total(gets, "store.get", 0)
    lookups = span_total(gets, "store.lookup", 0)
    useful = gets["counters"].get("store.useful_probes", 0)
    return {
        "block_io.sst_block_read_s": (
            span_total(gets, "block_io.sst_block_read")
            + span_total(scans, "block_io.sst_block_read")),
        "block_io.sst_blocks_per_get": (
            span_total(gets, "block_io.sst_block_read", 0) / n_gets
            if n_gets else 0.0),
        "store.wal.append_s": span_total(summary, "store.wal.append"),
        "store.memtable.apply_s": span_total(summary, "store.memtable.apply"),
        "store.flush_s": (span_total(summary, "store.flush")
                          - span_total(summary, "store.compaction")),
        "store.flushes": span_total(summary, "store.flush", 0),
        "store.compaction_s": span_total(summary, "store.compaction"),
        "store.compactions": span_total(summary, "store.compaction", 0),
        "store.compacted_bytes": summary["counters"].get(
            "store.compacted_bytes", 0),
        "store.tables_live": result["tables_live"],
        "store.probes_per_get": lookups / n_gets if n_gets else 0.0,
        "store.useful_probe_ratio": useful / lookups if lookups else 0.0,
        "store.lookup_s": span_total(gets, "store.lookup"),
        "store.scan_merge_self_s": span_total(summary, "store.scan", 2),
    }


def child_main(argv: List[str]) -> int:
    """Child entry: ``store_workload.py WORKDIR SEED SECONDS TRACE SMALL OUT``."""
    work, seed, seconds, trace, small, out_path = argv
    require_program()
    pin_to_one_cpu()
    ops = Ops(int(seed), small == "1")
    # The operation list and oracle are the benchmark's, not the
    # store's: keep the cyclic collector from rescanning them, so its
    # pauses depend on the store's own objects only.
    gc.collect()
    gc.freeze()
    # Peak RSS is reported over this baseline: what the store adds to
    # an interpreter holding the operations and their oracle.
    report: Dict[str, Any] = {
        "baseline_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    path = os.path.join(work, "store")
    if trace == "1":
        from layers import Patches, install_store_layers
        from tracer import Tracer

        untraced = units(ops, path, TRACE_UNITS, put_lat=[])
        tracer = Tracer(f"store-{seed}")
        patches = Patches()
        install_store_layers(tracer, patches)
        try:
            traced = units(ops, path, TRACE_UNITS, tracer)
        finally:
            patches.undo()
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(TRACE_DIR, f"store-seed{seed}.jsonl"))
        summary = tracer_summary(tracer, [traced["root_id"]])
        values = store_layer_metrics(traced, summary)
        for name in ("put_p9999_us", "scan_keys_per_s", "write_amp",
                     "space_amp"):
            values[name] = untraced[name]
        values["get_p50_us"] = percentile(untraced["get_s"], 50) * 1e6
        values["trace.overhead_frac"] = traced["wall"] / untraced["wall"] - 1
        values["trace.unattributed_frac"] = (
            summary["root_self_s"] / summary["root_s"])
        report["runs"] = [untraced, traced]
        report["layer_values"] = values
    else:
        count = repetitions(float(seconds), UNIT_NOMINAL_S)
        report["runs"] = [units(ops, path, count)]
    for entry in report["runs"]:
        entry.pop("phases", None)
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool) -> Dict[str, Any]:
    work = make_workdir(workload)
    out_path = os.path.join(work, "result.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "store_workload.py"),
            work, str(seed), str(seconds), "1" if trace else "0",
            "1" if small else "0", out_path]
    code, _, rss = Child(argv, stderr=None).wait()
    if code != 0 or not os.path.isfile(out_path):
        raise RuntimeError(f"store driver exited with {code}")
    with open(out_path, encoding="utf-8") as handle:
        report = json.load(handle)
    runs = report["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        metrics = full_layer_metrics(report["layer_values"])
    else:
        measured = runs[0]
        metrics = {
            "setup_s": {"value": median(measured["reopen_s"]), "unit": "s"},
            "throughput_per_s": {"value": median(measured["put_ops_s"]),
                                 "unit": "1/s"},
            "latency_ms": {
                "value": percentile(measured["get_s"], 50) * 1e3,
                "unit": "ms"},
            "latency_tail_ms": {
                "value": percentile(measured["get_s"], TAIL_PERCENTILE) * 1e3,
                "unit": "ms"},
            "peak_rss_mb": {"value": rss - report["baseline_rss_mb"],
                            "unit": "MB"},
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "work": work}


if __name__ == "__main__":
    raise SystemExit(child_main(sys.argv[1:]))
