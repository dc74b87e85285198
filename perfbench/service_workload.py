"""``service``: ``repro serve`` with default flags under two closed-loop
clients.

Each client submits a job, ``wait``s for it with the client's default
poll interval, then streams the ``result``; only then does it submit
its next job.  Jobs go round-robin through three kinds:

* ``sort``: random ints, enough to spill, so the job runs the
  journaled resumable sort (service sorts always have a work
  directory, so 2WRS is bypassed);
* ``agg``: csv rows, key column 0, ``count,sum`` over ~500 groups;
* ``ingest``: ``store_ingest`` of an oplog into the client's own store
  directory, which every ingest job reopens.

Every job reads its own freshly generated input file: job ids are
content-addressed, so identical specs would collapse into one cached
job.  Every result is checked against an oracle, and after the server
stops each client's store is compared with the ops it ingested.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    TRACE_DIR,
    Child,
    full_layer_metrics,
    make_workdir,
    median,
    percentile,
    span_total,
    repetitions,
    sha256_text,
    sort_layer_metrics,
    tracer_summary,
    write_lines,
)
from refclock import speed_factor_within

CLIENTS = 2
KINDS = ("sort", "agg", "ingest")
#: Records per job input (full size, small mode).
SORT_RECORDS = (15_000, 12_000)
AGG_ROWS = (15_000, 3_000)
AGG_GROUPS = 500
INGEST_OPS = (2_500, 500)
#: Ingest keys come from a space so large that nearly every put adds a
#: key: the 10000-record memtable of a job's grant flushes every fourth
#: ingest, so the WAL a reopen replays stays bounded as rounds go by.
INGEST_KEYS = 10**9
#: Nominal seconds of one round (one job of each kind per client; see
#: ``common.repetitions``).
ROUND_NOMINAL_S = 1.0
#: Extra server spawns before and after the measured one in an
#: untraced run; setup_s is the median spawn-to-first-ping of all, at
#: the reference speed of the server's CPU.
SETUP_SPAWNS_EACH_SIDE = 2
STARTUP_TIMEOUT_S = 30.0


class _Sha256Sink:
    """A text sink that keeps only the sha256 of what it is given."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode("utf-8"))

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


class Job:
    __slots__ = ("kind", "spec", "oracle", "ops")

    def __init__(self, kind: str, spec: Dict[str, Any], oracle: str,
                 ops: Optional[List[Tuple[bool, bytes, bytes]]] = None) -> None:
        self.kind = kind
        self.spec = spec
        self.oracle = oracle
        self.ops = ops


def _int_text(values: List[int]) -> str:
    return "\n".join(map(str, values)) + "\n"


#: The agg jobs' group keys; zero-padded so text and key order agree.
_AGG_KEYS = [f"g{g:04d}" for g in range(AGG_GROUPS)]


def _make_job(work: str, tag: str, index: int, client: int, kind: str,
              rng: random.Random, small: bool) -> Job:
    path = os.path.join(work, "inputs", f"{tag}-job{index:05d}-{kind}.txt")
    size = 1 if small else 0
    if kind == "sort":
        bits = rng.getrandbits
        values = [bits(30) for _ in range(SORT_RECORDS[size])]
        write_lines(path, [_int_text(values)])
        values.sort()
        return Job(kind, {"op": "sort", "input": path},
                   sha256_text(_int_text(values)))
    if kind == "agg":
        rows = AGG_ROWS[size]
        keys = rng.choices(_AGG_KEYS, k=rows)
        bits = rng.getrandbits
        values = [bits(10) for _ in range(rows)]
        write_lines(path, [f"{k},{v}\n" for k, v in zip(keys, values)])
        counts = dict.fromkeys(_AGG_KEYS, 0)
        sums = dict.fromkeys(_AGG_KEYS, 0)
        for key, value in zip(keys, values):
            counts[key] += 1
            sums[key] += value
        expected = "".join(
            f"{k},{counts[k]},{sums[k]}\n" for k in _AGG_KEYS if counts[k]
        )
        return Job(kind, {
            "op": "agg", "input": path, "format": "csv", "key": 0,
            "value": 1, "aggregates": ["count", "sum"],
        }, sha256_text(expected))
    ops = []
    lines = []
    for i in range(INGEST_OPS[size]):
        key = b"c%dk%09d" % (client, rng.randrange(INGEST_KEYS))
        if rng.random() < 0.85:
            value = b"%05d:%08x" % (index, rng.getrandbits(32))
            ops.append((True, key, value))
            lines.append(f"put\t{key.decode()}\t{value.decode()}\n")
        else:
            ops.append((False, key, b""))
            lines.append(f"del\t{key.decode()}\n")
    write_lines(path, lines)
    store = os.path.join(work, f"store-{tag}-client{client}")
    return Job(kind, {"op": "store_ingest", "input": path,
                              "store": store}, "", ops)


def _make_jobs(work: str, tag: str, rng: random.Random, rounds: int,
               small: bool) -> List[List[Job]]:
    """Per-client job lists: each round gives every client one job of
    each kind."""
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    per_client: List[List[Job]] = [[] for _ in range(CLIENTS)]
    for round_ in range(rounds):
        for client in range(CLIENTS):
            for k in range(len(KINDS)):
                index = (round_ * CLIENTS + client) * len(KINDS) + k
                kind = KINDS[k]
                per_client[client].append(
                    _make_job(work, tag, index, client, kind, rng, small))
    return per_client


def _wait_endpoint(path: str, alive: Any) -> str:
    from repro.engine.resilience import read_marker

    deadline = time.perf_counter() + STARTUP_TIMEOUT_S
    while time.perf_counter() < deadline:
        payload = read_marker(path)
        if payload and "host" in payload and "port" in payload:
            return f"{payload['host']}:{payload['port']}"
        if not alive():
            break
        time.sleep(0.002)
    raise RuntimeError(f"service never published {path!r}")


class _SpawnedServer:
    """``repro serve`` with default flags, as a child process under
    ``cli_child.py --speed``: pinned to one CPU beside a reference-clock
    sampler, whose samples ``stop()`` loads for :meth:`scale`.

    With ``trace_prefix`` the child also installs the sort and service
    layer wrappers and writes its tracer summary to
    ``trace_prefix + ".json"`` when it shuts down."""

    def __init__(self, work: str, tag: str,
                 trace_prefix: Optional[str] = None) -> None:
        from repro.service.client import ServiceClient

        endpoint = os.path.join(work, f"endpoint-{tag}.json")
        self._speed = os.path.join(work, f"speed-{tag}.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"),
                "--speed", self._speed]
        if trace_prefix is not None:
            argv += ["--trace", trace_prefix]
        argv += ["--", "serve", "--spool", os.path.join(work, f"spool-{tag}"),
                 "--endpoint-file", endpoint]
        self.started = time.perf_counter()
        self.child = Child(argv)
        try:
            address = _wait_endpoint(endpoint,
                                     lambda: self.child.proc.poll() is None)
            self.client = ServiceClient(address)
            self.client.ping()
        except BaseException:
            self.child.proc.kill()
            self.child.wait()
            raise
        self.ready = time.perf_counter()
        self.address = address
        self.samples: List[Tuple[float, float]] = []

    def stop(self) -> Tuple[int, float]:
        """Shut down; return ``(exit code, peak RSS MB)``."""
        from repro.service.client import ServiceError

        try:
            self.client.shutdown()
        except (OSError, ServiceError):
            self.child.proc.kill()
        code, _, rss = self.child.wait()
        if code == 0:
            with open(self._speed, encoding="utf-8") as handle:
                self.samples = [tuple(s) for s in json.load(handle)["ref_samples"]]
        return code, rss

    def scale(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed of the server's CPU."""
        return (end - start) * speed_factor_within(self.samples, start, end)


def _drive(address: str, jobs: List[List[Job]],
           tracer: Any = None) -> Dict[str, Any]:
    """One client thread per job list.

    The clients start each round (one job of each kind, in the same
    order) together, so every job runs beside the other client's job
    of the same kind.  Left to drift, two closed loops settle into
    overlap patterns that differ from run to run, and the agg jobs'
    run time with them."""
    from repro.service.client import ServiceClient

    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    root = tracer.begin("service.clients") if tracer is not None else None
    started = time.perf_counter()
    barrier = threading.Barrier(CLIENTS, timeout=STARTUP_TIMEOUT_S * 4)

    def client_loop(mine: List[Job]) -> None:
        client = ServiceClient(address)
        for position, job in enumerate(mine):
            if position and position % len(KINDS) == 0:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    return
            frame = (tracer.begin("service.job", parent=root.id)
                     if tracer is not None else None)
            entry: Dict[str, Any] = {"kind": job.kind, "job": job, "ok": False}
            t0 = time.perf_counter()
            try:
                submitted = client.submit(job.spec)
                status = client.wait(submitted["id"])
                t1 = time.perf_counter()
                sink = _Sha256Sink()
                if status.get("status") == "done":
                    if tracer is not None:
                        with tracer.span("service.result_stream"):
                            client.result(submitted["id"], sink)
                    else:
                        client.result(submitted["id"], sink)
                t2 = time.perf_counter()
                entry.update(
                    start=t0, latency=t2 - t0, stream=t2 - t1,
                    waited=float(status.get("waited_s", 0.0)),
                    ran=float(status.get("ran_s", 0.0)),
                    ok=status.get("status") == "done"
                    and _result_ok(job, sink, status),
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                entry["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                if frame is not None:
                    tracer.end(frame)
            with lock:
                records.append(entry)

    threads = [threading.Thread(target=client_loop, args=(jobs[c],))
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    if tracer is not None:
        tracer.end(root)
    return {"records": records, "started": started, "ended": ended,
            "root_ids": [root.id] if root is not None else []}


def _run_pass(work: str, tag: str, rng: random.Random, address: str,
              seconds: float, small: bool, tracer: Any = None) -> Dict[str, Any]:
    """The rounds that fill ``seconds``, inputs generated beforehand."""
    rounds = 1 if small else repetitions(seconds, ROUND_NOMINAL_S)
    return _drive(address, _make_jobs(work, tag, rng, rounds, small), tracer)


def _result_ok(job: Job, sink: _Sha256Sink, status: Dict[str, Any]) -> bool:
    if job.kind == "ingest":
        report = status.get("report") or {}
        return report.get("applied") == len(job.ops or ())
    return sink.hexdigest() == job.oracle


def _stores_ok(records: List[Dict[str, Any]]) -> Tuple[int, int]:
    """Compare each client's store with the ingest jobs it ran.

    A client runs its jobs one after another, so its records are in
    the order the ingests were applied."""
    from repro.store import Store

    expected: Dict[str, Dict[bytes, bytes]] = {}
    for record in records:
        job = record["job"]
        if job.kind != "ingest":
            continue
        state = expected.setdefault(job.spec["store"], {})
        for is_put, key, value in job.ops or ():
            if is_put:
                state[key] = value
            else:
                state.pop(key, None)
    failed = 0
    for store_dir, state in expected.items():
        with Store(store_dir, sync=False) as store:
            if dict(store.scan()) != state:
                failed += 1
    return len(expected), failed


def _latency_metrics(records: List[Dict[str, Any]]) -> Dict[str, float]:
    done = [r for r in records if r["ok"]]
    out = {"job_p50_ms": median([r["latency"] for r in done]) * 1e3}
    for kind, name in (("sort", "sort_job_p50_ms"), ("agg", "agg_job_p50_ms"),
                       ("ingest", "ingest_job_p50_ms")):
        out[name] = median([r["latency"] for r in done if r["kind"] == kind]) * 1e3
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool) -> Dict[str, Any]:
    work = make_workdir(workload)
    passes = 2 if trace else 1
    rng = random.Random(seed)
    attempted = failed = 0
    setup: List[float] = []

    def spawn_only(tag: str) -> None:
        nonlocal attempted, failed
        server = _SpawnedServer(work, tag)
        code, _ = server.stop()
        setup.append(server.scale(server.started, server.ready))
        attempted += 1
        failed += code != 0

    extra_spawns = 0 if trace else SETUP_SPAWNS_EACH_SIDE
    for i in range(extra_spawns):
        spawn_only(f"before{i}")
    server = _SpawnedServer(work, "main")
    try:
        untraced = _run_pass(work, "untraced", rng, server.address,
                             seconds / passes, small)
    finally:
        code, rss = server.stop()
    setup.append(server.scale(server.started, server.ready))
    attempted += 1
    failed += code != 0
    for i in range(extra_spawns):
        spawn_only(f"after{i}")
    outcomes = [untraced]
    if trace:
        traced, layer_values = _traced_pass(work, seed, rng,
                                            seconds / passes, small)
        outcomes.append(traced)
    for outcome in outcomes:
        attempted += len(outcome["records"])
        failed += sum(1 for r in outcome["records"] if not r["ok"])
        store_attempted, store_failed = _stores_ok(outcome["records"])
        attempted += store_attempted
        failed += store_failed
    records = untraced["records"]
    done = [r for r in records if r["ok"]]
    if trace:
        values = dict(layer_values)
        values.update(_latency_metrics(records))
        per_job_untraced = (server.scale(untraced["started"], untraced["ended"])
                            / max(1, len(done)))
        traced_done = [r for r in traced["records"] if r["ok"]]
        per_job_traced = traced["scaled_s"] / max(1, len(traced_done))
        values["trace.overhead_frac"] = per_job_traced / per_job_untraced - 1
        metrics = full_layer_metrics(values)
    else:
        latencies = [server.scale(r["start"], r["start"] + r["latency"])
                     for r in done]
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "throughput_per_s": {
                "value": len(done) / server.scale(untraced["started"],
                                                  untraced["ended"]),
                "unit": "1/s"},
            "latency_ms": {"value": sum(latencies) / len(latencies) * 1e3,
                                "unit": "ms"},
            "latency_tail_ms": {"value": percentile(latencies, 90) * 1e3,
                                "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "work": work}


def _traced_pass(work: str, seed: int, rng: random.Random, seconds: float,
                 small: bool) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """The same rounds against a traced server; the clients trace their
    polls and result streams, the server its jobs' layers."""
    from layers import Patches
    from tracer import Tracer

    from repro.service.client import ServiceClient

    os.makedirs(TRACE_DIR, exist_ok=True)
    prefix = os.path.join(TRACE_DIR, f"service-server-seed{seed}")
    tracer = Tracer(f"service-{seed}")
    patches = Patches()
    patches.set(ServiceClient, "status", tracer.wrap_call(
        ServiceClient.status, "service.poll", record=False))
    try:
        server = _SpawnedServer(work, "traced", trace_prefix=prefix)
        try:
            outcome = _run_pass(work, "traced", rng, server.address, seconds,
                                small, tracer)
        finally:
            code, _ = server.stop()
    finally:
        patches.undo()
    if code != 0:
        raise RuntimeError(f"traced server exited with {code}")
    outcome["scaled_s"] = server.scale(outcome["started"], outcome["ended"])
    tracer.write_jsonl(os.path.join(TRACE_DIR, f"service-seed{seed}.jsonl"))
    with open(prefix + ".json", encoding="utf-8") as handle:
        server_summary = json.load(handle)
    summary = tracer_summary(tracer, outcome["root_ids"])
    values = sort_layer_metrics(server_summary)
    done = [r for r in outcome["records"] if r["ok"]]
    polls = span_total(summary, "service.poll", 0)
    opens = span_total(server_summary, "service.store_open", 0)
    values.update({
        "service.admission_wait_ms": median([r["waited"] for r in done]) * 1e3,
        "service.result_stream_ms": median([r["stream"] for r in done]) * 1e3,
        "service.polls_per_job": polls / len(done) if done else 0.0,
        "service.poll_slack_ms": median([
            r["latency"] - r["waited"] - r["ran"] - r["stream"] for r in done
        ]) * 1e3,
        "service.store_open_ms": (
            span_total(server_summary, "service.store_open") / opens * 1e3
            if opens else 0.0),
        "trace.unattributed_frac": summary["root_self_s"] / summary["root_s"],
    })
    for kind in KINDS:
        values[f"service.run_ms.{kind}"] = median(
            [r["ran"] for r in done if r["kind"] == kind]) * 1e3
    return outcome, values
