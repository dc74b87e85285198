"""Load generator for the resident sort service (DESIGN.md §16).

Starts a real server (in-process asyncio listener over a temp spool),
then drives it at several client concurrency levels: each client
thread submits spilling sort jobs and waits for each over the TCP
protocol (a server-side ``wait`` that answers once the job is done),
exactly as ``repro submit --wait`` would.  Per-level
throughput (jobs/s) and latency quantiles (p50/p99, submit → done)
land in ``BENCH_service.json`` at the repo root.

Every job sorts its own pre-generated input file (distinct specs —
identical specs would collapse into one job id by design), and every
result is digest-checked against a serial ``sorted()`` so the bench
cannot quietly measure wrong answers.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        --records 50000 --jobs-per-client 3 --concurrency 1 4 8

    PYTHONPATH=src python benchmarks/bench_service.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.service.client import ServiceClient, read_endpoint
from repro.service.server import SortService

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _make_inputs(directory: str, count: int, records: int) -> List[Dict]:
    """One shuffled input file (and its expected digest) per job."""
    jobs = []
    for index in range(count):
        stride = 7 + 2 * index
        values = [(stride * i) % records for i in range(records)]
        path = os.path.join(directory, f"in-{index}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(str(v) for v in values) + "\n")
        expected = "\n".join(str(v) for v in sorted(values)) + "\n"
        jobs.append(
            {
                "input": path,
                "digest": hashlib.sha256(
                    expected.encode("utf-8")
                ).hexdigest(),
            }
        )
    return jobs


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, round(q * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _drive_level(
    address: str,
    jobs: List[Dict],
    concurrency: int,
    memory: int,
    verify: bool,
    out_dir: str,
) -> Dict:
    """All jobs through ``concurrency`` client threads; one level's row."""
    latencies: List[float] = []
    failures: List[str] = []
    lock = threading.Lock()
    queue = list(enumerate(jobs))

    def worker() -> None:
        client = ServiceClient(address)
        while True:
            with lock:
                if not queue:
                    return
                index, job = queue.pop()
            started = time.perf_counter()
            payload = client.submit(
                {
                    "op": "sort",
                    "input": job["input"],
                    "memory": memory,
                    # Distinct output per (level, job): identical specs
                    # would collapse into one already-done job id, and
                    # later levels would measure cache hits, not sorts.
                    "output": os.path.join(out_dir, f"out-{index}.txt"),
                }
            )
            payload = client.wait(payload["id"], timeout=600.0)
            elapsed = time.perf_counter() - started
            if payload["status"] != "done":
                with lock:
                    failures.append(f"{payload['id']}: {payload['error']}")
                return
            if verify:
                sink = io.StringIO()
                client.result(payload["id"], sink)
                digest = hashlib.sha256(
                    sink.getvalue().encode("utf-8")
                ).hexdigest()
                if digest != job["digest"]:
                    with lock:
                        failures.append(f"{payload['id']}: wrong output")
                    return
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=worker) for _ in range(concurrency)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if failures:
        raise SystemExit("bench jobs failed:\n" + "\n".join(failures))
    latencies.sort()
    return {
        "concurrency": concurrency,
        "jobs": len(jobs),
        "wall_s": round(wall, 3),
        "throughput_jobs_s": round(len(jobs) / wall, 3),
        "p50_latency_s": round(_quantile(latencies, 0.50), 3),
        "p99_latency_s": round(_quantile(latencies, 0.99), 3),
        "max_latency_s": round(latencies[-1], 3),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=50_000,
                        help="records per job input (default 50000)")
    parser.add_argument("--memory", type=int, default=500,
                        help="per-job memory ask in records; small "
                             "enough that every job spills (default 500)")
    parser.add_argument("--jobs-per-client", type=int, default=3,
                        help="jobs each client thread works through "
                             "(default 3)")
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=[1, 4, 8],
                        help="client concurrency levels (default 1 4 8)")
    parser.add_argument("--total-memory", type=int, default=20_000,
                        help="server memory pool in records")
    parser.add_argument("--job-workers", type=int, default=8,
                        help="server job threads (default 8)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the per-job output digest check")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI: proves the harness "
                             "runs, not the numbers")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.smoke:
        args.records = 5_000
        args.jobs_per_client = 2
        args.concurrency = [1, 2, 4]

    levels = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as work:
        service = SortService(
            os.path.join(work, "spool"),
            total_memory=args.total_memory,
            job_workers=args.job_workers,
        )
        endpoint = os.path.join(work, "endpoint.json")

        def serve() -> None:
            asyncio.run(service.run(endpoint_file=endpoint))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        address = read_endpoint(endpoint, timeout=30.0)
        client = ServiceClient(address)
        try:
            max_jobs = max(args.concurrency) * args.jobs_per_client
            inputs = _make_inputs(work, max_jobs, args.records)
            for concurrency in args.concurrency:
                jobs = inputs[: concurrency * args.jobs_per_client]
                out_dir = os.path.join(work, f"out-c{concurrency}")
                os.mkdir(out_dir)
                row = _drive_level(
                    address, jobs, concurrency, args.memory,
                    verify=not args.no_verify, out_dir=out_dir,
                )
                print(
                    f"concurrency={row['concurrency']:>2}  "
                    f"jobs={row['jobs']:>3}  "
                    f"throughput={row['throughput_jobs_s']:>7.3f} jobs/s  "
                    f"p50={row['p50_latency_s']:.3f}s  "
                    f"p99={row['p99_latency_s']:.3f}s",
                    flush=True,
                )
                levels.append(row)
        finally:
            try:
                client.shutdown()
            except (ConnectionError, OSError):
                pass
            thread.join(timeout=30.0)

    result = {
        "benchmark": "service-load",
        "smoke": bool(args.smoke),
        "records_per_job": args.records,
        "job_memory": args.memory,
        "server_total_memory": args.total_memory,
        "server_job_workers": args.job_workers,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "levels": levels,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
