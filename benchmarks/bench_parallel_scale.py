"""Speedup sweep for the parallel partitioned sort.

Sorts the same random dataset at several ``--workers`` settings and
records wall-clock, speedup vs the first setting, and an output
digest (all settings must produce byte-identical output) into
``BENCH_parallel.json`` at the repo root.

The machine's CPU count is recorded alongside the numbers: on a
single-core box the workers serialise and the sweep measures the
partitioning overhead instead of a speedup, which is exactly what the
JSON should say for that machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scale.py \
        --records 2000000 --workers 1 2 4

This is a standalone script, not a pytest-benchmark module: one run
at production scale takes minutes, and the quantity of interest is the
relative wall-clock of whole sorts, not a microbenchmark statistic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.core.config import GeneratorSpec
from repro.core.records import INT
from repro.sort.parallel import PartitionedSort, usable_cpus
from repro.workloads.generators import random_input

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def run_once(
    records: int,
    memory: int,
    algorithm: str,
    partition: str,
    workers: int,
    seed: int,
) -> dict:
    """One full sort; returns wall time and an output digest."""
    sorter = PartitionedSort(
        GeneratorSpec(algorithm, memory), workers=workers,
        partition=partition, record_format=INT,
    )
    source = random_input(records, seed=seed)
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in sorter.sort(source):
        digest.update((str(value) + "\n").encode("ascii"))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    return {
        "workers": workers,
        "wall_seconds": round(wall, 3),
        "partition_seconds": round(sorter.partition_wall, 3),
        "runs": sorter.report.runs,
        "sha256": digest.hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=2_000_000)
    parser.add_argument("--memory", type=int, default=20_000)
    parser.add_argument("--algorithm", default="lss",
                        choices=("rs", "2wrs", "lss", "brs"))
    parser.add_argument("--partition", default="hash",
                        choices=("hash", "range"))
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    results = []
    for workers in args.workers:
        print(f"workers={workers}: sorting {args.records} records ...",
              flush=True)
        row = run_once(
            args.records, args.memory, args.algorithm, args.partition,
            workers, args.seed,
        )
        results.append(row)
        print(f"  wall={row['wall_seconds']}s", flush=True)

    baseline = results[0]["wall_seconds"]
    for row in results:
        row["speedup"] = round(baseline / row["wall_seconds"], 3)
    digests = {row["sha256"] for row in results}
    identical = len(digests) == 1

    payload = {
        "benchmark": "parallel partitioned sort, wall-clock vs workers",
        "records": args.records,
        "memory": args.memory,
        "algorithm": args.algorithm,
        "partition": args.partition,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": sys.version.split()[0],
        "output_identical_across_worker_counts": identical,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not identical:
        print("ERROR: outputs differ across worker counts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
