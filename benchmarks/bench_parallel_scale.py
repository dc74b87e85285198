"""Speedup sweep for the parallel partitioned sort, one or more source trees.

Sorts the same random dataset at several ``--workers`` settings, under
one or more ``--partition`` strategies, and records wall-clock, speedup
vs the first setting, and an output digest (every setting must produce
byte-identical output) into ``BENCH_parallel.json`` at the repo root.

Each sort runs in a fresh child process that imports ``repro`` from
one source tree.  Given several trees (``--tree NAME=SRC_DIR``,
repeatable), the sorts alternate between them, in reversed order on
every other repeat, so a machine that drifts slows each tree alike.

The machine's CPU count is recorded alongside the numbers: on a
single-core box the workers serialise and the sweep measures the
partitioning overhead instead of a speedup, which is exactly what the
JSON should say for that machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scale.py \\
        --records 2000000 --workers 1 2 4
    PYTHONPATH=src python benchmarks/bench_parallel_scale.py \\
        --workers 1 2 --partition hash range --repeats 3 \\
        --tree parent=../parent/src --tree change=src

This is a standalone script, not a pytest-benchmark module: one run
at production scale takes seconds to minutes, and the quantity of
interest is the relative wall-clock of whole sorts, not a
microbenchmark statistic.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.sort.parallel import usable_cpus

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "BENCH_parallel.json"

#: One full sort in a child process: argv = records, memory, algorithm,
#: partition, workers, seed.  It prints one JSON object.
CHILD = r"""
import hashlib, json, sys, time
from repro.core.config import GeneratorSpec
from repro.core.records import INT
from repro.sort.parallel import PartitionedSort
from repro.workloads.generators import random_input

records, memory, algorithm, partition, workers, seed = sys.argv[1:]
records, memory, workers = int(records), int(memory), int(workers)
sorter = PartitionedSort(
    GeneratorSpec(algorithm, memory), workers=workers,
    partition=partition, record_format=INT,
)
source = random_input(records, seed=int(seed))
digest = hashlib.sha256()
count = 0
started = time.perf_counter()
for value in sorter.sort(source):
    digest.update((str(value) + "\n").encode("ascii"))
    count += 1
wall = time.perf_counter() - started
assert count == records, f"lost records: {count} != {records}"
print(json.dumps({"wall_seconds": wall,
                  "partition_seconds": sorter.partition_wall,
                  "runs": sorter.report.runs,
                  "sha256": digest.hexdigest()}))
"""


def run_once(
    src: str,
    records: int,
    memory: int,
    algorithm: str,
    partition: str,
    workers: int,
    seed: int,
) -> Dict:
    """One full sort importing ``repro`` from ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(records), str(memory), algorithm,
         partition, str(workers), str(seed)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC_DIR",
                        help="a source tree to import repro from "
                             "(repeatable; default current=<repo>/src)")
    parser.add_argument("--records", type=int, default=2_000_000)
    parser.add_argument("--memory", type=int, default=20_000)
    parser.add_argument("--algorithm", default="lss",
                        choices=("rs", "2wrs", "lss", "brs"))
    parser.add_argument("--partition", nargs="+", default=["hash"],
                        choices=("hash", "range"))
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    trees: Dict[str, str] = {}
    for spec in args.tree or [f"current={REPO / 'src'}"]:
        name, sep, src = spec.partition("=")
        if not sep or not name or not src:
            parser.error(f"--tree wants NAME=SRC_DIR, got {spec!r}")
        trees[name] = str(Path(src).resolve())

    results = []
    for partition in args.partition:
        for workers in args.workers:
            samples: Dict[str, List[Dict]] = {name: [] for name in trees}
            order = list(trees)
            for repeat in range(args.repeats):
                for name in order if repeat % 2 == 0 else order[::-1]:
                    samples[name].append(run_once(
                        trees[name], args.records, args.memory,
                        args.algorithm, partition, workers, args.seed,
                    ))
            for name, runs in samples.items():
                walls = [run["wall_seconds"] for run in runs]
                row = {
                    "tree": name,
                    "partition": partition,
                    "workers": workers,
                    "wall_seconds": round(statistics.median(walls), 3),
                    "wall_runs_seconds": [round(w, 3) for w in walls],
                    "partition_seconds": round(statistics.median(
                        run["partition_seconds"] for run in runs), 3),
                    "runs": runs[0]["runs"],
                    "sha256": sorted({run["sha256"] for run in runs}),
                }
                results.append(row)
                print(f"{partition:<5} workers={workers} {name:<8} "
                      f"wall={row['wall_seconds']}s {row['wall_runs_seconds']}",
                      flush=True)

    for row in results:
        first = next(r for r in results
                     if (r["tree"], r["partition"]) ==
                     (row["tree"], row["partition"]))
        row["speedup"] = round(first["wall_seconds"] / row["wall_seconds"], 3)
    digests = {digest for row in results for digest in row["sha256"]}
    identical = len(digests) == 1

    payload = {
        "benchmark": "parallel partitioned sort, wall-clock vs workers",
        "records": args.records,
        "memory": args.memory,
        "algorithm": args.algorithm,
        "partitions": args.partition,
        "repeats": args.repeats,
        "seed": args.seed,
        "trees": list(trees),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": sys.version.split()[0],
        "output_identical_across_settings_and_trees": identical,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not identical:
        print("ERROR: outputs differ across settings or trees",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
