"""Run-generation timing: each algorithm in process, one or more source trees.

Times ``generate_runs`` of every run-generation algorithm, built through
``GeneratorSpec(algorithm, memory).build()``, on the inputs of the
perfbench sort workloads: ``random`` (200k records) and
``mixed_balanced`` (1M records), both from ``make_input`` with
``--seed``, at memory 10000.  The inputs are generated once, before any
timing, and handed to every measurement as a file of int64 values.

Each measurement is a fresh child process that imports ``repro`` from
one source tree, loads the input, generates every run into a list and
reports the wall and CPU seconds of the generation alone, the run
count, the analytic ``stats.cpu_ops`` and a sha256 over the runs.
Given several trees (``--tree NAME=SRC_DIR``, repeatable), the
measurements alternate between them, in reversed order on every other
repeat, so a machine that drifts slows each tree alike.  The runs and
their digests must be identical across repeats and trees; the script
exits 1 when they are not.

Each cell of ``BENCH_rungen.json`` records, per tree, the median and
interquartile range of the wall and CPU seconds over ``--repeats``
runs, with the raw values, and the runs, ``cpu_ops`` and sha256.

Usage::

    PYTHONPATH=src python benchmarks/bench_rungen.py --repeats 7
    PYTHONPATH=src python benchmarks/bench_rungen.py \\
        --tree parent=../parent/src --tree change=src

    PYTHONPATH=src python benchmarks/bench_rungen.py --smoke

``--smoke`` shrinks the inputs (20k and 50k records, memory 1000, one
repeat) and writes to a temporary file unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "BENCH_rungen.json"

#: Input name -> (distribution, records, records under --smoke).
INPUTS = {
    "random": ("random", 200_000, 20_000),
    "mixed_balanced": ("mixed_balanced", 1_000_000, 50_000),
}
ALGORITHMS = ("rs", "2wrs", "lss", "brs")
MEMORY = 10_000
SMOKE_MEMORY = 1_000

#: The measurement a child process runs: argv = input file, algorithm,
#: memory.  It prints one JSON object.
CHILD = r"""
import hashlib, json, sys, time
from array import array
from repro.core.config import GeneratorSpec

path, algorithm, memory = sys.argv[1], sys.argv[2], int(sys.argv[3])
values = array("q")
with open(path, "rb") as f:
    values.frombytes(f.read())
records = values.tolist()
del values
generator = GeneratorSpec(algorithm, memory).build()
wall, cpu = time.perf_counter(), time.process_time()
runs = list(generator.generate_runs(records))
cpu = time.process_time() - cpu
wall = time.perf_counter() - wall
sha = hashlib.sha256()
for run in runs:
    sha.update(len(run).to_bytes(8, "little"))
    sha.update(array("q", run).tobytes())
print(json.dumps({"wall_s": wall, "cpu_s": cpu, "runs": len(runs),
                  "cpu_ops": generator.stats.cpu_ops,
                  "sha256": sha.hexdigest()}))
"""


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(src: str, path: str, algorithm: str, memory: int) -> Dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, path, algorithm, str(memory)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarise(samples: List[Dict]) -> Dict:
    row: Dict = {}
    for metric in ("wall_s", "cpu_s"):
        values = [sample[metric] for sample in samples]
        q1, q2, q3 = quartiles(values)
        name = metric[:-2]
        row[f"{name}_median_s"] = round(q2, 4)
        row[f"{name}_iqr_s"] = [round(q1, 4), round(q3, 4)]
        row[f"{name}_runs_s"] = [round(v, 4) for v in values]
    outcomes = {(s["runs"], s["cpu_ops"], s["sha256"]) for s in samples}
    row["runs"], row["cpu_ops"], row["sha256"] = sorted(outcomes)[0]
    row["repeats_agree"] = len(outcomes) == 1
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC_DIR",
                        help="a source tree to import repro from "
                             "(repeatable; default current=<repo>/src)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, memory 1000, one repeat, "
                             "temporary output file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    trees: Dict[str, str] = {}
    for spec in args.tree or [f"current={REPO / 'src'}"]:
        name, sep, src = spec.partition("=")
        if not sep or not name or not src:
            parser.error(f"--tree wants NAME=SRC_DIR, got {spec!r}")
        trees[name] = str(Path(src).resolve())
    memory = SMOKE_MEMORY if args.smoke else MEMORY
    if args.smoke:
        args.repeats = 1
    output = args.output
    if output is None:
        if args.smoke:
            fd, name = tempfile.mkstemp(prefix="bench-rungen-", suffix=".json")
            os.close(fd)
            output = Path(name)
        else:
            output = DEFAULT_OUTPUT

    from repro.workloads.generators import make_input

    cells = []
    identical = True
    with tempfile.TemporaryDirectory(prefix="bench-rungen-") as scratch:
        for input_name, (dist, records, smoke_records) in INPUTS.items():
            n = smoke_records if args.smoke else records
            path = os.path.join(scratch, f"{input_name}.q")
            with open(path, "wb") as f:
                array("q", make_input(dist, n, seed=args.seed)).tofile(f)
            for algorithm in ALGORITHMS:
                samples: Dict[str, List[Dict]] = {name: [] for name in trees}
                order = list(trees)
                for repeat in range(args.repeats):
                    for name in order if repeat % 2 == 0 else order[::-1]:
                        samples[name].append(
                            measure(trees[name], path, algorithm, memory)
                        )
                per_tree = {name: summarise(s) for name, s in samples.items()}
                agree = all(row["repeats_agree"] for row in per_tree.values())
                agree = agree and len(
                    {(r["runs"], r["cpu_ops"], r["sha256"])
                     for r in per_tree.values()}
                ) == 1
                identical = identical and agree
                cells.append({"input": input_name, "records": n,
                              "algorithm": algorithm, "trees": per_tree,
                              "identical_runs": agree})
                line = "  ".join(
                    f"{name} {row['wall_median_s']:.3f}s "
                    f"[{row['wall_iqr_s'][0]:.3f}, {row['wall_iqr_s'][1]:.3f}]"
                    for name, row in per_tree.items()
                )
                print(f"{input_name:15} {algorithm:5} runs="
                      f"{next(iter(per_tree.values()))['runs']:<4} {line}",
                      flush=True)

    payload = {
        "benchmark": "in-process run generation per algorithm",
        "memory": memory,
        "repeats": args.repeats,
        "seed": args.seed,
        "smoke": args.smoke,
        "trees": list(trees),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "identical_runs_across_trees": identical,
        "cells": cells,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if not identical:
        print("ERROR: runs differ across repeats or trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
