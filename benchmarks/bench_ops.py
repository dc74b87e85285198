"""Operator sweep: distinct / group-by / join / top-k on the SortEngine.

Runs each :mod:`repro.ops` operator over deterministic synthetic
corpora, serial and with ``workers=2``, and records wall seconds, row
counts and sha256 output digests in ``BENCH_ops.json`` at the repo
root.  Every operator must produce byte-identical output across
worker counts (asserted), and top-k is timed on both of its paths —
the bounded-heap short-circuit and the external-sort fallback.

Usage::

    PYTHONPATH=src python benchmarks/bench_ops.py --records 200000
    PYTHONPATH=src python benchmarks/bench_ops.py --smoke   # CI-sized

This is a standalone script, not a pytest-benchmark module: the
quantity of interest is the relative wall-clock of whole operator
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.config import GeneratorSpec
from repro.core.records import BinaryRecordFormat, DelimitedFormat, INT
from repro.engine.planner import SortEngine
from repro.ops import Distinct, GroupByAggregate, SortMergeJoin, TopK

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ops.json"


def csv_corpus(records: int, keys: int, seed: int) -> List:
    rng = random.Random(seed)
    fmt = DelimitedFormat(",", 0)
    return [
        fmt.decode(
            f"k{rng.randint(0, keys):05d},{rng.randint(-1000, 1000)},"
            f"p{rng.randint(0, 9)}"
        )
        for _ in range(records)
    ]


def int_corpus(records: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(0, records) for _ in range(records)]


def engine_for(memory: int, workers: int, record_format) -> SortEngine:
    return SortEngine(
        GeneratorSpec("lss", memory),
        record_format=record_format,
        workers=workers,
    )


def timed(label: str, make_stream, encode) -> dict:
    """Build and drain a record stream, hashing its encoded output.

    ``make_stream`` is a thunk so the clock covers operator start-up
    too — the top-k heap path does all its work eagerly.
    """
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for record in make_stream():
        digest.update(f"{encode(record)}\n".encode("utf-8"))
        count += 1
    wall = time.perf_counter() - started
    print(f"  {label}: wall={wall:.3f}s rows_out={count}", flush=True)
    return {
        "wall_seconds": round(wall, 3),
        "rows_out": count,
        "sha256": digest.hexdigest(),
    }


def sweep_operator(
    name: str,
    make_op,
    memory: int,
    text_leg: Tuple,
    binary_leg: Optional[Tuple] = None,
) -> dict:
    """One operator, serial and workers=2; assert identical digests.

    ``make_op(engine)`` builds the operator.  A leg is a
    ``(record_format, encode, inputs)`` triple: ``op.run(*inputs)``
    feeds one record list per operator input, and ``encode`` renders
    the output records for hashing.  When a binary leg is given, the
    operator also runs serially over the binary spill encoding of the
    same corpus, and its output digest must match the text path's byte
    for byte.
    """
    print(f"{name}:", flush=True)

    def measure(label: str, workers: int, leg: Tuple) -> dict:
        fmt, encode, inputs = leg
        op = make_op(engine_for(memory, workers, fmt))
        row = timed(
            f"{name} {label}",
            lambda: op.run(*(list(records) for records in inputs)),
            encode,
        )
        row["rows_in"] = op.report.rows_in
        row["groups"] = op.report.groups
        return row

    rows = {
        label: measure(label, workers, text_leg)
        for label, workers in (("serial", 1), ("workers_2", 2))
    }
    identical = rows["serial"]["sha256"] == rows["workers_2"]["sha256"]
    if binary_leg is not None:
        row = measure("binary", 1, binary_leg)
        row["identical_to_text"] = (
            row["sha256"] == rows["serial"]["sha256"]
        )
        row["speedup_vs_text"] = round(
            rows["serial"]["wall_seconds"] / row["wall_seconds"], 3
        ) if row["wall_seconds"] else None
        rows["serial_binary"] = row
        identical = identical and row["identical_to_text"]
    return {"operator": name, "identical_across_workers": identical, **rows}


def join_with_twin(engine: SortEngine) -> SortMergeJoin:
    """A join whose right side sorts through a copy of ``engine``."""
    right = engine_for(engine.spec.memory, engine.workers, engine.record_format)
    return SortMergeJoin(engine, right)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=200_000)
    parser.add_argument("--memory", type=int, default=2_000)
    parser.add_argument("--keys", type=int, default=5_000,
                        help="distinct key values in the csv corpora")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (overrides --records)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.smoke:
        args.records = min(args.records, 20_000)
        args.keys = min(args.keys, 500)

    csv_fmt = DelimitedFormat(",", 0)
    csv_rows = csv_corpus(args.records, args.keys, args.seed)
    right_rows = csv_corpus(args.records // 4, args.keys, args.seed + 1)
    ints = int_corpus(args.records, args.seed + 2)
    k = min(1_000, args.memory)

    # The same corpora as key-byte rows (what --format csv resolves
    # to): identical row text, normalised key bytes.  Each operator's
    # binary leg must hash identically to its text leg.
    bin_csv_fmt = BinaryRecordFormat(csv_fmt)
    bin_csv_rows = [bin_csv_fmt.decode(csv_fmt.encode(r)) for r in csv_rows]
    bin_right_rows = [
        bin_csv_fmt.decode(csv_fmt.encode(r)) for r in right_rows
    ]

    aggregates = ("count", "sum", "min", "max", "avg")
    results = [
        sweep_operator(
            "distinct", Distinct, args.memory,
            (csv_fmt, csv_fmt.encode, (csv_rows,)),
            (bin_csv_fmt, bin_csv_fmt.encode, (bin_csv_rows,)),
        ),
        sweep_operator(
            "aggregate",
            lambda e: GroupByAggregate(e, aggregates, value_column=1),
            args.memory,
            (csv_fmt, str, (csv_rows,)),
            (bin_csv_fmt, str, (bin_csv_rows,)),
        ),
        sweep_operator(
            "join", join_with_twin, args.memory,
            (csv_fmt, str, (csv_rows, right_rows)),
            (bin_csv_fmt, str, (bin_csv_rows, bin_right_rows)),
        ),
        sweep_operator(
            "topk", lambda e: TopK(e, k), args.memory,
            (INT, INT.encode, (ints,)),
        ),
    ]

    # The serial top-k above took the heap path (k <= memory); time the
    # external-sort fallback too by shrinking the budget below k.
    print("topk sorted-path (memory < k):", flush=True)
    small = TopK(engine_for(max(2, k // 4), 1, INT), k)
    sorted_path = timed(
        "topk sorted", lambda: small.run(list(ints)), INT.encode
    )
    heap_sha = next(r for r in results if r["operator"] == "topk")
    sorted_path["identical_to_heap_path"] = (
        sorted_path["sha256"] == heap_sha["serial"]["sha256"]
    )

    identical = all(r["identical_across_workers"] for r in results)
    payload = {
        "benchmark": "repro.ops operator sweep (serial vs workers=2)",
        "records": args.records,
        "memory": args.memory,
        "keys": args.keys,
        "seed": args.seed,
        "k": k,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "output_identical_across_workers": identical,
        "topk_heap_vs_sorted_identical":
            sorted_path["identical_to_heap_path"],
        "operators": results,
        "topk_sorted_path": sorted_path,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not identical or not sorted_path["identical_to_heap_path"]:
        print("ERROR: outputs differ across settings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
