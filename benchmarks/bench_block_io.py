"""Block-batched I/O sweep: block size vs the line-at-a-time baseline.

Sorts the same dataset through the real-file spill backend at several
``--block-records`` settings and once through the *line-at-a-time
baseline* — a :class:`~repro.core.records.CallableFormat` wrapping the
seed's per-record ``str``/``int`` callables, which forces one Python-
level decode call per line and one encode call per record, exactly the
hot loop this PR's block codecs replaced.  Results (wall seconds,
speedup vs the baseline, sha256 output digests — all settings must
produce byte-identical output) go to ``BENCH_blockio.json`` at the
repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_block_io.py \
        --records 500000 --blocks 512 4096 16384

This is a standalone script, not a pytest-benchmark module: the
quantity of interest is the relative wall-clock of whole sorts.
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
from repro.core.records import (
    INT,
    CallableFormat,
    DelimitedFormat,
    resolve_format,
)
from repro.engine.planner import SortEngine
from repro.workloads.generators import random_input

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_blockio.json"

#: The seed's per-record serialisation, as top-level callables.
LINE_AT_A_TIME = CallableFormat(str, int)

#: Best block-batched wall (block_records=16384, 500k records) recorded
#: by the PR 3 run of this script on this container — the committed
#: BENCH_blockio.json in git history before the binary spill format
#: landed.  Speedups against it are only reported for runs at the same
#: --records scale.
PR3_BLOCK_BASELINE_SECONDS = 3.559
PR3_BASELINE_RECORDS = 500_000


def run_once(
    records: int,
    memory: int,
    algorithm: str,
    fan_in: int,
    block_records: int,
    record_format,
    seed: int,
) -> dict:
    """One full sort; returns wall time and an output digest."""
    engine = SortEngine(
        GeneratorSpec(algorithm, memory),
        record_format=record_format,
        fan_in=fan_in,
        buffer_records=block_records,
        block_records=block_records,
    )
    source = random_input(records, seed=seed)
    encode = record_format.encode
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in engine.sort(source):
        digest.update((encode(value) + "\n").encode("ascii"))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    return {
        "wall_seconds": round(wall, 3),
        "merge_passes": engine.merge_passes,
        "sha256": digest.hexdigest(),
    }


def delimited_once(
    records: int,
    memory: int,
    algorithm: str,
    fan_in: int,
    block_records: int,
    record_format,
    seed: int,
) -> dict:
    """One full sort of delimited rows keyed on a numeric column.

    Delimited keys are where the normalised bytes pay — the text path compares decoded
    ``(rank, class, ...)`` component tuples per heap step while the
    binary path compares one flat ``bytes`` key with memcmp.  Both
    modes pay their own input decode stage, timed separately.
    """
    engine = SortEngine(
        GeneratorSpec(algorithm, memory),
        record_format=record_format,
        fan_in=fan_in,
        buffer_records=block_records,
        block_records=block_records,
    )
    rows = [
        f"{value},p{index:07d}"
        for index, value in enumerate(random_input(records, seed=seed))
    ]
    decode = record_format.decode
    started = time.perf_counter()
    source = [decode(row) for row in rows]
    normalize_wall = round(time.perf_counter() - started, 3)
    encode = record_format.encode
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in engine.sort(source):
        digest.update((encode(value) + "\n").encode("ascii"))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    return {
        "wall_seconds": round(wall, 3),
        "normalize_seconds": normalize_wall,
        "merge_passes": engine.merge_passes,
        "sha256": digest.hexdigest(),
    }


def merge_only(
    records: int,
    fan_in: int,
    block_records: int,
    record_format,
    seed: int,
) -> dict:
    """Time just the k-way merge of pre-written sorted run files.

    Isolates the hot merge loop (read blocks -> heap -> the consumer
    just hashes), where the block codecs replaced one decode call per
    record.  Runs are written and merged through the spill primitives
    directly so every mode exercises the same code path.
    """
    import tempfile

    from repro.engine.block_io import write_sequence
    from repro.merge.kway import MergeCounter
    from repro.sort.spill import SpilledRun, SpillSession, merge_spilled_runs

    run_records = records // fan_in
    with tempfile.TemporaryDirectory(prefix="repro-benchio-") as work_dir:
        session = SpillSession(work_dir)
        runs = []
        for index in range(fan_in):
            data = sorted(random_input(run_records, seed=seed * 100 + index))
            path = os.path.join(work_dir, f"run-{index:02d}.txt")
            write_sequence(path, data, record_format)
            runs.append(SpilledRun(
                session, path, len(data), record_format, block_records,
                keep=True,
            ))
        encode = record_format.encode
        digest = hashlib.sha256()
        count = 0
        started = time.perf_counter()
        for value in merge_spilled_runs(
            session, runs, MergeCounter(), record_format, fan_in,
            block_records,
        ):
            digest.update((encode(value) + "\n").encode("ascii"))
            count += 1
        wall = time.perf_counter() - started
    assert count == run_records * fan_in
    return {
        "wall_seconds": round(wall, 3),
        "records": count,
        "sha256": digest.hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=500_000)
    parser.add_argument("--memory", type=int, default=10_000)
    parser.add_argument("--algorithm", default="lss",
                        choices=("rs", "2wrs", "lss", "brs"))
    parser.add_argument("--fan-in", type=int, default=10)
    parser.add_argument("--blocks", type=int, nargs="+",
                        default=[512, 4096, 16384])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    common = dict(
        records=args.records, memory=args.memory, algorithm=args.algorithm,
        fan_in=args.fan_in, seed=args.seed,
    )

    print(f"baseline: line-at-a-time decode/encode ...", flush=True)
    baseline = run_once(
        **common, block_records=4096, record_format=LINE_AT_A_TIME,
    )
    baseline["mode"] = "line_at_a_time"
    print(f"  wall={baseline['wall_seconds']}s", flush=True)

    block_rows = []
    for block in args.blocks:
        print(f"block_records={block}: block-batched sort ...", flush=True)
        row = run_once(
            **common, block_records=block, record_format=INT,
        )
        row["mode"] = "block"
        row["block_records"] = block
        row["speedup_vs_line_at_a_time"] = round(
            baseline["wall_seconds"] / row["wall_seconds"], 3
        )
        block_rows.append(row)
        print(f"  wall={row['wall_seconds']}s "
              f"(x{row['speedup_vs_line_at_a_time']})", flush=True)

    delimited_rows = {}
    for label, fmt in (
        ("text", DelimitedFormat(",", 0)),
        # What --format csv resolves to: key-byte rows.
        ("binary", resolve_format("csv", key=0)),
    ):
        print(f"delimited ({label}): csv rows keyed on column 0 ...",
              flush=True)
        row = delimited_once(
            **common, block_records=4096, record_format=fmt,
        )
        row["mode"] = f"delimited_{label}"
        delimited_rows[label] = row
        print(f"  wall={row['wall_seconds']}s", flush=True)
    delimited_speedup = round(
        delimited_rows["text"]["wall_seconds"]
        / delimited_rows["binary"]["wall_seconds"], 3
    )
    print(f"  binary x{delimited_speedup} vs text on delimited keys",
          flush=True)

    print("merge-only: line-at-a-time vs block decode ...", flush=True)
    merge_line = merge_only(
        args.records, args.fan_in, 4096, LINE_AT_A_TIME, args.seed
    )
    merge_block = merge_only(args.records, args.fan_in, 4096, INT, args.seed)
    merge_speedup = round(
        merge_line["wall_seconds"] / merge_block["wall_seconds"], 3
    )
    print(
        f"  line={merge_line['wall_seconds']}s "
        f"block={merge_block['wall_seconds']}s (x{merge_speedup})",
        flush=True,
    )

    digests = {
        r["sha256"] for r in [baseline, *block_rows]
    }
    identical = (
        len(digests) == 1
        and merge_line["sha256"] == merge_block["sha256"]
        and delimited_rows["text"]["sha256"]
        == delimited_rows["binary"]["sha256"]
    )
    best = max(
        r["speedup_vs_line_at_a_time"] for r in block_rows
    )

    vs_pr3 = None
    if args.records == PR3_BASELINE_RECORDS:
        vs_pr3 = {
            "pr3_best_block_wall_seconds": PR3_BLOCK_BASELINE_SECONDS,
            "block_speedup_vs_pr3": round(
                PR3_BLOCK_BASELINE_SECONDS
                / min(r["wall_seconds"] for r in block_rows), 3
            ),
        }

    payload = {
        "benchmark": "block-batched spill I/O vs line-at-a-time baseline",
        **common,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "output_identical_across_settings": identical,
        "best_block_speedup_vs_line_at_a_time": best,
        "merge_only_speedup_vs_line_at_a_time": merge_speedup,
        "delimited_binary_speedup_vs_text": delimited_speedup,
        "end_to_end_vs_pr3_block_batched": vs_pr3,
        "line_at_a_time_baseline": baseline,
        "block_sweep": block_rows,
        "delimited": delimited_rows,
        "merge_only": {
            "line_at_a_time": merge_line,
            "block": merge_block,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not identical:
        print("ERROR: outputs differ across settings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
