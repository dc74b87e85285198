"""Spill codec sweep: compressed + front-coded runs vs raw spill bytes.

Sorts the same dataset through the real-file spill backend under every
``--spill-codec`` setting, for both the int format (int64 block
bodies) and the binary (order-preserving key bytes) spill format, at
several memory budgets.  Each run records wall seconds, the engine's
raw-vs-on-disk spill byte counters, and a sha256 digest of the sorted
output — every codec must produce byte-identical output, compression
is framing only.
Results go to ``BENCH_spillio.json`` at the repo root.

The quantity of interest is the CPU-vs-I/O tradeoff the planner's
``auto`` codec row encodes: how many spill bytes each codec saves
(``ratio = raw / on_disk``) against how much wall time it costs on
this machine's storage.  Wall times are honest — they include the
compression work, and on fast local disks the compressed modes are
usually *slower*; the ratio column is what transfers to bandwidth-
starved spill devices.

Usage::

    PYTHONPATH=src python benchmarks/bench_spill_io.py \
        --records 500000 --memories 10000 50000

    PYTHONPATH=src python benchmarks/bench_spill_io.py --smoke

``--smoke`` shrinks the sweep (20k records, one memory budget) so CI
can assert the digest invariant and the codec plumbing end to end in
seconds; it writes to a temporary file unless --output is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.core.config import GeneratorSpec
from repro.core.records import INT, binary_format
from repro.engine.block_io import body_encoding
from repro.engine.planner import SortEngine
from repro.engine.spill_codec import SPILL_CODECS
from repro.workloads.generators import random_input

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_spillio.json"


def run_once(
    records: int,
    memory: int,
    algorithm: str,
    fan_in: int,
    block_records: int,
    codec: str,
    binary: bool,
    seed: int,
) -> dict:
    """One full spilling sort; returns wall, spill bytes, and a digest."""
    record_format = binary_format(INT) if binary else INT
    engine = SortEngine(
        GeneratorSpec(algorithm, memory),
        record_format=record_format,
        fan_in=fan_in,
        buffer_records=block_records,
        block_records=block_records,
        reading="naive",
        spill_codec=codec,
    )
    source = random_input(records, seed=seed)
    if binary:
        decode = record_format.decode
        source = [decode(str(value)) for value in source]
    encode = record_format.encode
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in engine.sort(source):
        digest.update((encode(value) + "\n").encode("ascii"))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    report = engine.report
    assert report is not None, "spilling sort must publish a SortReport"
    return {
        "codec": codec,
        "format": body_encoding(record_format),
        "memory": memory,
        "wall_seconds": round(wall, 3),
        "merge_passes": engine.merge_passes,
        "spill_raw_bytes": report.spill_raw_bytes,
        "spill_disk_bytes": report.spill_disk_bytes,
        "spill_ratio": round(report.spill_ratio, 3),
        "sha256": digest.hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=500_000)
    parser.add_argument("--memories", type=int, nargs="+",
                        default=[10_000, 50_000])
    parser.add_argument("--algorithm", default="lss",
                        choices=("rs", "2wrs", "lss", "brs"))
    parser.add_argument("--fan-in", type=int, default=10)
    parser.add_argument("--block-records", type=int, default=4096)
    parser.add_argument("--codecs", nargs="+", default=list(SPILL_CODECS),
                        choices=SPILL_CODECS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI: 20k records, one memory "
                             "budget, temporary output file")
    args = parser.parse_args(argv)

    if args.smoke:
        args.records = 20_000
        args.memories = [2_000]
    output = args.output
    if output is None:
        if args.smoke:
            fd, name = tempfile.mkstemp(prefix="bench-spillio-",
                                        suffix=".json")
            os.close(fd)
            output = Path(name)
        else:
            output = DEFAULT_OUTPUT

    rows = []
    for memory in args.memories:
        for binary in (False, True):
            for codec in args.codecs:
                label = "binary" if binary else body_encoding(INT)
                print(f"memory={memory} format={label} codec={codec} ...",
                      flush=True)
                row = run_once(
                    records=args.records, memory=memory,
                    algorithm=args.algorithm, fan_in=args.fan_in,
                    block_records=args.block_records, codec=codec,
                    binary=binary, seed=args.seed,
                )
                rows.append(row)
                print(f"  wall={row['wall_seconds']}s "
                      f"raw={row['spill_raw_bytes']} "
                      f"disk={row['spill_disk_bytes']} "
                      f"(x{row['spill_ratio']})", flush=True)

    digests = {r["sha256"] for r in rows}
    identical = len(digests) == 1
    best = max(rows, key=lambda r: r["spill_ratio"])
    # Per-format baselines: the reduction each codec buys over the
    # codec=none run of the *same* format and memory budget.
    baselines = {
        (r["memory"], r["format"]): r["spill_disk_bytes"]
        for r in rows if r["codec"] == "none"
    }
    for row in rows:
        base = baselines.get((row["memory"], row["format"]))
        if base and row["spill_disk_bytes"]:
            row["disk_reduction_vs_none"] = round(
                base / row["spill_disk_bytes"], 3
            )
    best_reduction = max(
        (r.get("disk_reduction_vs_none", 1.0) for r in rows), default=1.0
    )

    payload = {
        "benchmark": "spill codec sweep (codec x format x memory)",
        "records": args.records,
        "algorithm": args.algorithm,
        "fan_in": args.fan_in,
        "block_records": args.block_records,
        "seed": args.seed,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "output_identical_across_codecs": identical,
        "best_spill_ratio": {
            "codec": best["codec"], "format": best["format"],
            "memory": best["memory"], "ratio": best["spill_ratio"],
        },
        "best_disk_reduction_vs_none": best_reduction,
        "sweep": rows,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if not identical:
        print("ERROR: outputs differ across codecs", file=sys.stderr)
        return 1
    if best_reduction < 2.0 and not args.smoke:
        print("WARNING: no codec reached a 2x on-disk spill reduction",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
