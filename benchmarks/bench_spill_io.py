"""Spill codec sweep: compressed runs vs raw spill bytes.

Sorts the same dataset through the real-file spill backend under every
``--spill-codec`` setting, for three block-body kinds, at several
memory budgets:

* ``int64`` — the int format's native int64 array bodies;
* ``binary`` — csv rows ``<key>,p<digit>`` keyed on column 0, which
  spill as order-preserving key bytes (what ``--format csv`` does);
* ``str`` — text bodies, the path for str and float input.  Its
  records spell the same keys zero-padded to a fixed width, so their
  byte order is the int order and the cell sorts the same sequence.

Each cell runs ``--repeats`` times and records the median, min and max
wall seconds, the engine's raw-vs-on-disk spill byte counters, and a
sha256 digest of the sorted keys (taken over the decimal value of each
record's first field, so it is comparable across formats) — every codec and every format must
produce the same digest; compression is framing only.
Results go to ``BENCH_spillio.json`` at the repo root.

The quantity of interest is the CPU-vs-I/O tradeoff behind the
``auto`` codec (which means ``none``): how many spill bytes each codec
saves (``ratio = raw / on_disk``) against how much wall time it costs
on this machine's storage.  Wall times are honest — they include the
compression work, and on fast local disks the compressed modes are
usually *slower*; the ratio column is what transfers to bandwidth-
starved spill devices.

Usage::

    PYTHONPATH=src python benchmarks/bench_spill_io.py \
        --records 500000 --memories 10000 50000 --repeats 3

    PYTHONPATH=src python benchmarks/bench_spill_io.py --smoke

``--smoke`` shrinks the sweep (20k records, one memory budget, one
repeat) so CI can assert the digest invariant and the codec plumbing
end to end in seconds; it writes to a temporary file unless --output
is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.core.config import GeneratorSpec
from repro.core.records import INT, STR, resolve_format
from repro.engine.planner import SortEngine
from repro.engine.spill_codec import SPILL_CODECS
from repro.workloads.generators import DEFAULT_VALUE_SPAN, random_input

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_spillio.json"

#: Swept body kinds, by the label the JSON rows carry.
FORMATS = {
    "int64": INT,
    "binary": resolve_format("csv", key=0),
    "str": STR,
}

#: Digits that spell every key of the ``str`` cell at one width.
_STR_WIDTH = len(str(DEFAULT_VALUE_SPAN - 1))


def run_once(
    records: int,
    memory: int,
    algorithm: str,
    fan_in: int,
    block_records: int,
    codec: str,
    fmt: str,
    seed: int,
) -> dict:
    """One full spilling sort; returns wall, spill bytes, and a digest."""
    record_format = FORMATS[fmt]
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
    if fmt == "binary":
        decode = record_format.decode
        source = [decode(f"{value},p{value % 10}") for value in source]
    elif fmt == "str":
        source = [f"{value:0{_STR_WIDTH}d}" for value in source]
    encode = record_format.encode
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in engine.sort(source):
        digest.update(b"%d\n" % int(encode(value).split(",", 1)[0]))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    report = engine.report
    assert report is not None, "spilling sort must publish a SortReport"
    return {
        "codec": codec,
        "format": fmt,
        "memory": memory,
        "wall_seconds": round(wall, 3),
        "merge_passes": engine.merge_passes,
        "spill_raw_bytes": report.spill_raw_bytes,
        "spill_disk_bytes": report.spill_disk_bytes,
        "spill_ratio": round(report.spill_ratio, 3),
        "sha256": digest.hexdigest(),
    }


def run_cell(repeats: int, **kwargs) -> dict:
    """``repeats`` runs of one cell: median/min/max wall, one digest."""
    runs = [run_once(**kwargs) for _ in range(repeats)]
    digests = {run["sha256"] for run in runs}
    assert len(digests) == 1, f"repeats disagree: {sorted(digests)}"
    walls = [run["wall_seconds"] for run in runs]
    row = dict(runs[0])
    del row["wall_seconds"]
    row.update(
        wall_median_s=round(statistics.median(walls), 3),
        wall_min_s=min(walls),
        wall_max_s=max(walls),
        wall_runs_s=walls,
    )
    return row


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
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per cell; the JSON keeps the median, "
                             "min and max wall time (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI: 20k records, one memory "
                             "budget, one repeat, temporary output file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    if args.smoke:
        args.records = 20_000
        args.memories = [2_000]
        args.repeats = 1
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
        for fmt in FORMATS:
            for codec in args.codecs:
                print(f"memory={memory} format={fmt} codec={codec} ...",
                      flush=True)
                row = run_cell(
                    args.repeats,
                    records=args.records, memory=memory,
                    algorithm=args.algorithm, fan_in=args.fan_in,
                    block_records=args.block_records, codec=codec,
                    fmt=fmt, seed=args.seed,
                )
                rows.append(row)
                print(f"  wall median={row['wall_median_s']}s "
                      f"[{row['wall_min_s']}, {row['wall_max_s']}] "
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
    none_min = {
        (r["memory"], r["format"]): r["wall_min_s"]
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
    # The auto decision: a codec earns automatic use in a cell only if
    # its slowest repeat beats the fastest repeat of codec=none.
    beats_none = [
        {"memory": r["memory"], "format": r["format"], "codec": r["codec"]}
        for r in rows
        if r["codec"] != "none"
        and (r["memory"], r["format"]) in none_min
        and r["wall_max_s"] < none_min[(r["memory"], r["format"])]
    ]

    payload = {
        "benchmark": "spill codec sweep (codec x format x memory)",
        "records": args.records,
        "repeats": args.repeats,
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
        "codecs_beating_none_beyond_spread": beats_none,
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
