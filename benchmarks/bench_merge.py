"""Merge-tail timing: the sort's merges and store compaction, one or more trees.

Times the merges a sort and the store run, on the shapes perfbench's
workloads produce:

* ``sort-mixed final``: the two 2WRS runs of the ``sort-mixed`` input
  (1M ``mixed_balanced`` records, memory 10000): 999,909 and 91
  records at seed 1;
* ``sort-random intermediate`` and ``final``: the 2WRS runs of the
  ``sort-random`` input (200k ``random`` records): the first ten runs
  (~19k records each) merged into one spill file, then that file and
  the eleventh run merged to the output;
* ``service final``: a 15k-record service sort job's two Load-Sort-
  Store runs, 10k and 5k records;
* ``ties final``: ten runs of 20k records over 50 distinct keys;
* ``compaction``: four sorted ``(key, meta)`` entry streams of 45k
  entries each through ``repro.store.compaction.merge_streams``, the
  merge and last-writer-wins dedup store compaction runs;
* ``kway_merge``: the same four streams, as generators, through
  ``repro.merge.kway.kway_merge`` alone — the record-at-a-time merge
  the simulated merges and store compaction use.

The spill cells write their runs as RBLC spill files (codec ``none``,
4096-record blocks) before the clock starts.  A ``final`` cell times
the final merge as ``repro sort`` runs it, from the run readers to the
text encode of every output block (``merge_spilled_blocks`` into
``BlockWriter.write_blocks`` where the tree has them, else, in trees
from before the block merge, ``merge_spilled_runs`` into
``write_all``); the ``intermediate`` cell times
``merge_group_to_file``.

Each measurement is a fresh child process that imports ``repro`` from
one source tree (``--tree NAME=SRC_DIR``, repeatable).  The
measurements alternate between the trees, in reversed order on every
other repeat.  Each cell records, per tree, the median and
interquartile range of the wall seconds over ``--repeats`` runs and a
sha256 over the output bytes, the record count and the merge
``cpu_ops``; the script exits 1 when the digests differ between
repeats or trees, or, for ``--smoke`` at the default seed, from the
digests in :data:`SMOKE_DIGESTS`, so a one-tree smoke run still
checks the merge output.

Usage::

    PYTHONPATH=src python benchmarks/bench_merge.py --repeats 7
    PYTHONPATH=src python benchmarks/bench_merge.py \\
        --tree parent=../parent/src --tree change=src

    PYTHONPATH=src python benchmarks/bench_merge.py --smoke

``--smoke`` shrinks every input about tenfold, runs one repeat and
writes to a temporary file unless ``--output`` is given.  After a
deliberate change of the inputs or of the digest, regenerate
:data:`SMOKE_DIGESTS` from the tree before the change.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "BENCH_merge.json"

#: Merge read buffer and spill block size, the CLI defaults.
BUFFER_RECORDS = 4096
FAN_IN = 10

#: The sha256 of every ``--smoke`` cell at seed 1: the output of the
#: record-at-a-time merge the block merge replaced on the spill path.
SMOKE_DIGESTS = {
    "sort-mixed final":
        "3fa7c381e70c18d956025be7a53e0012132065b2703fee35a072b68e9ecff7ea",
    "sort-random intermediate":
        "4d58d049e62c08aa189b55e588db7c0b350d8426b55880529756643eb46b8341",
    "sort-random final":
        "ed03fe13dcef9d3733db22f785316e95f50280a15e126a35d447a2a2f6e6a0b4",
    "service final":
        "779e5515552cd0a37284eafdad1cbffb2ceaf8ce4be36853f977470e517837f8",
    "ties final":
        "1aefc4f645653cc7cecd7d9ccb318cfd98d07aea6178abc53954d0c1e46dfeb0",
    "compaction":
        "bfed407cf804f0506b7b546933860bce7662d5683f22b50a7c7315e95e3d592e",
    "kway_merge":
        "f8b49dddba959dd7d388f42d6cd04af50145d4d8cb891b213ae17e8685027d1b",
}

#: The measurement a child process runs: argv = kind, pickled
#: streams.  It prints one JSON object.
CHILD = r"""
import hashlib, io, json, pickle, shutil, sys, tempfile, time
kind, path = sys.argv[1], sys.argv[2]
buffer_records, fan_in = int(sys.argv[3]), int(sys.argv[4])
with open(path, "rb") as f:
    streams = pickle.load(f)
from repro.merge.kway import MergeCounter
counter = MergeCounter()
sha = hashlib.sha256()
if kind in ("compaction", "records"):
    from repro.merge.kway import kway_merge
    from repro.store.compaction import merge_streams
    sources = [(entry for entry in stream) for stream in streams]
    wall = time.perf_counter()
    if kind == "records":
        merged = list(kway_merge(sources, counter))
    else:
        merged = list(merge_streams(sources, counter=counter))
    wall = time.perf_counter() - wall
    for key, meta in merged:
        sha.update(key)
        sha.update(meta)
    count = len(merged)
else:
    from repro.core.records import INT
    from repro.engine.block_io import BlockWriter, write_sequence
    from repro.sort import spill
    work = tempfile.mkdtemp(prefix="bench-merge-")
    session = spill.SpillSession(work)
    runs = []
    for stream in streams:
        run_path = session.spill_path()
        write_sequence(run_path, stream, INT, buffer_records, codec="none")
        runs.append(spill.SpilledRun(
            session, run_path, len(stream), INT, buffer_records))
    del streams
    if kind == "final":
        sink = io.StringIO()
        wall = time.perf_counter()
        writer = BlockWriter(sink, INT, buffer_records, codec=None)
        merge = getattr(spill, "merge_spilled_blocks", None)
        if merge is not None:
            writer.write_blocks(merge(
                session, runs, counter, INT, fan_in, buffer_records))
        else:
            writer.write_all(spill.merge_spilled_runs(
                session, runs, counter, INT, fan_in, buffer_records))
        writer.flush()
        wall = time.perf_counter() - wall
        sha.update(sink.getvalue().encode())
        count = writer.written
    else:
        wall = time.perf_counter()
        out = spill.merge_group_to_file(
            session, runs, counter, INT, buffer_records)
        wall = time.perf_counter() - wall
        with open(out.path, "rb") as f:
            sha.update(f.read())
        count = out.length
    shutil.rmtree(work, ignore_errors=True)
sha.update(f"{count} {counter.cpu_ops}".encode())
print(json.dumps({"wall_s": wall, "records": count,
                  "cpu_ops": counter.cpu_ops, "sha256": sha.hexdigest()}))
"""


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(src: str, kind: str, path: str) -> Dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, kind, path, str(BUFFER_RECORDS),
         str(FAN_IN)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarise(samples: List[Dict]) -> Dict:
    values = [sample["wall_s"] for sample in samples]
    q1, q2, q3 = quartiles(values)
    outcomes = {(s["records"], s["cpu_ops"], s["sha256"]) for s in samples}
    records, cpu_ops, sha = sorted(outcomes)[0]
    return {
        "wall_median_s": round(q2, 4),
        "wall_iqr_s": [round(q1, 4), round(q3, 4)],
        "wall_runs_s": [round(v, 4) for v in values],
        "records": records,
        "cpu_ops": cpu_ops,
        "sha256": sha,
        "repeats_agree": len(outcomes) == 1,
    }


def two_way_runs(dist: str, records: int, memory: int, seed: int) -> List[Any]:
    from repro.core.config import GeneratorSpec
    from repro.workloads.generators import make_input

    values = list(make_input(dist, records, seed=seed))
    return list(GeneratorSpec("2wrs", memory).build().generate_runs(values))


def compaction_streams(entries: int, seed: int) -> List[List[Any]]:
    """Four sorted ``(key, meta)`` streams over one key space: a key
    may recur across streams with different seqnos, as in an LSM."""
    rng = random.Random(seed)
    streams = []
    for table in range(4):
        stream = set()
        for _ in range(entries):
            key = b"key%09d" % rng.randrange(entries * 4)
            seqno = rng.randrange(1 << 32)
            stream.add((key, (~seqno & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
                        + b"\x01" + b"value-%d" % table))
        streams.append(sorted(stream))
    return streams


def build_cells(smoke: bool, seed: int) -> List[Tuple[str, str, List[Any]]]:
    """(name, kind, streams) of every cell."""
    scale = 10 if smoke else 1
    memory = 10_000 // scale
    mixed = two_way_runs("mixed_balanced", 1_000_000 // scale, memory, seed)
    rand = two_way_runs("random", 200_000 // scale, memory, seed)
    head, tail = rand[:FAN_IN], rand[FAN_IN:]
    merged_head = sorted(record for run in head for record in run)
    from repro.workloads.generators import make_input

    job = list(make_input("random", 15_000 // scale, seed=seed))
    cut = 10_000 // scale
    rng = random.Random(seed)
    ties = [sorted(rng.randrange(50) for _ in range(20_000 // scale))
            for _ in range(10)]
    entries = compaction_streams(45_000 // scale, seed)
    return [
        ("sort-mixed final", "final", mixed),
        ("sort-random intermediate", "intermediate", head),
        ("sort-random final", "final", [merged_head] + tail),
        ("service final", "final", [sorted(job[:cut]), sorted(job[cut:])]),
        ("ties final", "final", ties),
        ("compaction", "compaction", entries),
        ("kway_merge", "records", entries),
    ]


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
                        help="inputs a tenth the size, one repeat, "
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
    if args.smoke:
        args.repeats = 1
    output = args.output
    if output is None:
        if args.smoke:
            fd, name = tempfile.mkstemp(prefix="bench-merge-", suffix=".json")
            os.close(fd)
            output = Path(name)
        else:
            output = DEFAULT_OUTPUT

    reference = SMOKE_DIGESTS if args.smoke and args.seed == 1 else {}
    cells = []
    identical = True
    matches = True
    with tempfile.TemporaryDirectory(prefix="bench-merge-") as scratch:
        for index, (cell, kind, streams) in enumerate(
            build_cells(args.smoke, args.seed)
        ):
            path = os.path.join(scratch, f"cell-{index}.pickle")
            with open(path, "wb") as f:
                pickle.dump(streams, f, protocol=pickle.HIGHEST_PROTOCOL)
            shape = [len(stream) for stream in streams]
            del streams
            samples: Dict[str, List[Dict]] = {name: [] for name in trees}
            order = list(trees)
            for repeat in range(args.repeats):
                for name in order if repeat % 2 == 0 else order[::-1]:
                    samples[name].append(measure(trees[name], kind, path))
            per_tree = {name: summarise(s) for name, s in samples.items()}
            agree = all(row["repeats_agree"] for row in per_tree.values())
            agree = agree and len(
                {row["sha256"] for row in per_tree.values()}
            ) == 1
            identical = identical and agree
            if cell in reference:
                matches = matches and all(
                    row["sha256"] == reference[cell]
                    for row in per_tree.values()
                )
            cells.append({"cell": cell, "streams": shape, "trees": per_tree,
                          "identical_output": agree})
            line = "  ".join(
                f"{name} {row['wall_median_s']:.4f}s "
                f"[{row['wall_iqr_s'][0]:.4f}, {row['wall_iqr_s'][1]:.4f}]"
                for name, row in per_tree.items()
            )
            print(f"{cell:25} k={len(shape):<3} {line}", flush=True)

    payload = {
        "benchmark": "merge tail: spill-run merges and store compaction",
        "buffer_records": BUFFER_RECORDS,
        "fan_in": FAN_IN,
        "repeats": args.repeats,
        "seed": args.seed,
        "smoke": args.smoke,
        "trees": list(trees),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "identical_output_across_trees": identical,
        "matches_reference": matches if reference else None,
        "cells": cells,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if not identical:
        print("ERROR: merge output differs across repeats or trees",
              file=sys.stderr)
        return 1
    if not matches:
        print("ERROR: merge output differs from SMOKE_DIGESTS",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
