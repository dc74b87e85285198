"""Storage-engine benchmark: the LSM cost triangle (DESIGN.md §17).

Loads each compaction policy with the same deterministic workload —
random puts over a bounded key space (so overwrites and, later,
tombstones actually collide) followed by a delete pass — then measures
the three quantities a compaction policy trades against each other:

* **write throughput** — operations/s through ``put``/``delete``
  (WAL + memtable + whatever flush/compaction work the policy does
  inline);
* **read cost** — point-``get`` latency quantiles, split into hits
  (a value came back) and misses (the key was never written or is
  deleted), data blocks read per get, and a full-scan rate against
  the final table layout (more live tables = more heap ways per read);
* **amplification** — write amplification (bytes written to SSTables
  ÷ logical bytes the workload produced) and space amplification
  (bytes on disk ÷ live logical bytes).

Policies: ``wal-only`` (no flushes — the degenerate baseline),
``no-compact`` (flush but never merge), leveled compaction at fan-in
2/4/8, and ``full`` (one compaction to a single table at the end,
read-optimal).  Every run is digest-checked against a plain dict
replay of the same workload, so the bench cannot quietly measure a
store that lost writes.

The gets run twice: once timed, with nothing installed, then once
more untimed with counters on ``SSTableReader.lookup`` (table probes,
entries found) and on ``sstable.read_framed_block`` (data blocks
read).  A lookup that finds its key reads the one block holding it;
every other block read is a key-filter false positive.  A filter
fingerprint is 16 bits and a block holds at most ``block_records``
distinct ones, so a miss's probe reads a block with probability at
most ``block_records / 65536``.  ``--smoke`` exits 1 when misses read
more false-positive blocks than that rate allows (its mean plus four
standard deviations, plus one); the count is deterministic per seed.

Each measurement is a fresh child process that imports ``repro`` from
one source tree.  Given several trees (``--tree NAME=SRC_DIR``,
repeatable), the measurements alternate between them, in reversed
order on every other repeat; timings are medians over ``--repeats``,
and the counts must agree across repeats.

WAL fsync is off (``sync=False``): the bench measures engine work,
not the host's fsync latency, and the service ingest path runs the
same way.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py
    PYTHONPATH=src python benchmarks/bench_store.py \\
        --tree parent=../parent/src --tree change=src
    PYTHONPATH=src python benchmarks/bench_store.py --smoke

``--smoke`` shrinks the workload and runs one repeat, and writes to a
temporary file unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "BENCH_store.json"

#: (name, store options, compact at end).  ``memory`` is set per run.
POLICIES = [
    ("wal-only", {"auto_compact": False}, False),
    ("no-compact", {"auto_compact": False}, False),
    ("leveled-fan2", {"fan_in": 2}, False),
    ("leveled-fan4", {"fan_in": 4}, False),
    ("leveled-fan8", {"fan_in": 8}, False),
    ("full", {"fan_in": 8}, True),
]
POLICY_OPTIONS = {
    name: (options, compact) for name, options, compact in POLICIES
}

#: Distinct values of a key-filter fingerprint.
FINGERPRINT_SPACE = 1 << 16

#: Per-tree metrics that are timings (medians over repeats); every
#: other metric is a count that must agree across repeats.
TIMINGS = (
    "ops_per_s", "load_wall_s", "scan_keys_per_s", "get_p50_us",
    "get_p99_us", "hit_p50_us", "hit_p99_us", "miss_p50_us",
    "miss_p99_us",
)


def workload(seed: int, operations: int, key_space: int):
    """Deterministic op stream: 85% puts, 15% deletes, colliding keys."""
    rng = random.Random(seed)
    for _ in range(operations):
        key = b"key-%08d" % rng.randrange(key_space)
        if rng.random() < 0.85:
            yield "put", key, b"value-%064d" % rng.getrandbits(48)
        else:
            yield "del", key, b""


def replay_oracle(seed: int, operations: int, key_space: int) -> Dict:
    state: Dict[bytes, bytes] = {}
    logical_bytes = 0
    for op, key, value in workload(seed, operations, key_space):
        logical_bytes += len(key) + len(value)
        if op == "put":
            state[key] = value
        else:
            state.pop(key, None)
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key)
        digest.update(state[key])
    return {
        "live_keys": len(state),
        "live_bytes": sum(len(k) + len(v) for k, v in state.items()),
        "logical_bytes": logical_bytes,
        "digest": digest.hexdigest(),
    }


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 1)


def disk_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name.startswith("sst-")
    )


def install_read_counters() -> Dict[str, int]:
    """Count table probes, entries found and data blocks read from here
    on, through the two names every store get goes through."""
    import repro.store.sstable as sstable

    counts = {"probes": 0, "found": 0, "reads": 0}
    lookup = sstable.SSTableReader.lookup
    read_block = sstable.read_framed_block

    def counting_lookup(self: Any, want: bytes) -> Any:
        counts["probes"] += 1
        found = lookup(self, want)
        if found is not None:
            counts["found"] += 1
        return found

    def counting_read(*args: Any, **kwargs: Any) -> Any:
        counts["reads"] += 1
        return read_block(*args, **kwargs)

    sstable.SSTableReader.lookup = counting_lookup
    sstable.read_framed_block = counting_read
    return counts


def false_positive_allowance(probes: int, block_records: int) -> int:
    """Most false-positive block reads ``probes`` filter tests may make:
    the mean at ``block_records / 65536`` per test, plus four standard
    deviations, plus one."""
    mean = probes * block_records / FINGERPRINT_SPACE
    return math.floor(mean + 4 * math.sqrt(mean) + 1)


def bench_policy(
    name: str,
    *,
    work: str,
    oracle: Dict,
    seed: int,
    operations: int,
    key_space: int,
    memory: int,
    gets: int,
) -> Dict:
    from repro.store import Store

    options, compact_at_end = POLICY_OPTIONS[name]
    path = os.path.join(work, name)
    store_memory = operations * 2 if name == "wal-only" else memory
    store = Store(path, memory=store_memory, sync=False, **options)
    try:
        start = time.perf_counter()
        for op, key, value in workload(seed, operations, key_space):
            if op == "put":
                store.put(key, value)
            else:
                store.delete(key)
        if compact_at_end:
            store.compact()
        else:
            store.flush()
        load_wall = time.perf_counter() - start

        # Correctness gate: the scan must replay to the oracle digest.
        digest = hashlib.sha256()
        scan_start = time.perf_counter()
        scanned = 0
        for key, value in store.scan():
            digest.update(key)
            digest.update(value)
            scanned += 1
        scan_wall = time.perf_counter() - scan_start
        if digest.hexdigest() != oracle["digest"]:
            raise SystemExit(
                f"policy {name}: scan diverged from the oracle "
                f"({scanned} vs {oracle['live_keys']} keys)"
            )

        rng = random.Random(seed + 1)
        keys = [b"key-%08d" % rng.randrange(key_space) for _ in range(gets)]
        latencies = []
        hit_latencies = []
        miss_latencies = []
        for key in keys:
            probe_start = time.perf_counter()
            found = store.get(key)
            elapsed = time.perf_counter() - probe_start
            latencies.append(elapsed)
            if found is None:
                miss_latencies.append(elapsed)
            else:
                hit_latencies.append(elapsed)
        for values in (latencies, hit_latencies, miss_latencies):
            values.sort()

        counts = install_read_counters()
        miss = dict.fromkeys(counts, 0)
        for key in keys:
            before = dict(counts)
            if store.get(key) is None:
                for name, value in counts.items():
                    miss[name] += value - before[name]
        total = dict(counts)  # before verify() reads every block
        hits = len(hit_latencies)
        misses = len(miss_latencies)

        table_bytes = disk_bytes(path)
        written = store.flushed_bytes + store.compacted_bytes
        summary = store.verify()
        return {
            "tables": summary["tables"],
            "levels": summary["levels"],
            "ops_per_s": round(operations / load_wall, 1),
            "load_wall_s": round(load_wall, 3),
            "scan_keys_per_s": round(scanned / scan_wall, 1)
            if scan_wall
            else None,
            "get_p50_us": _us(_quantile(latencies, 0.50)),
            "get_p99_us": _us(_quantile(latencies, 0.99)),
            "hit_p50_us": _us(_quantile(hit_latencies, 0.50)),
            "hit_p99_us": _us(_quantile(hit_latencies, 0.99)),
            "miss_p50_us": _us(_quantile(miss_latencies, 0.50)),
            "miss_p99_us": _us(_quantile(miss_latencies, 0.99)),
            "get_hit_rate": round(hits / gets, 3) if gets else None,
            "probes_per_get": round(total["probes"] / gets, 3)
            if gets
            else None,
            "blocks_per_get": round(total["reads"] / gets, 3)
            if gets
            else None,
            "blocks_per_hit": round((total["reads"] - miss["reads"]) / hits, 3)
            if hits
            else None,
            "blocks_per_miss": round(miss["reads"] / misses, 3)
            if misses
            else None,
            "miss_false_positive_reads": miss["reads"] - miss["found"],
            "miss_false_positive_allowed": false_positive_allowance(
                miss["probes"], store.block_records
            ),
            "write_amplification": round(
                written / oracle["logical_bytes"], 3
            ),
            "space_amplification": round(
                table_bytes / oracle["live_bytes"], 3
            )
            if table_bytes
            else None,
            "table_bytes": table_bytes,
            "wal_bytes": store.wal_bytes,
        }
    finally:
        store.close()


def measure(src: str, policy: str, settings: Dict, oracle: Dict) -> Dict:
    """One policy in a fresh child process importing ``repro`` from
    ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, __file__, "--child", policy,
         json.dumps({"settings": settings, "oracle": oracle})],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"policy {policy} under {src} failed:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def child_main(policy: str, payload: str) -> int:
    spec = json.loads(payload)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as work:
        row = bench_policy(
            policy, work=work, oracle=spec["oracle"], **spec["settings"]
        )
    print(json.dumps(row))
    return 0


def summarise(samples: List[Dict]) -> Dict:
    """Timings as medians (with every sample), counts from the first
    repeat, and whether the counts agreed across repeats."""
    row: Dict[str, Any] = {}
    for metric, value in samples[0].items():
        if metric in TIMINGS:
            values = [sample[metric] for sample in samples]
            row[metric] = round(statistics.median(values), 3)
            if len(values) > 1:
                row[f"{metric}_samples"] = values
        else:
            row[metric] = value
    counts = [
        {k: v for k, v in sample.items() if k not in TIMINGS}
        for sample in samples
    ]
    row["repeats_agree"] = all(c == counts[0] for c in counts)
    return row


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC_DIR",
                        help="a source tree to import repro from "
                             "(repeatable; default current=<repo>/src)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurements per policy and tree "
                             "(default 3)")
    parser.add_argument("--operations", type=int, default=200_000,
                        help="workload operations per policy "
                             "(default 200000)")
    parser.add_argument("--key-space", type=int, default=50_000,
                        help="distinct keys; smaller = more overwrite "
                             "pressure (default 50000)")
    parser.add_argument("--memory", type=int, default=8_192,
                        help="memtable budget in records (default 8192)")
    parser.add_argument("--gets", type=int, default=5_000,
                        help="point reads per policy (default 5000)")
    parser.add_argument("--seed", type=int, default=20260807)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one repeat for CI; exits 1 "
                             "when misses read more blocks than the key "
                             "filter's false-positive rate allows")
    parser.add_argument("--output", type=Path, default=None)
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
        args.operations = 5_000
        args.key_space = 1_000
        args.memory = 256
        args.gets = 1_000
        args.repeats = 1
    output = args.output
    if output is None:
        if args.smoke:
            fd, temp_name = tempfile.mkstemp(
                prefix="bench-store-", suffix=".json"
            )
            os.close(fd)
            output = Path(temp_name)
        else:
            output = DEFAULT_OUTPUT

    oracle = replay_oracle(args.seed, args.operations, args.key_space)
    settings = {
        "seed": args.seed, "operations": args.operations,
        "key_space": args.key_space, "memory": args.memory,
        "gets": args.gets,
    }
    rows = []
    failures = []
    order = list(trees)
    for policy, _, _ in POLICIES:
        samples: Dict[str, List[Dict]] = {name: [] for name in trees}
        for repeat in range(args.repeats):
            for name in order if repeat % 2 == 0 else order[::-1]:
                samples[name].append(
                    measure(trees[name], policy, settings, oracle)
                )
        per_tree = {name: summarise(s) for name, s in samples.items()}
        for name, row in per_tree.items():
            print(
                f"{policy:>13} {name:>8}  tables={row['tables']:>3}  "
                f"load={row['ops_per_s']:>9.1f} ops/s  "
                f"hit p50={row['hit_p50_us']:>7.1f}us "
                f"miss p50={row['miss_p50_us']:>7.1f}us  "
                f"blocks/get={row['blocks_per_get']:<6} "
                f"miss FP reads={row['miss_false_positive_reads']}"
                f"/{row['miss_false_positive_allowed']}  "
                f"W-amp={row['write_amplification']:<6}  "
                f"S-amp={row['space_amplification']}",
                flush=True,
            )
            if not row["repeats_agree"]:
                failures.append(f"{policy} {name}: counts differ across "
                                f"repeats")
            if args.smoke and (
                row["miss_false_positive_reads"]
                > row["miss_false_positive_allowed"]
            ):
                failures.append(
                    f"{policy} {name}: misses read "
                    f"{row['miss_false_positive_reads']} data blocks that "
                    f"held no entry, more than the "
                    f"{row['miss_false_positive_allowed']} the key "
                    f"filter's false-positive rate allows"
                )
        rows.append({"policy": policy, "trees": per_tree})

    result = {
        "benchmark": "store-lsm",
        "smoke": bool(args.smoke),
        "operations": args.operations,
        "key_space": args.key_space,
        "memory": args.memory,
        "gets": args.gets,
        "seed": args.seed,
        "repeats": args.repeats,
        "trees": order,
        "live_keys": oracle["live_keys"],
        "logical_mb": round(oracle["logical_bytes"] / 1e6, 2),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "policies": rows,
    }
    output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {output}")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
