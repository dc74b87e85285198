"""Differential testing: the store vs a sqlite3 oracle (ISSUE 10).

``sqlite3`` ships with CPython and implements the same contract from
the opposite direction (B-tree, not LSM): a ``BLOB PRIMARY KEY`` table
ordered with ``ORDER BY k`` sorts by memcmp, exactly the store's key
order.  Random put/delete workloads — interleaved with flushes,
compactions and full close/reopen cycles at arbitrary points — must
leave ``store.scan()`` byte-identical to the oracle at every
checkpoint.

The second half locks the acceptance criterion directly: replaying one
operation log into stores with *different* tuning (memtable budget,
fan-in, codec, block size) must produce byte-identical scans — the
physical layout is allowed to differ, the logical contents are not.
"""

import random
import sqlite3

import pytest

from repro.store import Store
from repro.store.oplog import parse_op_line
from tests._helpers import stress_seed

KEY_SPACE = 400


class Oracle:
    """The stdlib B-tree wearing the store's interface."""

    def __init__(self):
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE kv (k BLOB PRIMARY KEY, v BLOB)")

    def put(self, key, value):
        self._db.execute(
            "INSERT INTO kv (k, v) VALUES (?, ?) "
            "ON CONFLICT (k) DO UPDATE SET v = excluded.v",
            (key, value),
        )

    def delete(self, key):
        self._db.execute("DELETE FROM kv WHERE k = ?", (key,))

    def get(self, key):
        row = self._db.execute(
            "SELECT v FROM kv WHERE k = ?", (key,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def scan(self):
        return [
            (bytes(key), bytes(value))
            for key, value in self._db.execute(
                "SELECT k, v FROM kv ORDER BY k"
            )
        ]

    def close(self):
        self._db.close()


def random_key(rng):
    # Variable-length keys with a shared prefix population, plus a
    # sprinkling of raw bytes (NULs, separators, high bit) so memcmp
    # order is actually exercised, not just ASCII order.
    if rng.random() < 0.15:
        return bytes(
            rng.randrange(256) for _ in range(rng.randrange(1, 12))
        )
    return b"key-%04d" % rng.randrange(KEY_SPACE)


def random_value(rng):
    length = rng.choice((0, 1, 7, 40, 300))
    return bytes(rng.randrange(256) for _ in range(length))


def run_workload(tmp_path, seed, steps, **store_options):
    rng = random.Random(seed)
    path = str(tmp_path / "db")
    oracle = Oracle()
    store = Store(path, sync=False, **store_options)
    try:
        for step in range(steps):
            roll = rng.random()
            key = random_key(rng)
            if roll < 0.65:
                value = random_value(rng)
                store.put(key, value)
                oracle.put(key, value)
            elif roll < 0.90:
                store.delete(key)
                oracle.delete(key)
            elif roll < 0.94:
                store.flush()
            elif roll < 0.97:
                store.compact()
            else:
                store.close()
                store = Store(path, sync=False, **store_options)
            if step % 100 == 99:
                assert store.scan() is not None
                assert list(store.scan()) == oracle.scan(), (
                    f"diverged at step {step} (seed {seed})"
                )
        assert list(store.scan()) == oracle.scan()
        for _ in range(40):
            probe = random_key(rng)
            assert store.get(probe) == oracle.get(probe)
        store.verify()
    finally:
        store.close()
        oracle.close()


class TestAgainstSqlite:
    def test_default_tuning(self, tmp_path):
        run_workload(tmp_path, stress_seed("store-diff", 1), 500, memory=32)

    def test_tiny_memtable_constant_churn(self, tmp_path):
        run_workload(
            tmp_path,
            stress_seed("store-diff", 2),
            400,
            memory=3,
            fan_in=2,
            block_records=4,
        )

    def test_compressed_tables(self, tmp_path):
        run_workload(
            tmp_path,
            stress_seed("store-diff", 3),
            400,
            memory=16,
            codec="lzma",
        )

    @pytest.mark.stress
    @pytest.mark.parametrize("case", range(8))
    def test_long_workloads(self, tmp_path, case):
        rng = random.Random(stress_seed("store-diff-long", case))
        run_workload(
            tmp_path,
            stress_seed("store-diff-steps", case),
            2000,
            memory=rng.choice((5, 16, 64)),
            fan_in=rng.choice((2, 4, 8)),
            codec=rng.choice(("none", "zlib", "lzma")),
            block_records=rng.choice((4, 32, 128)),
        )


# ---------------------------------------------------------------------------
# Acceptance: one oplog, many tunings, one answer
# ---------------------------------------------------------------------------


def make_oplog(seed, steps):
    rng = random.Random(seed)
    lines = []
    for _ in range(steps):
        key = random_key(rng)
        if rng.random() < 0.7:
            lines.append(("put", key, random_value(rng)))
        else:
            lines.append(("del", key, b""))
    return lines


def replay(tmp_path, name, ops, **store_options):
    path = str(tmp_path / name)
    with Store(path, sync=False, **store_options) as store:
        for op, key, value in ops:
            if op == "put":
                store.put(key, value)
            else:
                store.delete(key)
        store.flush()
        result = list(store.scan())
        store.verify()
    # Reopen read-only-ish and rescan: the on-disk state alone (no
    # memtable residue) must produce the same answer.
    with Store(path, sync=False, **store_options) as store:
        assert list(store.scan()) == result
    return result


class TestOplogRebuildIdentity:
    def test_scan_is_invariant_under_tuning(self, tmp_path):
        ops = make_oplog(stress_seed("store-oplog", 0), 600)
        baseline = replay(tmp_path, "a", ops, memory=1000)
        assert baseline == replay(
            tmp_path, "b", ops, memory=4, fan_in=2, block_records=4
        )
        assert baseline == replay(
            tmp_path, "c", ops, memory=32, codec="lzma"
        )
        assert baseline == replay(
            tmp_path, "d", ops, memory=16, fan_in=3, codec="zlib",
            auto_compact=False,
        )

    def test_oplog_text_round_trip_preserves_identity(self, tmp_path):
        # Serialize through the CLI's text oplog codec and parse back:
        # the escaping layer must not perturb the replayed contents.
        from repro.store.oplog import escape_bytes

        ops = make_oplog(stress_seed("store-oplog", 1), 300)
        lines = []
        for op, key, value in ops:
            if op == "put":
                lines.append(
                    f"put\t{escape_bytes(key)}\t{escape_bytes(value)}\n"
                )
            else:
                lines.append(f"del\t{escape_bytes(key)}\n")
        parsed = [
            parse_op_line(line, number)
            for number, line in enumerate(lines, start=1)
        ]
        assert parsed == ops
        direct = replay(tmp_path, "direct", ops, memory=8)
        via_text = replay(tmp_path, "text", parsed, memory=64, fan_in=2)
        assert direct == via_text
