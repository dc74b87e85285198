"""The LSM store facade (DESIGN.md §17).

One :class:`Store` owns a directory::

    LOCK                  advisory single-writer lock (flock)
    MANIFEST              append-only JSONL table-set log (§17)
    wal-<num>.log         write-ahead logs (replay floor in MANIFEST)
    sst-<num>.sst         SSTables (only MANIFEST-listed ones are live)

**Durability contract.**  A mutation is acknowledged once its WAL
append returns (fsynced when ``sync=True``); from that moment it
survives ``kill -9`` at *any* point.  Flushes and compactions follow
the §11 order — write table → fsync → read-back verify → manifest
append → delete superseded files — so every crash window resolves on
reopen to either "the work never happened" (orphan outputs are swept)
or "the work completed" (the manifest entry is the commit point).
``close()`` deliberately does **not** flush the memtable: durability
comes from the WAL, and making recovery-by-replay the normal reopen
path means the crash path is exercised constantly, not only in fault
tests.

**Reads.**  ``get`` consults the memtable first (always newest), then
the tables newest-first by ``max_seqno``; among hits the smallest meta
wins — the §17 inverted-seqno layout makes "newest" and "minimum" the
same thing.  After a hit with seqno ``s`` the probe stops at the first
table whose ``max_seqno < s``: that table and every later one hold
nothing newer, whatever the compaction policy did.  A probe decodes
one :data:`~repro.store.sstable.DEFAULT_TABLE_BLOCK_RECORDS`-record
block.  ``scan`` k-way-merges the memtable with every table through
the same LWW machinery compaction uses.

**Compaction.**  When a level holds more than ``fan_in`` tables, all
of them merge into one table at the next level (``kway_merge`` under
the hood, :func:`~repro.merge.kway.reduce_to_fan_in` bounding open
readers when a merge is wider than ``fan_in``).  Tombstones are
dropped only when the merge covers every live table — otherwise a
deleted key could resurface from an older table outside the merge.
"""

from __future__ import annotations

import os
import re
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.errors import StoreError
from repro.engine.resilience import artifact_valid
from repro.engine.spill_codec import validate_codec
from repro.merge.kway import DEFAULT_FAN_IN, reduce_to_fan_in
from repro.store.compaction import merge_streams, visible_items
from repro.store.format import (
    PUT,
    PUT_BYTE,
    SEQNO_MAX,
    TOMBSTONE,
    TOMBSTONE_BYTE,
    meta_is_tombstone,
    meta_seqno,
    meta_value,
)
from repro.store.manifest import (
    MANIFEST_NAME,
    StoreManifest,
    replay_entries,
)
from repro.store.memtable import Memtable
from repro.store.sstable import (
    DEFAULT_TABLE_BLOCK_RECORDS,
    TABLE_VERSION,
    SSTableReader,
    fingerprint,
    write_table,
)
from repro.store.wal import WalWriter, replay_wal

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_MEMTABLE_RECORDS",
    "DEFAULT_TABLE_BLOCK_RECORDS",
    "LOCK_NAME",
    "Store",
]

#: Default memtable budget, in records (the repo-wide memory unit).
DEFAULT_MEMTABLE_RECORDS = 4096

LOCK_NAME = "LOCK"

#: Manifest length (entries) above which opening checkpoints it.
CHECKPOINT_ENTRIES = 256

_TABLE_RE = re.compile(r"^sst-(\d{8})\.sst$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


def _discard(path: str) -> None:
    """Best-effort removal of a file the manifest no longer needs."""
    try:
        os.remove(path)
    except OSError:
        pass


class Store:
    """Single-writer LSM table over one directory."""

    def __init__(
        self,
        path: str,
        *,
        memory: int = DEFAULT_MEMTABLE_RECORDS,
        block_records: int = DEFAULT_TABLE_BLOCK_RECORDS,
        codec: str = "none",
        fan_in: int = DEFAULT_FAN_IN,
        sync: bool = True,
        auto_compact: bool = True,
    ) -> None:
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        if fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {fan_in}")
        self.path = path
        self.memory = memory
        self.block_records = block_records
        self.codec = validate_codec(codec)
        self.fan_in = fan_in
        self.sync = sync
        self.auto_compact = auto_compact
        # -- write-amplification instrumentation (bench + reports) --
        self.flushed_tables = 0
        self.flushed_bytes = 0
        self.compacted_tables = 0
        self.compacted_bytes = 0
        self.wal_bytes = 0
        self._lock_handle: Optional[Any] = None
        self._manifest: Optional[StoreManifest] = None
        self._wal: Optional[WalWriter] = None
        self._readers: Dict[str, SSTableReader] = {}
        self._tables: Dict[str, Dict[str, Any]] = {}
        self._memtable = Memtable()
        self._next_filenum = 0
        self._next_seqno = 1
        self._wal_floor = 0
        try:
            self._open()
        except BaseException:
            self.close()
            raise

    # -- open / recovery -------------------------------------------------------

    @staticmethod
    def _fingerprint() -> Dict[str, Any]:
        return {"format": "repro-store", "table_version": TABLE_VERSION}

    def _open(self) -> None:
        os.makedirs(self.path, exist_ok=True)
        self._acquire_lock()
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            self._manifest = StoreManifest.load(
                manifest_path, self._fingerprint()
            )
        else:
            leftovers = [
                name
                for name in os.listdir(self.path)
                if name != LOCK_NAME
            ]
            if leftovers:
                raise StoreError(
                    f"directory {self.path!r} is not empty and holds no "
                    f"store MANIFEST; refusing to initialise a store "
                    f"over existing data — pass an empty or dedicated "
                    f"directory"
                )
            self._manifest = StoreManifest.create(
                manifest_path, self._fingerprint()
            )
        tables, wal_floor, manifest_max = replay_entries(
            manifest_path, self._manifest.entries
        )
        self._tables = tables
        self._wal_floor = wal_floor
        table_nums, wal_nums = self._scan_directory()
        self._next_filenum = (
            max([manifest_max, wal_floor, *table_nums, *wal_nums]) + 1
        )
        wal_nums = self._clean_orphans(table_nums, wal_nums)
        for name in sorted(tables):
            self._readers[name] = self._open_reader(name)
        self._order_readers()
        self._replay_wals(wal_nums)
        self._next_seqno = (
            max(
                [self._memtable.max_seqno]
                + [reader.max_seqno for reader in self._readers.values()]
            )
            + 1
        )
        self._wal = WalWriter(
            self._wal_path(self._alloc_filenum()), sync=self.sync
        )
        if len(self._memtable) >= self.memory:
            self.flush()
        if len(self._manifest.entries) > CHECKPOINT_ENTRIES:
            self._manifest.checkpoint()

    def _acquire_lock(self) -> None:
        lock_path = os.path.join(self.path, LOCK_NAME)
        # repro: lint-waive R002 the advisory lock file carries no data; fault-injecting it would only fake lock contention
        self._lock_handle = open(lock_path, "a")
        if fcntl is not None:
            try:
                fcntl.flock(
                    self._lock_handle.fileno(),
                    fcntl.LOCK_EX | fcntl.LOCK_NB,
                )
            except OSError:
                self._lock_handle.close()
                self._lock_handle = None
                raise StoreError(
                    f"store {self.path!r} is locked by another process "
                    f"— it allows one writer at a time"
                ) from None

    def _scan_directory(self) -> Tuple[List[int], List[int]]:
        table_nums: List[int] = []
        wal_nums: List[int] = []
        for name in os.listdir(self.path):
            table_match = _TABLE_RE.match(name)
            if table_match:
                table_nums.append(int(table_match.group(1)))
                continue
            wal_match = _WAL_RE.match(name)
            if wal_match:
                wal_nums.append(int(wal_match.group(1)))
        return table_nums, wal_nums

    def _clean_orphans(
        self, table_nums: List[int], wal_nums: List[int]
    ) -> List[int]:
        """Sweep files a crash stranded outside the manifest.

        Any SSTable the manifest does not list is the output of a
        flush or compaction that never reached its commit point; any
        WAL below the floor was superseded by a flush whose deletes
        did not finish; any ``.tmp`` is a torn checkpoint.  All are
        safe to delete *because* the manifest append is the single
        commit point.  A zero-byte WAL at or above the floor holds no
        acknowledged record (every open creates one, so a session that
        never writes leaves it behind); the directory lock rules out a
        writer still filling it, so it goes too.  Returns the WAL
        numbers left to replay.
        """
        for num in table_nums:
            name = os.path.basename(self._table_path(num))
            if name not in self._tables:
                _discard(self._table_path(num))
        live_wals: List[int] = []
        for num in wal_nums:
            path = self._wal_path(num)
            if num < self._wal_floor or os.path.getsize(path) == 0:
                _discard(path)
            else:
                live_wals.append(num)
        for name in os.listdir(self.path):
            if name.endswith(".tmp"):
                _discard(os.path.join(self.path, name))
        return live_wals

    def _order_readers(self) -> None:
        """Keep ``_readers`` newest-first by ``max_seqno`` — the probe
        order :meth:`get` relies on.  Names are no guide: a compaction
        output takes a fresh, larger filenum than tables newer than
        its inputs."""
        self._readers = dict(
            sorted(
                self._readers.items(),
                key=lambda item: item[1].max_seqno,
                reverse=True,
            )
        )

    def _open_reader(self, name: str) -> SSTableReader:
        path = os.path.join(self.path, name)
        try:
            return SSTableReader(path)
        except (OSError, StoreError) as exc:
            raise StoreError(
                f"store {self.path!r}: manifest-listed table {name!r} "
                f"failed to open ({exc}) — the store's data cannot be "
                f"trusted; restore the file or rebuild from the "
                f"operation log"
            ) from exc

    def _replay_wals(self, wal_nums: List[int]) -> None:
        for num in sorted(wal_nums):
            for op, seqno, key, value in replay_wal(self._wal_path(num)):
                if op == PUT_BYTE:
                    self._memtable.apply(PUT, seqno, key, value)
                elif op == TOMBSTONE_BYTE:
                    self._memtable.apply(TOMBSTONE, seqno, key, b"")
                else:
                    raise StoreError(
                        f"wal {self._wal_path(num)!r}: unknown op "
                        f"{op} — written by a newer build, or corrupt"
                    )

    # -- paths / allocation ----------------------------------------------------

    def _table_path(self, num: int) -> str:
        return os.path.join(self.path, f"sst-{num:08d}.sst")

    def _wal_path(self, num: int) -> str:
        return os.path.join(self.path, f"wal-{num:08d}.log")

    def _alloc_filenum(self) -> int:
        num = self._next_filenum
        self._next_filenum += 1
        return num

    def _check_open(self) -> None:
        if self._wal is None:
            raise StoreError(f"store {self.path!r} is closed")

    # -- writes ----------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Store ``value`` under ``key`` (acknowledged when returning)."""
        self._apply(PUT_BYTE, PUT, key, value)

    def delete(self, key: bytes) -> None:
        """Delete ``key`` — a tombstone that shadows every older put."""
        self._apply(TOMBSTONE_BYTE, TOMBSTONE, key, b"")

    def _apply(self, op: int, op_byte: bytes, key: bytes, value: bytes) -> None:
        self._check_open()
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("store keys and values are bytes")
        if self._next_seqno >= SEQNO_MAX:
            raise StoreError("store sequence numbers exhausted")
        assert self._wal is not None
        seqno = self._next_seqno
        self._next_seqno += 1
        self._wal.append(op, seqno, key, value)
        self.wal_bytes += len(key) + len(value) + 29
        self._memtable.apply(op_byte, seqno, key, value)
        if len(self._memtable) >= self.memory:
            self.flush()

    # -- reads -----------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """The current value of ``key``, or None (absent or deleted)."""
        self._check_open()
        meta = self._memtable.lookup(key)
        if meta is None:
            newest = 0
            for reader in self._readers.values():
                if reader.max_seqno < newest:
                    break
                found = reader.lookup(key)
                if found is not None and (meta is None or found < meta):
                    meta = found
                    newest = meta_seqno(found)
        if meta is None or meta_is_tombstone(meta):
            return None
        return meta_value(meta)

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered ``(key, value)`` pairs with ``start <= key < end``.

        A merge over the memtable and every live table — the same LWW
        machinery compaction runs, so a scan is always exactly what a
        fully-compacted store would contain.  Do not mutate the store
        while consuming the iterator.
        """
        self._check_open()
        streams: List[Any] = [iter(self._memtable.range_entries(start, end))]
        for reader in self._readers.values():
            streams.append(reader.entries(start, end))
        return visible_items(streams)

    def count(self) -> int:
        """Number of live (visible) keys — a full scan."""
        total = 0
        for _ in self.scan():
            total += 1
        return total

    # -- flush -----------------------------------------------------------------

    def flush(self) -> Optional[str]:
        """Persist the memtable as a level-0 table; returns its name.

        No-op (returns None) on an empty memtable.  The §11 order:
        the table is written and fsynced, *read back and verified*,
        and only then recorded in the manifest (which advances the WAL
        floor); superseded WALs are deleted last.  A verification
        failure — e.g. a bit flip injected mid-write — raises cleanly
        with the memtable and WAL intact, so nothing acknowledged is
        lost.
        """
        self._check_open()
        assert self._manifest is not None and self._wal is not None
        if len(self._memtable) == 0:
            return None
        table_num = self._alloc_filenum()
        table_path = self._table_path(table_num)
        info = write_table(
            table_path,
            self._memtable.sorted_entries(),
            max_seqno=self._memtable.max_seqno,
            block_records=self.block_records,
            codec=self.codec,
            fsync=True,
        )
        if not artifact_valid(table_path, info.crc32):
            _discard(table_path)
            raise StoreError(
                f"flush of {table_path!r} failed read-back "
                f"verification — the written bytes do not match what "
                f"was intended; the memtable and WAL are intact, so no "
                f"acknowledged write was lost"
            )
        new_wal_num = self._alloc_filenum()
        old_wal = self._wal
        self._wal = WalWriter(self._wal_path(new_wal_num), sync=self.sync)
        name = os.path.basename(table_path)
        self._manifest.append(
            {
                "type": "flush",
                "file": name,
                "filenum": table_num,
                "level": 0,
                "records": info.records,
                "crc32": info.crc32,
                "min_key": info.min_key.hex(),
                "max_key": info.max_key.hex(),
                "max_seqno": info.max_seqno,
                "wal_floor": new_wal_num,
            }
        )
        old_wal.close()
        for num in range(self._wal_floor, new_wal_num):
            _discard(self._wal_path(num))
        self._wal_floor = new_wal_num
        self._memtable = Memtable()
        self._tables[name] = {
            "file": name,
            "filenum": table_num,
            "level": 0,
            "records": info.records,
            "crc32": info.crc32,
            "min_key": info.min_key.hex(),
            "max_key": info.max_key.hex(),
            "max_seqno": info.max_seqno,
        }
        self._readers[name] = self._open_reader(name)
        self._order_readers()
        self.flushed_tables += 1
        self.flushed_bytes += info.disk_bytes
        if self.auto_compact:
            self._maybe_compact()
        return name

    # -- compaction ------------------------------------------------------------

    def _levels(self) -> Dict[int, List[str]]:
        levels: Dict[int, List[str]] = {}
        for name in sorted(self._tables):
            levels.setdefault(self._tables[name]["level"], []).append(name)
        return levels

    def _maybe_compact(self) -> None:
        """Cascade leveled compaction until every level fits fan_in."""
        while True:
            levels = self._levels()
            target = None
            for level in sorted(levels):
                if len(levels[level]) > self.fan_in:
                    target = level
                    break
            if target is None:
                return
            inputs = levels[target]
            self._compact_tables(
                inputs,
                out_level=target + 1,
                drop_deletes=len(inputs) == len(self._tables),
            )

    def compact(self) -> Optional[str]:
        """Full compaction: flush, then merge *everything* into one.

        Because the merge covers every live table, tombstones are
        dropped — this is the call that makes deletes reclaim space.
        Returns the output table name (None for an empty store).
        """
        self._check_open()
        self.flush()
        inputs = sorted(self._tables)
        if not inputs:
            return None
        out_level = max(
            [1] + [self._tables[name]["level"] for name in inputs]
        )
        return self._compact_tables(inputs, out_level, drop_deletes=True)

    def _compact_tables(
        self, input_files: List[str], out_level: int, drop_deletes: bool
    ) -> Optional[str]:
        """Merge ``input_files`` into one table at ``out_level``.

        All-or-nothing: the single manifest ``compact`` append is the
        commit point; a crash before it leaves only orphan outputs
        (swept on reopen) and a crash after it only stale inputs
        (ditto).  ``reduce_to_fan_in`` bounds open readers when the
        merge is wider than ``fan_in`` — exactly the sort engine's
        intermediate-pass machinery, with intermediate *tables* in the
        role of intermediate runs.
        """
        assert self._manifest is not None
        readers: List[SSTableReader] = [
            self._readers[name] for name in input_files
        ]
        max_seqno = max(reader.max_seqno for reader in readers)
        intermediates: List[SSTableReader] = []

        def merge_group(group: Sequence[SSTableReader]) -> SSTableReader:
            num = self._alloc_filenum()
            path = self._table_path(num)
            group_info = write_table(
                path,
                merge_streams([r.entries() for r in group]),
                max_seqno=max(r.max_seqno for r in group),
                block_records=self.block_records,
                codec=self.codec,
                fsync=True,
            )
            if not artifact_valid(path, group_info.crc32):
                _discard(path)
                raise StoreError(
                    f"intermediate compaction table {path!r} failed "
                    f"read-back verification; compaction aborted with "
                    f"all input tables intact"
                )
            self.compacted_bytes += group_info.disk_bytes
            for member in group:
                if member in intermediates:
                    intermediates.remove(member)
                    member.close()
                    _discard(member.path)
            reader = SSTableReader(path)
            intermediates.append(reader)
            return reader

        out_name: Optional[str] = None
        try:
            survivors, _passes = reduce_to_fan_in(
                readers, self.fan_in, merge_group
            )
            merged = merge_streams(
                [reader.entries() for reader in survivors],
                drop_deletes=drop_deletes,
            )
            head = next(merged, None)
            info = None
            out_num = -1
            if head is not None:
                out_num = self._alloc_filenum()
                out_path = self._table_path(out_num)
                info = write_table(
                    out_path,
                    chain([head], merged),
                    max_seqno=max_seqno,
                    block_records=self.block_records,
                    codec=self.codec,
                    fsync=True,
                )
                if not artifact_valid(out_path, info.crc32):
                    _discard(out_path)
                    raise StoreError(
                        f"compaction output {out_path!r} failed "
                        f"read-back verification; compaction aborted "
                        f"with all input tables intact"
                    )
            if info is not None:
                out_name = os.path.basename(self._table_path(out_num))
                self._manifest.append(
                    {
                        "type": "compact",
                        "file": out_name,
                        "filenum": out_num,
                        "level": out_level,
                        "records": info.records,
                        "crc32": info.crc32,
                        "min_key": info.min_key.hex(),
                        "max_key": info.max_key.hex(),
                        "max_seqno": info.max_seqno,
                        "removes": list(input_files),
                    }
                )
            else:
                # Everything annihilated (tombstones met their puts in
                # a full merge): the compaction still commits — it just
                # has no output table.
                self._manifest.append(
                    {"type": "compact", "removes": list(input_files)}
                )
        finally:
            for reader in intermediates:
                reader.close()
                _discard(reader.path)
        for name in input_files:
            self._readers.pop(name).close()
            del self._tables[name]
            _discard(os.path.join(self.path, name))
        if out_name is not None and info is not None:
            self._tables[out_name] = {
                "file": out_name,
                "filenum": out_num,
                "level": out_level,
                "records": info.records,
                "crc32": info.crc32,
                "min_key": info.min_key.hex(),
                "max_key": info.max_key.hex(),
                "max_seqno": info.max_seqno,
            }
            self._readers[out_name] = self._open_reader(out_name)
            self._order_readers()
            self.compacted_tables += 1
            self.compacted_bytes += info.disk_bytes
        return out_name

    # -- verification / introspection -------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Check every live table against its manifest record.

        Re-hashes each table's bytes against the manifest CRC
        (:func:`artifact_valid` — the same check a resumed sort runs on
        survivors), then walks every block checking framing CRCs, key
        order, uniqueness, record counts and that the key filter holds
        each key's fingerprint.  Raises
        :class:`StoreError` on the first discrepancy.
        """
        self._check_open()
        total = 0
        for name in sorted(self._tables):
            record = self._tables[name]
            path = os.path.join(self.path, name)
            if not artifact_valid(path, record["crc32"]):
                raise StoreError(
                    f"table {name!r} failed whole-file CRC verification "
                    f"against its manifest record — bytes changed on "
                    f"disk since the flush/compaction that wrote it"
                )
            reader = self._readers[name]
            fingerprints = reader.fingerprints
            count = 0
            previous: Optional[bytes] = None
            for entry in reader.entries():
                if previous is not None and entry[0] <= previous:
                    raise StoreError(
                        f"table {name!r} keys are not strictly "
                        f"increasing at record {count}"
                    )
                if (
                    count >= len(fingerprints)
                    or fingerprint(entry[0]) != fingerprints[count]
                ):
                    raise StoreError(
                        f"table {name!r} key filter disagrees with its "
                        f"keys at record {count}"
                    )
                previous = entry[0]
                count += 1
            if count != record["records"]:
                raise StoreError(
                    f"table {name!r} holds {count} records, manifest "
                    f"says {record['records']}"
                )
            total += count
        return {
            "tables": len(self._tables),
            "table_records": total,
            "memtable_records": len(self._memtable),
            "levels": {
                str(level): len(names)
                for level, names in sorted(self._levels().items())
            },
        }

    def table_names(self) -> List[str]:
        """Live table file names (sorted) — for tests and tooling."""
        return sorted(self._tables)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the directory.  Does *not* flush the memtable —
        buffered writes are already durable in the WAL and reopen by
        replay (the module docstring explains why this is deliberate).
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        for reader in self._readers.values():
            reader.close()
        self._readers = {}
        if self._manifest is not None:
            self._manifest.close()
            self._manifest = None
        if self._lock_handle is not None:
            self._lock_handle.close()
            self._lock_handle = None

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
