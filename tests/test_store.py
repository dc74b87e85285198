"""Unit coverage for the ``repro.store`` LSM engine (DESIGN.md §17).

Bottom-up: the §17 meta layout, the memtable, one SSTable, the WAL,
the MANIFEST, then the :class:`~repro.store.Store` facade — basic
operations, flush/compaction structure, WAL-replay reopen, refusal
modes and the single-writer lock.  Crash/fault scenarios live in
``test_store_faults.py``; randomized oracle comparisons in
``test_store_differential.py``.
"""

import os
import struct
import zlib
from bisect import bisect_right

import pytest

from repro.engine.errors import ManifestError, SortError, StoreError
from repro.engine.resilience import artifact_valid
from repro.store import Store, sstable
from repro.store.format import (
    META_PREFIX,
    PUT,
    SEQNO_MAX,
    TOMBSTONE,
    encode_meta,
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
from repro.store.oplog import (
    escape_bytes,
    format_item,
    parse_op_line,
    unescape_bytes,
)
from repro.store.sstable import (
    DEFAULT_TABLE_BLOCK_RECORDS,
    TABLE_VERSION,
    SSTableReader,
    write_table,
)
from repro.store.wal import WalWriter, replay_wal


def entry(key, seqno, value=b"", op=PUT):
    return key, encode_meta(seqno, op, value)


# ---------------------------------------------------------------------------
# §17 meta layout
# ---------------------------------------------------------------------------


class TestMetaFormat:
    def test_round_trip(self):
        meta = encode_meta(42, PUT, b"hello")
        assert meta_seqno(meta) == 42
        assert not meta_is_tombstone(meta)
        assert meta_value(meta) == b"hello"
        assert len(meta) == META_PREFIX + 5

    def test_tombstone(self):
        meta = encode_meta(7, TOMBSTONE)
        assert meta_is_tombstone(meta)
        assert meta_value(meta) == b""

    def test_newer_compares_smaller(self):
        # The inverted seqno is the LWW trick: after a merge the
        # newest write of a key is the *minimum* meta, so groupby's
        # first element wins with zero decoding.
        old = encode_meta(10, PUT, b"old")
        new = encode_meta(11, PUT, b"new")
        assert new < old

    def test_seqno_bounds(self):
        with pytest.raises(ValueError):
            encode_meta(-1, PUT)
        with pytest.raises(ValueError):
            encode_meta(SEQNO_MAX + 1, PUT)


class TestOplogCodec:
    def test_escape_round_trips_every_byte(self):
        data = bytes(range(256))
        assert unescape_bytes(escape_bytes(data)) == data

    def test_separator_bytes_are_escaped(self):
        token = escape_bytes(b"a\tb\nc\\d")
        assert "\t" not in token and "\n" not in token
        assert unescape_bytes(token) == b"a\tb\nc\\d"

    def test_non_ascii_text_stores_utf8(self):
        assert unescape_bytes("café") == "café".encode("utf-8")

    @pytest.mark.parametrize("bad", ["tail\\", "\\q", "\\x2", "\\xzz"])
    def test_malformed_escape_raises(self, bad):
        with pytest.raises(ValueError):
            unescape_bytes(bad)

    def test_parse_op_lines(self):
        assert parse_op_line("put\tk\tv\n", 1) == ("put", b"k", b"v")
        assert parse_op_line("del\tk\n", 2) == ("del", b"k", b"")
        assert parse_op_line("\n", 3) is None
        with pytest.raises(ValueError, match="line 4"):
            parse_op_line("put\tk\n", 4)
        with pytest.raises(ValueError, match="unknown op"):
            parse_op_line("upsert\tk\tv\n", 5)

    def test_format_item_round_trip(self):
        line = format_item(b"\x00key", b"val\tue")
        op, key, value = parse_op_line("put\t" + line, 1)
        assert (key, value) == (b"\x00key", b"val\tue")


# ---------------------------------------------------------------------------
# Memtable
# ---------------------------------------------------------------------------


class TestMemtable:
    def test_newest_write_per_key(self):
        table = Memtable()
        table.apply(PUT, 1, b"a", b"1")
        table.apply(PUT, 2, b"a", b"2")
        table.apply(TOMBSTONE, 3, b"b", b"")
        assert len(table) == 2
        assert table.max_seqno == 3
        assert meta_value(table.lookup(b"a")) == b"2"
        assert meta_is_tombstone(table.lookup(b"b"))

    def test_sorted_and_range_entries(self):
        table = Memtable()
        for index, key in enumerate([b"c", b"a", b"b", b"d"], start=1):
            table.apply(PUT, index, key, key)
        keys = [key for key, _ in table.sorted_entries()]
        assert keys == [b"a", b"b", b"c", b"d"]
        ranged = [key for key, _ in table.range_entries(b"b", b"d")]
        assert ranged == [b"b", b"c"]

    def test_payload_accounting_on_replace(self):
        table = Memtable()
        table.apply(PUT, 1, b"k", b"long-value")
        table.apply(PUT, 2, b"k", b"s")
        assert table.payload_bytes == len(b"k") + len(
            encode_meta(2, PUT, b"s")
        )


# ---------------------------------------------------------------------------
# SSTable
# ---------------------------------------------------------------------------


def build_entries(count, prefix=b"key", value=b"v"):
    return [
        entry(b"%s%06d" % (prefix, index), index + 1, value)
        for index in range(count)
    ]


class TestSSTable:
    @pytest.mark.parametrize("codec", ["none", "zlib", "lzma"])
    def test_round_trip_multiple_blocks(self, tmp_path, codec):
        path = str(tmp_path / "t.sst")
        entries = build_entries(100)
        info = write_table(
            path, entries, max_seqno=100, block_records=8, codec=codec
        )
        assert info.records == 100
        assert info.min_key == entries[0][0]
        assert info.max_key == entries[-1][0]
        assert artifact_valid(path, info.crc32)
        with SSTableReader(path) as reader:
            assert reader.records == 100
            assert reader.codec == codec
            assert reader.max_seqno == 100
            assert list(reader.entries()) == entries

    def test_lookup(self, tmp_path):
        path = str(tmp_path / "t.sst")
        entries = build_entries(50)
        write_table(path, entries, max_seqno=50, block_records=7)
        with SSTableReader(path) as reader:
            for key, meta in entries[:: 9]:
                assert reader.lookup(key) == meta
            assert reader.lookup(b"key000010x") is None
            assert reader.lookup(b"aaa") is None  # below min_key
            assert reader.lookup(b"zzz") is None  # above max_key

    def test_range_scan(self, tmp_path):
        path = str(tmp_path / "t.sst")
        entries = build_entries(40)
        write_table(path, entries, max_seqno=40, block_records=6)
        with SSTableReader(path) as reader:
            got = list(reader.entries(entries[13][0], entries[29][0]))
            assert got == entries[13:29]
            assert list(reader.entries(b"zzz")) == []
            assert list(reader.entries(None, b"aaa")) == []

    def test_empty_stream_refused(self, tmp_path):
        with pytest.raises(ValueError, match="empty sstable"):
            write_table(str(tmp_path / "t.sst"), [], max_seqno=1)

    def test_torn_footer_rejected(self, tmp_path):
        path = str(tmp_path / "t.sst")
        write_table(path, build_entries(10), max_seqno=10)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-9])  # crash mid-footer
        with pytest.raises(StoreError, match="torn|magic"):
            SSTableReader(path)

    def test_corrupt_index_rejected(self, tmp_path):
        path = str(tmp_path / "t.sst")
        info = write_table(path, build_entries(10), max_seqno=10)
        data = bytearray(open(path, "rb").read())
        data[info.disk_bytes - 40] ^= 0xFF  # inside the index body
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            SSTableReader(path)

    def test_corrupt_data_block_fails_on_read(self, tmp_path):
        path = str(tmp_path / "t.sst")
        write_table(path, build_entries(20), max_seqno=20, block_records=5)
        data = bytearray(open(path, "rb").read())
        data[30] ^= 0x01  # somewhere in block 0's body
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        reader = SSTableReader(path)  # index is intact
        try:
            with pytest.raises(SortError):
                list(reader.entries())
        finally:
            reader.close()

    @staticmethod
    def _rewrite_index(path, patch):
        """Apply ``patch(data, index_offset)`` to a table's index body
        and recompute the footer CRC, so only the structure is wrong."""
        data = bytearray(open(path, "rb").read())
        footer = struct.Struct(">QII8s")
        index_offset, index_len, _, magic = footer.unpack_from(
            data, len(data) - footer.size
        )
        patch(data, index_offset)
        index_body = bytes(data[index_offset : index_offset + index_len])
        footer.pack_into(
            data, len(data) - footer.size, index_offset, index_len,
            zlib.crc32(index_body), magic,
        )
        with open(path, "wb") as handle:
            handle.write(bytes(data))

    @pytest.mark.parametrize("old_version", [1, 2, 3])
    def test_older_table_version_rejected(self, tmp_path, old_version):
        """Version 1 framed codec-none blocks differently, version 2
        interleaved the sparse index and version 3 had no key filter; a
        table whose (intact, re-checksummed) index claims an older
        version is refused by name instead of misread."""
        path = str(tmp_path / "t.sst")
        write_table(path, build_entries(10), max_seqno=10)
        self._rewrite_index(
            path,
            lambda data, at: struct.pack_into(">H", data, at, old_version),
        )
        assert TABLE_VERSION == 4
        with pytest.raises(
            StoreError, match=f"index version {old_version}.*version 4"
        ):
            SSTableReader(path)

    @pytest.mark.parametrize("retired", [3, 4])
    def test_retired_codec_id_fails_store_open(self, tmp_path, retired):
        """Ids 3 and 4 named the deleted front-coding codecs: a store
        holding such a table refuses to open rather than misread it."""
        path = str(tmp_path / "db")
        with Store(path, codec="zlib", sync=False) as store:
            for index in range(20):
                store.put(b"k%03d" % index, b"v")
            store.flush()
            (name,) = store.table_names()
        codec_at = struct.calcsize(">HQQ")  # version, records, max seqno
        self._rewrite_index(
            os.path.join(path, name),
            lambda data, at: struct.pack_into(
                ">B", data, at + codec_at, retired
            ),
        )
        with pytest.raises(StoreError, match=f"unknown codec id {retired}"):
            Store(path, sync=False)

    @pytest.mark.parametrize("bad_end", ["overrun", "backwards"])
    def test_key_ends_checked(self, tmp_path, bad_end):
        """The columnar index's cumulative key ends must stay inside the
        key region and never decrease — a CRC-matching index that breaks
        either is a StoreError, not an IndexError or silently wrong
        first keys."""
        path = str(tmp_path / "t.sst")
        write_table(path, build_entries(40), max_seqno=40, block_records=8)
        blocks = 5
        # The fixed header (version, records, max seqno, codec, block
        # records, filter offset, count and CRC, block count), then one
        # u64 offset per block.
        ends_at = struct.calcsize(">HQQBIQQII") + 8 * blocks

        def patch(data, at):
            ends = list(struct.unpack_from(f">{blocks}I", data, at + ends_at))
            if bad_end == "overrun":
                ends[-1] += 10_000
            else:
                ends[1] = ends[0] - 1
            struct.pack_into(f">{blocks}I", data, at + ends_at, *ends)

        self._rewrite_index(path, patch)
        with pytest.raises(StoreError, match="key ends"):
            SSTableReader(path)

    def test_default_block_size(self, tmp_path):
        path = str(tmp_path / "t.sst")
        write_table(path, build_entries(1000), max_seqno=1000)
        with SSTableReader(path) as reader:
            blocks = -(-1000 // DEFAULT_TABLE_BLOCK_RECORDS)
            assert len(reader._offsets) == blocks
        with Store(str(tmp_path / "db"), sync=False) as store:
            assert store.block_records == DEFAULT_TABLE_BLOCK_RECORDS


# ---------------------------------------------------------------------------
# WAL
# ---------------------------------------------------------------------------


class TestWal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "w.log")
        writer = WalWriter(path, sync=False)
        writer.append(0, 1, b"a", b"1")
        writer.append(1, 2, b"b", b"")
        writer.append(0, 3, b"WREC", b"WREC inside a value")
        writer.close()
        assert list(replay_wal(path)) == [
            (0, 1, b"a", b"1"),
            (1, 2, b"b", b""),
            (0, 3, b"WREC", b"WREC inside a value"),
        ]

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "w.log")
        writer = WalWriter(path, sync=False)
        writer.append(0, 1, b"a", b"1")
        writer.append(0, 2, b"b", b"2")
        writer.close()
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-5])  # crash mid-append of record 2
        assert list(replay_wal(path)) == [(0, 1, b"a", b"1")]

    def test_mid_file_corruption_rejected(self, tmp_path):
        path = str(tmp_path / "w.log")
        writer = WalWriter(path, sync=False)
        writer.append(0, 1, b"a", b"x" * 64)
        writer.append(0, 2, b"b", b"y" * 64)
        writer.close()
        data = bytearray(open(path, "rb").read())
        data[20] ^= 0xFF  # inside record 1, with record 2 intact after
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(StoreError):
            list(replay_wal(path))

    def test_missing_wal_propagates(self, tmp_path):
        # The Store decides which WALs exist (via the manifest floor);
        # replay itself treats a missing file as the error it is.
        with pytest.raises(OSError):
            list(replay_wal(str(tmp_path / "absent.log")))


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


FP = {"format": "repro-store", "table_version": 1}


def table_record(name, filenum, level=0, records=1):
    return {
        "type": "flush",
        "file": name,
        "filenum": filenum,
        "level": level,
        "records": records,
        "crc32": 0,
        "min_key": "00",
        "max_key": "ff",
        "max_seqno": filenum,
        "wal_floor": 0,
    }


class TestManifest:
    def test_create_load_round_trip(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        manifest = StoreManifest.create(path, FP)
        manifest.append(table_record("sst-00000000.sst", 0))
        manifest.close()
        loaded = StoreManifest.load(path, FP)
        tables, wal_floor, max_filenum = replay_entries(
            path, loaded.entries
        )
        assert set(tables) == {"sst-00000000.sst"}
        assert max_filenum == 0
        loaded.close()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        StoreManifest.create(path, FP).close()
        with pytest.raises(ManifestError, match="fingerprint"):
            StoreManifest.load(path, {"format": "other"})

    def test_torn_tail_repaired(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        manifest = StoreManifest.create(path, FP)
        manifest.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "flu')  # crash mid-append
        loaded = StoreManifest.load(path, FP)
        loaded.append(table_record("sst-00000001.sst", 1))
        loaded.close()
        tables, _, _ = replay_entries(path, StoreManifest._load(path))
        assert set(tables) == {"sst-00000001.sst"}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: line[:10] + b"\n",
            lambda line: b"[1]\n",  # valid JSON, but not an entry object
            lambda line: line[:10] + b"\xff" + line[11:],  # not UTF-8
        ],
        ids=["torn", "non-object", "non-utf8"],
    )
    def test_mid_file_corruption_rejected(self, tmp_path, damage):
        path = str(tmp_path / MANIFEST_NAME)
        manifest = StoreManifest.create(path, FP)
        manifest.append(table_record("sst-00000000.sst", 0))
        manifest.close()
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[0] = damage(lines[0])
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(ManifestError):
            StoreManifest.load(path, FP)

    def test_compact_of_unknown_table_rejected(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        manifest = StoreManifest.create(path, FP)
        manifest.append({"type": "compact", "removes": ["sst-x.sst"]})
        with pytest.raises(ManifestError, match="not a live table"):
            replay_entries(path, manifest.entries)
        manifest.close()

    def test_checkpoint_compacts_and_survives(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        manifest = StoreManifest.create(path, FP)
        for index in range(20):
            manifest.append(table_record(f"sst-{index:08d}.sst", index))
        manifest.append(
            {
                "type": "compact",
                "removes": [f"sst-{i:08d}.sst" for i in range(20)],
            }
        )
        manifest.checkpoint()
        assert len(manifest.entries) == 2  # meta + state
        manifest.append(table_record("sst-00000099.sst", 99))
        manifest.close()
        loaded = StoreManifest.load(path, FP)
        tables, _, max_filenum = replay_entries(path, loaded.entries)
        assert set(tables) == {"sst-00000099.sst"}
        assert max_filenum == 99
        loaded.close()


# ---------------------------------------------------------------------------
# Store facade
# ---------------------------------------------------------------------------


class TestStoreBasics:
    def test_put_get_delete_overwrite(self, tmp_path):
        with Store(str(tmp_path / "db"), sync=False) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.put(b"a", b"1-new")
            store.delete(b"b")
            assert store.get(b"a") == b"1-new"
            assert store.get(b"b") is None
            assert store.get(b"missing") is None
            assert list(store.scan()) == [(b"a", b"1-new")]

    def test_bytes_only(self, tmp_path):
        with Store(str(tmp_path / "db"), sync=False) as store:
            with pytest.raises(TypeError):
                store.put("text", b"v")
            with pytest.raises(TypeError):
                store.put(b"k", "text")

    def test_closed_store_raises(self, tmp_path):
        store = Store(str(tmp_path / "db"), sync=False)
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.get(b"a")
        with pytest.raises(StoreError, match="closed"):
            store.put(b"a", b"1")

    def test_single_writer_lock(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, sync=False):
            with pytest.raises(StoreError, match="locked"):
                Store(path, sync=False)

    def test_refuses_foreign_directory(self, tmp_path):
        target = tmp_path / "not-a-store"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        with pytest.raises(StoreError, match="refusing"):
            Store(str(target), sync=False)
        assert (target / "precious.txt").read_text() == "do not clobber"


class TestStoreFlushCompact:
    def test_flush_threshold_and_levels(self, tmp_path):
        store = Store(
            str(tmp_path / "db"), memory=10, fan_in=2, sync=False,
            block_records=4,
        )
        try:
            for index in range(100):
                store.put(b"k%04d" % index, b"v%d" % index)
            assert store.flushed_tables > 0
            summary = store.verify()
            assert all(
                count <= 2 for count in summary["levels"].values()
            )
            assert store.count() == 100
            assert store.get(b"k0042") == b"v42"
        finally:
            store.close()

    def test_scan_equals_fully_compacted(self, tmp_path):
        store = Store(str(tmp_path / "db"), memory=8, sync=False)
        try:
            for index in range(60):
                store.put(b"k%03d" % index, b"v%d" % index)
            for index in range(0, 60, 3):
                store.delete(b"k%03d" % index)
            before = list(store.scan())
            store.compact()
            assert list(store.scan()) == before
            assert len(store.table_names()) == 1
            assert len(before) == 40
        finally:
            store.close()

    def test_compact_drops_tombstones_and_annihilates(self, tmp_path):
        store = Store(str(tmp_path / "db"), memory=4, sync=False)
        try:
            for index in range(12):
                store.put(b"k%d" % index, b"v")
            for index in range(12):
                store.delete(b"k%d" % index)
            store.compact()
            assert store.table_names() == []
            assert list(store.scan()) == []
        finally:
            store.close()

    def test_no_auto_compact(self, tmp_path):
        store = Store(
            str(tmp_path / "db"), memory=4, fan_in=2, sync=False,
            auto_compact=False,
        )
        try:
            for index in range(40):
                store.put(b"k%02d" % index, b"v")
            levels = store.verify()["levels"]
            assert set(levels) == {"0"}
            assert levels["0"] > 2
        finally:
            store.close()

    def test_range_scan(self, tmp_path):
        store = Store(str(tmp_path / "db"), memory=6, sync=False)
        try:
            for index in range(30):
                store.put(b"k%03d" % index, b"%d" % index)
            got = [key for key, _ in store.scan(b"k005", b"k011")]
            assert got == [b"k%03d" % i for i in range(5, 11)]
        finally:
            store.close()


def count_probes(monkeypatch):
    """Count :meth:`SSTableReader.lookup` calls (the store's probes)."""
    calls = []
    original = SSTableReader.lookup

    def lookup(self, want):
        calls.append(os.path.basename(self.path))
        return original(self, want)

    monkeypatch.setattr(SSTableReader, "lookup", lookup)
    return calls


def hand_built_store(path, tables):
    """A store directory whose MANIFEST lists hand-written tables.

    ``tables`` holds ``(filenum, max_seqno, entries)``, so file-name
    order and seqno order can be made to disagree — something flushes
    alone never produce.
    """
    os.makedirs(path)
    manifest = StoreManifest.create(
        os.path.join(path, MANIFEST_NAME), Store._fingerprint()
    )
    for filenum, max_seqno, entries in tables:
        name = f"sst-{filenum:08d}.sst"
        info = write_table(
            os.path.join(path, name), entries, max_seqno=max_seqno
        )
        manifest.append({
            "type": "flush",
            "file": name,
            "filenum": filenum,
            "level": 0,
            "records": info.records,
            "crc32": info.crc32,
            "min_key": info.min_key.hex(),
            "max_key": info.max_key.hex(),
            "max_seqno": max_seqno,
            "wal_floor": 0,
        })
    manifest.close()


class TestStoreProbes:
    """``get`` probes tables newest-first by ``max_seqno`` and stops at
    the first table whose ``max_seqno`` is below the best hit's seqno."""

    @staticmethod
    def three_flushes(path, *values):
        store = Store(path, memory=1000, sync=False, auto_compact=False)
        for value in values:
            # The a/z brackets make every table's key range cover "k".
            store.put(b"a", b"-")
            if value is None:
                store.delete(b"k")
            else:
                store.put(b"k", value)
            store.put(b"z", b"-")
            store.flush()
        return store

    def test_newest_put_and_tombstone_win(self, tmp_path):
        with self.three_flushes(str(tmp_path / "a"), b"1", b"2", b"3") as store:
            assert len(store.table_names()) == 3
            assert store.get(b"k") == b"3"
        with self.three_flushes(str(tmp_path / "b"), b"1", b"2", None) as store:
            assert store.get(b"k") is None
            store.put(b"k", b"4")
            store.flush()
            assert store.get(b"k") == b"4"

    def test_newest_table_hit_costs_one_probe(self, tmp_path, monkeypatch):
        store = self.three_flushes(str(tmp_path / "db"), b"1", b"2", b"3")
        try:
            calls = count_probes(monkeypatch)
            assert store.get(b"k") == b"3"
            assert calls == [store.table_names()[-1]]
            calls.clear()
            assert store.get(b"m") is None  # a miss inside every range
            assert sorted(calls) == store.table_names()
        finally:
            store.close()

    def test_probe_order_is_seqno_not_filenum(self, tmp_path, monkeypatch):
        """Ascending names would stop at sst-1's hit (seqno 25) before
        reaching sst-3; descending names would stop at sst-5's hit
        (seqno 15).  Only max_seqno order finds seqno 45."""
        path = str(tmp_path / "db")
        filler = [entry(b"a", 1), entry(b"z", 2)]
        hand_built_store(path, [
            (1, 30, [entry(b"k", 25, b"mid")]),
            (2, 10, filler),
            (3, 50, [entry(b"k", 45, b"newest")]),
            (4, 8, filler),
            (5, 20, [entry(b"k", 15, b"old")]),
        ])
        with Store(path, sync=False) as store:
            order = [reader.max_seqno for reader in store._readers.values()]
            assert order == [50, 30, 20, 10, 8]
            calls = count_probes(monkeypatch)
            assert store.get(b"k") == b"newest"
            assert calls == ["sst-00000003.sst"]
            store.put(b"late", b"v")  # seqnos continue past every table
            store.flush()
            assert next(iter(store._readers.values())).max_seqno == 51

    def test_order_kept_through_compaction(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, memory=5, fan_in=2, sync=False) as store:
            for index in range(200):
                store.put(b"k%03d" % (index % 37), b"v%d" % index)
                order = [r.max_seqno for r in store._readers.values()]
                assert order == sorted(order, reverse=True)
            for index in range(163, 200):
                assert store.get(b"k%03d" % (index % 37)) == b"v%d" % index


def fingerprint(key):
    """The filter's fingerprint, spelled out: the low 16 bits of the
    key's CRC-32 (the on-disk format)."""
    return zlib.crc32(key) & 0xFFFF


def count_block_reads(monkeypatch):
    """Count data-block reads: every one goes through the module-level
    ``sstable.read_framed_block``."""
    calls = []
    original = sstable.read_framed_block

    def read_framed_block(*args, **kwargs):
        calls.append(kwargs["path"])
        return original(*args, **kwargs)

    monkeypatch.setattr(sstable, "read_framed_block", read_framed_block)
    return calls


class TestKeyFilter:
    """Each table stores a 16-bit fingerprint per key; a lookup reads a
    block only when the key's fingerprint is in that block's slice."""

    def test_fingerprints_cover_every_key_in_order(self, tmp_path):
        path = str(tmp_path / "t.sst")
        entries = build_entries(50)
        entries[7] = entry(entries[7][0], 8, op=TOMBSTONE)
        write_table(path, entries, max_seqno=50, block_records=7)
        with SSTableReader(path) as reader:
            assert reader.fingerprints.tolist() == [
                fingerprint(key) for key, _ in entries
            ]

    def test_open_never_reads_the_filter(self, tmp_path):
        path = str(tmp_path / "t.sst")
        write_table(path, build_entries(50), max_seqno=50, block_records=7)
        with SSTableReader(path) as reader:
            assert "fingerprints" not in vars(reader)
            assert reader.lookup(b"zzz") is None  # outside the key range
            assert "fingerprints" not in vars(reader)
            assert reader.lookup(b"key000010") is not None
            assert "fingerprints" in vars(reader)

    def test_block_size_comes_from_the_index(self, tmp_path):
        """10 records in 2 blocks fit block sizes 5 to 9: a reader that
        derived the size from the counts would slice the wrong
        fingerprints and call present keys absent."""
        entries = build_entries(10)
        for block_records in (5, 6, 9):
            path = str(tmp_path / f"t{block_records}.sst")
            write_table(
                path, entries, max_seqno=10, block_records=block_records
            )
            with SSTableReader(path) as reader:
                assert len(reader._offsets) == 2
                for key, meta in entries:
                    assert reader.lookup(key) == meta

    def test_absent_key_reads_no_block(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.sst")
        entries = build_entries(64)
        write_table(path, entries, max_seqno=64, block_records=8)
        reads = count_block_reads(monkeypatch)
        with SSTableReader(path) as reader:
            probes = [key + b"x" for key, _ in entries[:-1]]
            colliding = 0
            for want in probes:
                at = bisect_right([key for key, _ in entries], want) - 1
                block = entries[at - at % 8 : at - at % 8 + 8]
                colliding += fingerprint(want) in {
                    fingerprint(key) for key, _ in block
                }
                assert reader.lookup(want) is None
            assert len(reads) == colliding
            assert colliding < len(probes) // 20


class TestFilterBlockReads:
    """Data blocks read per ``get`` on a store of four tables whose key
    ranges interleave, so every table's range covers every key."""

    TABLES = 4
    KEYS = 400
    BLOCK_RECORDS = 8

    def build(self, path):
        store = Store(
            path, memory=10_000, block_records=self.BLOCK_RECORDS,
            sync=False, auto_compact=False,
        )
        for table in range(self.TABLES):
            for number in range(table, self.KEYS, self.TABLES):
                store.put(b"k%05d" % number, b"v%d" % number)
            store.flush()
        return store

    def false_positives(self, want, tables):
        """Blocks of ``tables`` (each a list of keys) that the filter
        cannot rule out for ``want``, computed from the keys alone."""
        hits = 0
        for keys in tables:
            at = bisect_right(keys, want) - 1
            if at < 0 or want > keys[-1]:
                continue
            start = at - at % self.BLOCK_RECORDS
            block = keys[start : start + self.BLOCK_RECORDS]
            hits += want not in block and fingerprint(want) in {
                fingerprint(key) for key in block
            }
        return hits

    def table_keys(self, table):
        return [
            b"k%05d" % number
            for number in range(table, self.KEYS, self.TABLES)
        ]

    def test_absent_key_in_range_reads_no_block(self, tmp_path, monkeypatch):
        store = self.build(str(tmp_path / "db"))
        try:
            assert len(store.table_names()) == self.TABLES
            tables = [self.table_keys(t) for t in range(self.TABLES)]
            probes = count_probes(monkeypatch)
            reads = count_block_reads(monkeypatch)
            clean = 0
            for number in range(self.KEYS - 1):
                want = b"k%05dx" % number
                probes.clear()
                reads.clear()
                assert store.get(want) is None
                assert len(probes) == self.TABLES
                expected = self.false_positives(want, tables)
                assert len(reads) == expected
                clean += expected == 0
            assert clean >= (self.KEYS - 1) * 0.95
        finally:
            store.close()

    def test_present_key_reads_one_block_per_table_up_to_the_hit(
        self, tmp_path, monkeypatch
    ):
        """Tables are probed newest first; the hit's table is the only
        one whose block is read, and the seqno early exit skips every
        table older than it."""
        store = self.build(str(tmp_path / "db"))
        try:
            tables = [self.table_keys(t) for t in range(self.TABLES)]
            probes = count_probes(monkeypatch)
            reads = count_block_reads(monkeypatch)
            for number in range(self.KEYS):
                want = b"k%05d" % number
                table = number % self.TABLES
                probes.clear()
                reads.clear()
                assert store.get(want) == b"v%d" % number
                assert len(probes) == self.TABLES - table
                newer = tables[table + 1 :]
                assert len(reads) == 1 + self.false_positives(want, newer)
        finally:
            store.close()

    def test_tombstone_in_newer_table_is_read(self, tmp_path, monkeypatch):
        store = self.build(str(tmp_path / "db"))
        try:
            store.delete(b"k00001")
            store.flush()
            reads = count_block_reads(monkeypatch)
            assert store.get(b"k00001") is None
            assert len(reads) == 1
            assert os.path.basename(reads[0]) == store.table_names()[-1]
        finally:
            store.close()


class TestStoreReopen:
    def test_wal_replay_is_the_normal_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, memory=1000, sync=False) as store:
            for index in range(50):
                store.put(b"k%03d" % index, b"v%d" % index)
            store.delete(b"k010")
            before = list(store.scan())
            assert store.table_names() == []  # nothing flushed
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.put(b"zz", b"new-after-reopen")
            assert store.get(b"zz") == b"new-after-reopen"

    def test_reopen_after_flushes_and_compactions(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, memory=7, fan_in=2, sync=False) as store:
            for index in range(80):
                store.put(b"k%03d" % index, b"v%d" % index)
            for index in range(0, 80, 7):
                store.delete(b"k%03d" % index)
            before = list(store.scan())
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()

    def test_seqno_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, sync=False) as store:
            store.put(b"a", b"old")
        with Store(path, sync=False) as store:
            store.put(b"a", b"new")
            assert store.get(b"a") == b"new"
        with Store(path, sync=False) as store:
            # The reopened write must shadow the first one everywhere —
            # a seqno restart would make "old" win the LWW merge.
            store.flush()
            store.compact()
            assert store.get(b"a") == b"new"

    def test_orphan_sweep(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, sync=False) as store:
            store.put(b"a", b"1")
            store.flush()
        orphan = os.path.join(path, "sst-00000099.sst")
        write_table(orphan, build_entries(3), max_seqno=3)
        tmp_file = os.path.join(path, "MANIFEST.tmp")
        with open(tmp_file, "w") as handle:
            handle.write("torn checkpoint")
        with Store(path, sync=False) as store:
            assert store.get(b"a") == b"1"
        assert not os.path.exists(orphan)
        assert not os.path.exists(tmp_file)

    def test_idle_reopens_leave_no_wal_litter(self, tmp_path):
        """Every open starts a fresh WAL; one that never receives a
        record is swept by the next open, while the non-empty WAL
        holding unflushed acknowledged writes is kept and replayed."""
        path = str(tmp_path / "db")
        with Store(path, memory=50, sync=False) as store:
            for index in range(120):
                store.put(b"k%03d" % index, b"v%d" % index)
            store.delete(b"k007")
        for _ in range(300):
            Store(path, sync=False).close()
        wals = [name for name in os.listdir(path) if name.startswith("wal-")]
        empty = [
            name for name in wals
            if os.path.getsize(os.path.join(path, name)) == 0
        ]
        assert len(empty) <= 1
        assert len(wals) - len(empty) == 1  # the unflushed tail
        with Store(path, sync=False) as store:
            for index in range(120):
                want = None if index == 7 else b"v%d" % index
                assert store.get(b"k%03d" % index) == want

    def test_older_table_version_store_refused(self, tmp_path):
        for old_version in (2, 3):
            path = str(tmp_path / f"db{old_version}")
            os.makedirs(path)
            old = {"format": "repro-store", "table_version": old_version}
            manifest = os.path.join(path, MANIFEST_NAME)
            StoreManifest.create(manifest, old).close()
            with pytest.raises(ManifestError) as refused:
                Store(path, sync=False)
            message = str(refused.value)
            assert repr(old) in message
            assert repr(Store._fingerprint()) in message
            assert "'table_version': 4" in message

    def test_checkpoint_on_busy_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Store(path, memory=2, sync=False, auto_compact=False) as store:
            for index in range(600):
                store.put(b"k%04d" % index, b"v")
        with Store(path, sync=False) as store:
            # Reopen found > CHECKPOINT_ENTRIES manifest lines and
            # rewrote them as meta + state.
            assert len(store._manifest.entries) <= 3
            assert store.count() == 600
