"""Crash and corruption behaviour of the store (ISSUE 10 fault matrix).

Three layers of adversity:

* **Seam faults** — :class:`repro.testing.faults.FaultPlan` targets the
  ``open_bytes`` seam the SSTable and WAL writers go through
  (``path_substring`` ``"sst-"`` / ``"wal-"``), injecting torn writes,
  bit flips and mid-call crashes at deterministic points.  Every case
  must fail *cleanly* (:class:`StoreError` / :class:`FaultInjected`,
  never silent corruption) and a reopen must serve every acknowledged
  write.
* **MANIFEST corruption** — the manifest is deliberately outside the
  seam (it is the recovery source of truth), so torn tails, bit flips
  and orphaned checkpoint temp files are staged by editing the file
  directly.
* **``kill -9``** — a child process applies a deterministic workload,
  acknowledging each operation on stdout; the parent SIGKILLs it at an
  arbitrary ack and reopens the directory.  The recovered state must
  equal the acked prefix of the workload, give or take the single
  in-flight operation.

Also here: the runtime R007 check — the lint rule bans ``decode`` calls
in the hot modules statically; this test instruments every text-side
:class:`StoreFormat` method and proves flush, compaction, gets and
scans never call one.
"""

import os
import signal
import struct
import subprocess
import sys
import textwrap
import zlib

import pytest

from repro.cli import main
from repro.engine.errors import ManifestError, StoreError
from repro.store import Store
from repro.store.format import PUT, StoreFormat, encode_meta
from repro.store.manifest import MANIFEST_NAME
from repro.store.sstable import SSTableReader, write_table
from repro.testing.faults import FaultInjected, FaultPlan, activate


def fill(store, count, prefix=b"k"):
    for index in range(count):
        store.put(b"%s%06d" % (prefix, index), b"v%d" % index)


# ---------------------------------------------------------------------------
# Seam faults: flush
# ---------------------------------------------------------------------------


class TestFlushFaults:
    @pytest.mark.parametrize("kind", ["raise", "short_write"])
    def test_crash_mid_table_write(self, tmp_path, kind):
        path = str(tmp_path / "db")
        store = Store(path, memory=1000, sync=False)
        try:
            fill(store, 50)
            before = list(store.scan())
            plan = FaultPlan("write", 2, kind, path_substring="sst-")
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.flush()
                assert state.fired
                assert state.leaked() == []
            # Nothing acknowledged was lost: the memtable still serves,
            # and a retry outside the fault window succeeds.
            assert list(store.scan()) == before
            assert store.flush() is not None
            assert list(store.scan()) == before
        finally:
            store.close()
        # The torn table the fault left behind is an orphan (never
        # reached the manifest) and the reopen sweeps it.
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()
        torn = [
            name
            for name in os.listdir(path)
            if name.startswith("sst-")
        ]
        assert len(torn) == 1  # only the committed flush survives

    def test_bit_flip_caught_by_read_back(self, tmp_path):
        path = str(tmp_path / "db")
        store = Store(path, memory=1000, sync=False)
        try:
            fill(store, 50)
            before = list(store.scan())
            plan = FaultPlan("write", 2, "bit_flip", path_substring="sst-")
            with activate(plan) as state:
                # The flip is silent at write time; the §11 read-back
                # verification refuses to commit the table.
                with pytest.raises(StoreError, match="read-back"):
                    store.flush()
                assert state.fired
            assert list(store.scan()) == before
            assert store.flush() is not None
        finally:
            store.close()
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before

    def test_crash_on_table_open(self, tmp_path):
        store = Store(str(tmp_path / "db"), memory=1000, sync=False)
        try:
            fill(store, 10)
            plan = FaultPlan("open", 1, "raise", path_substring="sst-")
            with activate(plan):
                with pytest.raises(FaultInjected):
                    store.flush()
            assert store.count() == 10
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Seam faults: compaction
# ---------------------------------------------------------------------------


class TestCompactionFaults:
    def build(self, path):
        store = Store(
            path, memory=10, sync=False, auto_compact=False, fan_in=2
        )
        fill(store, 60)
        for index in range(0, 60, 4):
            store.delete(b"k%06d" % index)
        store.flush()
        return store

    @pytest.mark.parametrize("kind", ["raise", "short_write"])
    def test_crash_mid_output_write(self, tmp_path, kind):
        path = str(tmp_path / "db")
        store = self.build(path)
        try:
            tables = store.table_names()
            assert len(tables) > 2
            before = list(store.scan())
            # Every sst write after activation belongs to the
            # compaction output — the flush already happened.
            plan = FaultPlan("write", 3, kind, path_substring="sst-")
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.compact()
                assert state.fired
                assert state.leaked() == []
            # All-or-nothing: every input table is still live and
            # serving; the aborted output never reached the manifest.
            assert store.table_names() == tables
            assert list(store.scan()) == before
            assert store.compact() is not None
            assert list(store.scan()) == before
        finally:
            store.close()
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            assert len(store.table_names()) == 1

    def test_bit_flip_mid_output_write(self, tmp_path):
        path = str(tmp_path / "db")
        store = self.build(path)
        try:
            tables = store.table_names()
            before = list(store.scan())
            plan = FaultPlan("write", 3, "bit_flip", path_substring="sst-")
            with activate(plan):
                with pytest.raises(StoreError, match="intact"):
                    store.compact()
            assert store.table_names() == tables
            assert list(store.scan()) == before
        finally:
            store.close()

    def test_crash_reading_an_input(self, tmp_path):
        path = str(tmp_path / "db")
        store = self.build(path)
        try:
            before = list(store.scan())
            plan = FaultPlan("read", 5, "raise", path_substring="sst-")
            with activate(plan):
                with pytest.raises(FaultInjected):
                    store.compact()
            assert list(store.scan()) == before
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Seam faults: WAL
# ---------------------------------------------------------------------------


class TestWalFaults:
    def test_torn_wal_write_keeps_prior_acks(self, tmp_path):
        path = str(tmp_path / "db")
        acked = []
        # The WAL handle is opened at construction, so the store must
        # be opened inside the fault window for the seam to wrap it.
        plan = FaultPlan("write", 8, "short_write", path_substring="wal-")
        with activate(plan) as state:
            store = Store(path, memory=1000, sync=False)
            try:
                with pytest.raises(FaultInjected):
                    for index in range(20):
                        store.put(b"k%02d" % index, b"v%d" % index)
                        acked.append(index)
                assert state.fired
            finally:
                store.close()
        assert acked  # some puts were acknowledged before the tear
        with Store(path, sync=False) as store:
            got = dict(store.scan())
            for index in acked:
                assert got[b"k%02d" % index] == b"v%d" % index
            # At most the single in-flight put may also have landed.
            assert len(got) - len(acked) in (0, 1)
            store.put(b"after", b"recovery")
            assert store.get(b"after") == b"recovery"


# ---------------------------------------------------------------------------
# MANIFEST corruption (outside the seam, staged directly)
# ---------------------------------------------------------------------------


class TestManifestFaults:
    def build(self, path):
        with Store(path, memory=10, sync=False) as store:
            fill(store, 40)
            store.flush()
            return list(store.scan())

    def manifest_path(self, path):
        return os.path.join(path, MANIFEST_NAME)

    def test_torn_append_tolerated(self, tmp_path):
        path = str(tmp_path / "db")
        before = self.build(path)
        with open(self.manifest_path(path), "a", encoding="utf-8") as f:
            f.write('{"type": "compact", "remov')  # power loss mid-append
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()

    def test_bit_flip_mid_file_is_a_clean_error(self, tmp_path):
        path = str(tmp_path / "db")
        self.build(path)
        manifest = self.manifest_path(path)
        with open(manifest, "r", encoding="utf-8") as f:
            lines = f.readlines()
        assert len(lines) >= 2
        lines[0] = '{"type": "met~' + lines[0][14:]
        with open(manifest, "w", encoding="utf-8") as f:
            f.writelines(lines)
        with pytest.raises(ManifestError):
            Store(path, sync=False)

    def test_interrupted_checkpoint_swap(self, tmp_path):
        path = str(tmp_path / "db")
        before = self.build(path)
        # A crash between writing MANIFEST.tmp and the os.replace
        # leaves the temp file next to an intact manifest: the temp is
        # garbage (maybe torn), the manifest is authoritative.
        tmp_file = os.path.join(path, "MANIFEST.tmp")
        with open(tmp_file, "w", encoding="utf-8") as f:
            f.write('{"type": "meta", "torn')
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
        assert not os.path.exists(tmp_file)

    def test_missing_manifest_refused(self, tmp_path):
        path = str(tmp_path / "db")
        self.build(path)
        os.remove(self.manifest_path(path))
        # A store directory with tables but no manifest is not an
        # empty directory — refusing beats silently re-initialising
        # over data.
        with pytest.raises(StoreError):
            Store(path, sync=False)


# ---------------------------------------------------------------------------
# Key-filter damage: a loud StoreError, never a false "absent"
# ---------------------------------------------------------------------------


_FOOTER = struct.Struct(">QII8s")
#: version, records, max seqno, codec, block records, filter offset,
#: filter count, filter CRC, block count.
_INDEX_FIXED = struct.Struct(">HQQBIQQII")


def filter_span(data):
    """``(offset, length)`` of a table's key filter, read from its
    index."""
    index_offset = _FOOTER.unpack_from(data, len(data) - _FOOTER.size)[0]
    fields = _INDEX_FIXED.unpack_from(data, index_offset)
    return fields[5], 2 * fields[6]


class TestKeyFilterCorruption:
    ENTRIES = [
        (b"k%04d" % number, encode_meta(number + 1, PUT, b"v"))
        for number in range(0, 80, 2)
    ]

    def write(self, path):
        write_table(path, self.ENTRIES, max_seqno=80, block_records=8)
        return bytearray(open(path, "rb").read())

    def test_every_flipped_bit_fails_the_first_lookup(self, tmp_path):
        path = str(tmp_path / "t.sst")
        clean = self.write(path)
        offset, length = filter_span(clean)
        assert length == 2 * len(self.ENTRIES)
        present, absent = self.ENTRIES[5][0], b"k0011"
        for bit in range(8 * length):
            data = bytearray(clean)
            data[offset + bit // 8] ^= 1 << bit % 8
            with open(path, "wb") as handle:
                handle.write(data)
            with SSTableReader(path) as reader:  # open never reads it
                for want in (absent, present, absent):
                    with pytest.raises(StoreError) as failed:
                        reader.lookup(want)
                    message = str(failed.value)
                    assert repr(path) in message
                    assert "key filter failed its checksum" in message

    def test_region_truncated_under_an_open_reader(self, tmp_path):
        path = str(tmp_path / "t.sst")
        clean = self.write(path)
        offset, length = filter_span(clean)
        with SSTableReader(path) as reader:
            os.truncate(path, offset + length - 3)
            with pytest.raises(StoreError, match="key filter is truncated"):
                reader.lookup(b"k0011")
            with pytest.raises(StoreError, match=repr(path)):
                reader.lookup(self.ENTRIES[0][0])

    @pytest.mark.parametrize("recount", [False, True])
    def test_shortened_region_refused_at_open(self, tmp_path, recount):
        """Cut the last fingerprints out and re-point the footer (and,
        with ``recount``, the filter count and CRC) so every checksum
        matches: the index no longer lines up with the table."""
        path = str(tmp_path / "t.sst")
        data = self.write(path)
        offset, length = filter_span(data)
        cut = 6
        index_offset, index_len, _, magic = _FOOTER.unpack_from(
            data, len(data) - _FOOTER.size
        )
        index = bytearray(data[index_offset : index_offset + index_len])
        if recount:
            fields = list(_INDEX_FIXED.unpack_from(index))
            fields[6] -= cut // 2
            fields[7] = zlib.crc32(
                bytes(data[offset : offset + length - cut])
            )
            _INDEX_FIXED.pack_into(index, 0, *fields)
        shortened = (
            bytes(data[: offset + length - cut]) + bytes(index)
            + _FOOTER.pack(
                index_offset - cut, index_len, zlib.crc32(index), magic
            )
        )
        with open(path, "wb") as handle:
            handle.write(shortened)
        with pytest.raises(StoreError, match="key filter does not line up"):
            SSTableReader(path)

    def test_store_get_and_verify_flag_the_damaged_table(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "db")
        with Store(path, memory=50, sync=False, auto_compact=False) as store:
            fill(store, 200)
            names = store.table_names()
        assert len(names) == 4
        damaged = os.path.join(path, names[1])
        data = bytearray(open(damaged, "rb").read())
        offset, length = filter_span(data)
        data[offset + length // 2] ^= 0x10
        with open(damaged, "wb") as handle:
            handle.write(data)
        with Store(path, sync=False) as store:
            # A get that stops before the damaged table, or whose key
            # lies outside its range, never loads its filter; every key
            # inside the range fails, present or absent.
            assert store.get(b"k000199") == b"v199"
            assert store.get(b"k000010") == b"v10"
            for want in (b"k000060", b"k000060x", b"k000050", b"k000099"):
                with pytest.raises(StoreError, match=names[1]):
                    store.get(want)
            with pytest.raises(StoreError, match=names[1]):
                store.verify()
        assert main(["store", "verify", path]) == 1
        err = capsys.readouterr().err
        assert names[1] in err

    def test_verify_catches_a_filter_that_disagrees_with_its_keys(
        self, tmp_path
    ):
        """A filter rewritten with a valid CRC but wrong contents (a
        writer bug, not disk damage) fails ``verify`` by record."""
        path = str(tmp_path / "db")
        with Store(path, memory=50, sync=False, auto_compact=False) as store:
            fill(store, 50)
            (name,) = store.table_names()
        table = os.path.join(path, name)
        data = bytearray(open(table, "rb").read())
        offset, length = filter_span(data)
        data[offset + 6] ^= 0x01  # record 3's fingerprint
        index_offset, index_len, _, magic = _FOOTER.unpack_from(
            data, len(data) - _FOOTER.size
        )
        fields = list(_INDEX_FIXED.unpack_from(data, index_offset))
        fields[7] = zlib.crc32(bytes(data[offset : offset + length]))
        _INDEX_FIXED.pack_into(data, index_offset, *fields)
        index = bytes(data[index_offset : index_offset + index_len])
        _FOOTER.pack_into(
            data, len(data) - _FOOTER.size, index_offset, index_len,
            zlib.crc32(index), magic,
        )
        with open(table, "wb") as handle:
            handle.write(data)
        with Store(path, sync=False) as store:
            # As if the manifest had recorded the bad file's CRC.
            store._tables[name]["crc32"] = zlib.crc32(bytes(data))
            with pytest.raises(StoreError, match="disagrees .* record 3"):
                store.verify()


# ---------------------------------------------------------------------------
# kill -9: a real process, a real SIGKILL, a real reopen
# ---------------------------------------------------------------------------


CHILD_SOURCE = textwrap.dedent(
    """
    import sys

    from repro.store import Store

    path = sys.argv[1]
    store = Store(path, memory=8, fan_in=2)  # flush+compact constantly
    step = 0
    while True:
        if step % 5 == 4:
            store.delete(b"k%06d" % (step - 4))
        else:
            store.put(b"k%06d" % step, b"v%d" % step)
        sys.stdout.write("ACK %d\\n" % step)
        sys.stdout.flush()
        step += 1
    """
)


def workload_state(steps):
    """The store contents after applying workload ops ``0..steps-1``."""
    state = {}
    for step in range(steps):
        if step % 5 == 4:
            state.pop(b"k%06d" % (step - 4), None)
        else:
            state[b"k%06d" % step] = b"v%d" % step
    return state


class TestKillNine:
    # 23 dies in WAL-only territory; 57 mid-flush churn; 140 after
    # several auto-compactions have rewritten the level structure.
    @pytest.mark.parametrize("kill_after", [23, 57, 140])
    def test_acked_writes_survive_sigkill(self, tmp_path, kill_after):
        path = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD_SOURCE, path],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        acked = -1
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                acked = int(line.split()[1])
                if acked + 1 >= kill_after:
                    break
        finally:
            proc.kill()  # SIGKILL: no atexit, no flush, no close
            proc.wait()
        assert acked + 1 == kill_after
        # The child keeps running until the kill lands, so acks it
        # wrote after the one that stopped the loop may still sit in
        # the pipe or the reader's buffer: the last ack it sent is the
        # last line it wrote.
        for line in proc.stdout:
            acked = int(line.split()[1])
        proc.stdout.close()
        # Every acked op is applied; at most the one in-flight op
        # beyond the last ack may additionally have reached the WAL.
        with Store(path) as store:
            got = dict(store.scan())
            assert got in (
                workload_state(acked + 1),
                workload_state(acked + 2),
            )
            summary = store.verify()
            assert summary["tables"] == len(store.table_names())
            # And the survivor is a working store, not a read-only husk.
            store.put(b"post-crash", b"ok")
            store.compact()
            assert store.get(b"post-crash") == b"ok"

    def test_sigkill_storm(self, tmp_path):
        """Kill the same directory five times in a row, then audit."""
        path = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        child = textwrap.dedent(
            """
            import sys

            from repro.store import Store

            path = sys.argv[1]
            with Store(path, memory=8, fan_in=2) as store:
                base = int(sys.argv[2])
                for step in range(base, base + 10_000):
                    store.put(b"k%06d" % step, b"v%d" % step)
                    sys.stdout.write("ACK %d\\n" % step)
                    sys.stdout.flush()
            """
        )
        acked = -1
        for round_number in range(5):
            proc = subprocess.Popen(
                [sys.executable, "-c", child, path, str(acked + 1)],
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            try:
                assert proc.stdout is not None
                for line in proc.stdout:
                    acked = int(line.split()[1])
                    if acked % 17 == 16 and acked > round_number * 20:
                        break
            finally:
                proc.kill()
                proc.wait()
        with Store(path) as store:
            got = dict(store.scan())
            for step in range(acked + 1):
                assert got.get(b"k%06d" % step) == b"v%d" % step
            store.verify()


# ---------------------------------------------------------------------------
# REPRO_FAULT_PLAN: the env relay reaches store CLI subprocesses
# ---------------------------------------------------------------------------


class TestEnvInjectedFaults:
    def test_cli_flush_bit_flip_fails_cleanly_and_recovers(self, tmp_path):
        db = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )

        def cli(*argv, fault=None, expect=0):
            run_env = dict(env)
            if fault is not None:
                run_env["REPRO_FAULT_PLAN"] = fault.to_json()
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                env=run_env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == expect, result.stderr
            return result

        for index in range(40):
            cli("store", "put", db, f"k{index:02d}", f"v{index}")
        plan = FaultPlan("write", 2, "bit_flip", path_substring="sst-")
        result = cli("store", "flush", db, fault=plan, expect=1)
        assert "read-back verification" in result.stderr
        assert "no acknowledged write was lost" in result.stderr
        # The faulted subprocess is gone; a clean one serves everything.
        result = cli("store", "get", db, "k17")
        assert result.stdout == "v17\n"
        assert cli("store", "flush", db).returncode == 0
        cli("store", "verify", db)


# ---------------------------------------------------------------------------
# R007 at runtime: the hot paths never touch a text-side method
# ---------------------------------------------------------------------------


class TestRuntimeR007:
    TEXT_METHODS = (
        "encode",
        "decode",
        "encode_block",
        "decode_block",
        "key",
        "fields",
        "project",
    )

    def test_store_lifecycle_never_decodes(self, tmp_path, monkeypatch):
        calls = []

        def bomb(name):
            def method(self, *args, **kwargs):
                calls.append(name)
                raise AssertionError(
                    f"hot path called StoreFormat.{name}"
                )

            return method

        for name in self.TEXT_METHODS:
            monkeypatch.setattr(StoreFormat, name, bomb(name))
        store = Store(
            str(tmp_path / "db"), memory=16, fan_in=2, sync=False,
            codec="zlib",
        )
        try:
            fill(store, 200)
            for index in range(0, 200, 3):
                store.delete(b"k%06d" % index)
            store.flush()
            store.compact()
            assert store.get(b"k000001") == b"v1"
            assert store.get(b"k000003") is None
            assert len(list(store.scan())) > 0
            list(store.scan(b"k000010", b"k000050"))
        finally:
            store.close()
        # Reopen replays the WAL and re-reads the manifest — also
        # decode-free (the §17 boundaries are slices, not formats).
        with Store(str(tmp_path / "db"), sync=False) as store:
            store.count()
        assert calls == []
