"""The ``repro store`` CLI surface, driven in-process (ISSUE 10).

Same idiom as ``test_ops_cli.py``: call :func:`repro.cli.main`
directly with argv and capture stdout/stderr through capsys —
subprocess spawns stay in the fault/kill tests where a real process
boundary is the point.
"""

import json
import os

import pytest

from repro.cli import main
from repro.store import Store


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "db")


class TestPutGetDelete:
    def test_round_trip(self, capsys, db):
        code, _, _ = run(capsys, ["store", "put", db, "alpha", "one"])
        assert code == 0
        code, out, _ = run(capsys, ["store", "get", db, "alpha"])
        assert code == 0
        assert out == "one\n"

    def test_get_miss_exits_2(self, capsys, db):
        run(capsys, ["store", "put", db, "alpha", "one"])
        code, out, err = run(capsys, ["store", "get", db, "missing"])
        assert code == 2
        assert out == ""
        assert "not found" in err

    def test_delete_then_miss(self, capsys, db):
        run(capsys, ["store", "put", db, "alpha", "one"])
        code, _, _ = run(capsys, ["store", "delete", db, "alpha"])
        assert code == 0
        code, _, _ = run(capsys, ["store", "get", db, "alpha"])
        assert code == 2

    def test_binary_keys_round_trip_escaped(self, capsys, db):
        key = "bin\\x00key"
        value = "tab\\there\\nand newline"
        assert run(capsys, ["store", "put", db, key, value])[0] == 0
        code, out, _ = run(capsys, ["store", "get", db, key])
        assert code == 0
        # get prints the escaped form — symmetric with how the value
        # was passed in, and safe for values containing separators.
        assert out == "tab\\there\\nand newline\n"
        # But the store really holds the raw bytes, not the escapes.
        with Store(db, sync=False) as store:
            assert store.get(b"bin\x00key") == b"tab\there\nand newline"

    def test_malformed_escape_fails_cleanly(self, capsys, db):
        code, _, err = run(capsys, ["store", "put", db, "bad\\x2", "v"])
        assert code == 1
        assert err.startswith("repro: store put failed:")


class TestScanIngest:
    def seed(self, capsys, db):
        for key, value in (("b", "2"), ("a", "1"), ("c", "3")):
            run(capsys, ["store", "put", db, key, value])

    def test_scan_is_sorted(self, capsys, db):
        self.seed(capsys, db)
        code, out, err = run(capsys, ["store", "scan", db])
        assert code == 0
        assert out == "a\t1\nb\t2\nc\t3\n"
        assert "3 item(s)" in err

    def test_scan_range(self, capsys, db):
        self.seed(capsys, db)
        code, out, _ = run(capsys, ["store", "scan", db, "--start", "b"])
        assert out == "b\t2\nc\t3\n"
        code, out, _ = run(capsys, ["store", "scan", db, "--end", "b"])
        assert out == "a\t1\n"

    def test_scan_to_file(self, capsys, db, tmp_path):
        self.seed(capsys, db)
        target = str(tmp_path / "dump.tsv")
        code, out, _ = run(capsys, ["store", "scan", db, "-o", target])
        assert code == 0
        assert out == ""
        assert open(target).read() == "a\t1\nb\t2\nc\t3\n"

    def test_ingest_oplog(self, capsys, db, tmp_path):
        oplog = tmp_path / "ops.tsv"
        oplog.write_text(
            "put\tx\t1\n"
            "put\ty\t2\n"
            "\n"
            "del\tx\n"
            "put\tz\t3\n"
        )
        code, _, err = run(capsys, ["store", "ingest", db, str(oplog)])
        assert code == 0
        assert "3 operation(s)" in err or "4 operation(s)" in err
        code, out, _ = run(capsys, ["store", "scan", db])
        assert out == "y\t2\nz\t3\n"

    def test_ingest_bad_line_names_it(self, capsys, db, tmp_path):
        oplog = tmp_path / "ops.tsv"
        oplog.write_text("put\tx\t1\nbogus line\n")
        code, _, err = run(capsys, ["store", "ingest", db, str(oplog)])
        assert code == 1
        assert "line 2" in err


class TestMaintenance:
    def test_flush_compact_verify(self, capsys, db):
        for index in range(30):
            run(
                capsys,
                [
                    "store", "put", db, f"k{index:03d}", f"v{index}",
                    "--memory", "8",
                ],
            )
        code, _, err = run(capsys, ["store", "flush", db])
        assert code == 0
        code, _, _ = run(capsys, ["store", "compact", db])
        assert code == 0
        code, out, _ = run(capsys, ["store", "verify", db])
        assert code == 0
        summary = json.loads(out)
        assert summary["table_records"] == 30
        assert summary["memtable_records"] == 0
        assert list(summary["levels"].values()) == [1]

    def test_codec_and_tuning_flags(self, capsys, db):
        args = [
            "--memory", "4", "--block-records", "4",
            "--codec", "lzma", "--fan-in", "2",
        ]
        for index in range(20):
            assert (
                run(
                    capsys,
                    ["store", "put", db, f"k{index:02d}", "v"] + args,
                )[0]
                == 0
            )
        code, out, _ = run(capsys, ["store", "scan", db] + args)
        assert code == 0
        assert len(out.splitlines()) == 20


class TestFailureModes:
    def test_lock_contention(self, capsys, db):
        with Store(db, sync=False):
            code, _, err = run(capsys, ["store", "get", db, "k"])
        assert code == 1
        assert "repro: store get failed:" in err
        assert "locked" in err

    def test_foreign_directory_refused(self, capsys, tmp_path):
        target = tmp_path / "stuff"
        target.mkdir()
        (target / "data.txt").write_text("unrelated")
        code, _, err = run(
            capsys, ["store", "put", str(target), "k", "v"]
        )
        assert code == 1
        assert "refusing" in err

    def test_corrupt_manifest_is_reported(self, capsys, db):
        run(capsys, ["store", "put", db, "k", "v"])
        manifest = os.path.join(db, "MANIFEST")
        with open(manifest, "r+", encoding="utf-8") as handle:
            data = handle.read()
            handle.seek(0)
            handle.write("garbage\n" + data)
        code, _, err = run(capsys, ["store", "get", db, "k"])
        assert code == 1
        assert "repro: store get failed:" in err
