"""Tests for the crash-safety layer (DESIGN.md §11).

Covers the building blocks — per-block checksums, the append-only
:class:`SortJournal`, completion markers — and the end-to-end contract:
a sort killed at an arbitrary point, rerun with ``resume``, produces
output byte-identical (SHA-256) to the uninterrupted run, and a
corrupted surviving artifact is detected and regenerated rather than
trusted.
"""

import json
import os
import struct

import pytest

from _helpers import sha256_file
from repro.core.records import INT, STR
from repro.engine.block_io import (
    BlockWriter,
    open_bytes,
    open_text,
    read_blocks,
    write_block_file,
)
from repro.engine.errors import CorruptBlockError, JournalError, SortError
from repro.engine.planner import SortEngine
from repro.engine.resilience import (
    JOURNAL_NAME,
    ResumableSpillSort,
    SortJournal,
    _ResumeState,
    artifact_valid,
    file_crc32,
    read_marker,
    write_marker,
)
from repro.core.config import GeneratorSpec
from repro.testing.faults import FaultInjected, FaultPlan, activate


# ---------------------------------------------------------------------------
# per-block checksums
# ---------------------------------------------------------------------------


class TestBlockChecksums:
    def write(self, path, records, fmt=INT, block=4):
        return write_block_file(str(path), records, fmt, block)

    def read(self, path, fmt=INT, block=4):
        with open_bytes(str(path)) as handle:
            return list(read_blocks(handle, fmt, block))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "blk.txt"
        count, crc = self.write(path, list(range(10)))
        assert count == 10
        assert crc == file_crc32(str(path))
        assert self.read(path) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_round_trip_str(self, tmp_path):
        path = tmp_path / "blk.txt"
        words = ["delta", "alpha", "", "  spaced  ", "zed"]
        self.write(path, words, fmt=STR, block=2)
        assert [r for b in self.read(path, fmt=STR) for r in b] == words

    def test_bit_flip_detected_with_location(self, tmp_path):
        path = tmp_path / "blk.txt"
        self.write(path, list(range(100, 120)), block=8)
        raw = path.read_bytes()
        # Corrupt three bytes inside the *second* block's payload; the
        # second block starts after the first block's 21-byte header
        # and the stored length that header declares.
        header = struct.Struct(">4sBIIII")
        first_stored = header.unpack_from(raw, 0)[4]
        second = header.size + first_stored + header.size + 1
        path.write_bytes(
            raw[:second] + bytes(b ^ 0x5A for b in raw[second : second + 3])
            + raw[second + 3 :]
        )
        with pytest.raises(CorruptBlockError) as err:
            self.read(path, block=8)
        assert err.value.path == str(path)
        assert err.value.block_index == 1
        assert err.value.offset > 0
        assert str(path) in str(err.value)
        assert "checksum mismatch" in str(err.value)

    def test_truncated_block_detected(self, tmp_path):
        path = tmp_path / "blk.txt"
        self.write(path, list(range(8)), block=4)
        path.write_bytes(path.read_bytes()[:-4])  # tear the last block
        with pytest.raises(CorruptBlockError) as err:
            self.read(path)
        assert "truncated" in str(err.value)

    def test_missing_header_detected(self, tmp_path):
        path = tmp_path / "blk.txt"
        path.write_text("1\n2\n3\n")  # plain file, no headers
        with pytest.raises(CorruptBlockError) as err:
            self.read(path)
        assert err.value.block_index == 0
        assert "header" in str(err.value)

    def test_unchecksummed_reader_still_works(self, tmp_path):
        # Plain-line files (codec=None) are user data: no CRC to check.
        path = tmp_path / "blk.txt"
        write_block_file(str(path), list(range(6)), INT, 4, codec=None)
        assert path.read_text() == "".join(f"{i}\n" for i in range(6))
        with open_text(str(path)) as handle:
            blocks = list(read_blocks(handle, INT, 4, codec=None))
        assert [r for b in blocks for r in b] == list(range(6))

    def test_writer_tracks_file_crc(self, tmp_path):
        path = tmp_path / "crc.txt"
        with open_bytes(str(path), "w") as handle:
            writer = BlockWriter(handle, INT, 3)
            writer.write_all(range(10))
            writer.flush()
        assert writer.file_crc == file_crc32(str(path))


# ---------------------------------------------------------------------------
# journal and markers
# ---------------------------------------------------------------------------


FINGERPRINT = {"mode": "test", "memory": 8}


class TestSortJournal:
    def test_append_and_resume(self, tmp_path):
        work = str(tmp_path)
        with SortJournal.open_dir(work, FINGERPRINT, resume=False) as journal:
            journal.append({"type": "run", "id": 0, "file": "r0",
                            "records": 3, "crc32": 1})
        with SortJournal.open_dir(work, FINGERPRINT, resume=True) as journal:
            assert [e["type"] for e in journal.entries] == ["meta", "run"]

    def test_fingerprint_mismatch_wipes_directory(self, tmp_path):
        work = str(tmp_path)
        SortJournal.open_dir(work, FINGERPRINT, resume=False).close()
        (tmp_path / "stale-run.txt").write_text("1\n")
        journal = SortJournal.open_dir(
            work, {"mode": "test", "memory": 9}, resume=True
        )
        journal.close()
        assert not (tmp_path / "stale-run.txt").exists()
        assert [e["type"] for e in journal.entries] == ["meta"]

    def test_torn_trailing_line_tolerated(self, tmp_path):
        work = str(tmp_path)
        with SortJournal.open_dir(work, FINGERPRINT, resume=False) as journal:
            journal.append({"type": "run", "id": 0, "file": "r0",
                            "records": 3, "crc32": 1})
        with open(tmp_path / JOURNAL_NAME, "a", encoding="utf-8") as handle:
            handle.write('{"type": "run", "id": 1, "fi')  # crash mid-append
        with SortJournal.open_dir(work, FINGERPRINT, resume=True) as journal:
            assert len(journal.entries) == 2  # torn line dropped

    def test_append_after_torn_line_repairs_the_tail(self, tmp_path):
        # Without tail repair, the first append of a resumed attempt
        # fuses with the torn line into one unparseable mid-file entry,
        # and the *next* resume rejects the whole journal.
        work = str(tmp_path)
        with SortJournal.open_dir(work, FINGERPRINT, resume=False) as journal:
            journal.append({"type": "run", "id": 0, "file": "r0",
                            "records": 3, "crc32": 1})
        with open(tmp_path / JOURNAL_NAME, "a", encoding="utf-8") as handle:
            handle.write('{"type": "run", "id": 1, "fi')  # crash mid-append
        with SortJournal.open_dir(work, FINGERPRINT, resume=True) as journal:
            journal.append({"type": "run", "id": 1, "file": "r1",
                            "records": 4, "crc32": 2})
        with SortJournal.open_dir(work, FINGERPRINT, resume=True) as journal:
            assert [e["type"] for e in journal.entries] == [
                "meta", "run", "run",
            ]
            assert journal.runs()[1]["records"] == 4

    def test_damaged_final_line_dropped_and_cut_off(self, tmp_path):
        # A final line that is complete but not an entry object is
        # treated like a torn append: dropped on load and cut off
        # before the next append, so it never ends up mid-file.
        work = str(tmp_path)
        SortJournal.open_dir(work, FINGERPRINT, resume=False).close()
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(b"[1]\n")
        with SortJournal.open_dir(work, FINGERPRINT, resume=True) as journal:
            assert [e["type"] for e in journal.entries] == ["meta"]
            journal.append({"type": "run", "id": 0, "file": "r0",
                            "records": 3, "crc32": 1})
        with SortJournal.open_dir(work, FINGERPRINT, resume=True) as journal:
            assert [e["type"] for e in journal.entries] == ["meta", "run"]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: b"garbage{{{",
            lambda line: b"[1]",  # valid JSON, but not an entry object
            lambda line: line[:10] + b"\xff" + line[11:],  # not UTF-8
        ],
        ids=["garbage", "non-object", "non-utf8"],
    )
    def test_mid_file_corruption_rejected(self, tmp_path, damage):
        work = str(tmp_path)
        with SortJournal.open_dir(work, FINGERPRINT, resume=False) as journal:
            journal.append({"type": "runs_done", "runs": 0, "records": 0})
        lines = (tmp_path / JOURNAL_NAME).read_bytes().splitlines()
        lines[0] = damage(lines[0])
        (tmp_path / JOURNAL_NAME).write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalError):
            SortJournal._load(str(tmp_path / JOURNAL_NAME))
        # open_dir recovers by starting fresh instead of crashing.
        journal = SortJournal.open_dir(work, FINGERPRINT, resume=True)
        journal.close()
        assert [e["type"] for e in journal.entries] == ["meta"]

    def test_refuses_to_wipe_foreign_directory(self, tmp_path):
        (tmp_path / "precious.txt").write_text("user data\n")
        with pytest.raises(JournalError):
            SortJournal.open_dir(str(tmp_path), FINGERPRINT, resume=False)
        assert (tmp_path / "precious.txt").read_text() == "user data\n"

    def test_valid_runs_requires_surviving_file(self, tmp_path):
        work = str(tmp_path)
        path = tmp_path / "run-000000.txt"
        with SortJournal.open_dir(work, FINGERPRINT, resume=False) as journal:
            # Written after open_dir: a fresh journal wipes the directory.
            _, crc = write_block_file(str(path), [1, 2, 3], INT, 4)
            journal.append({"type": "run", "id": 0, "file": path.name,
                            "records": 3, "crc32": crc})
            journal.append({"type": "run", "id": 1, "file": "gone.txt",
                            "records": 3, "crc32": 0})
            state = _ResumeState(journal, work)
            assert state.run_available(0)
            assert not state.run_available(1)
            path.write_text("9\n9\n9\n")  # corrupt the survivor
            assert not _ResumeState(journal, work).run_available(0)


class TestMarkers:
    def test_round_trip_and_validation(self, tmp_path):
        data = tmp_path / "shard.sorted"
        _, crc = write_block_file(str(data), [1, 2], INT, 4)
        marker = str(data) + ".ok"
        write_marker(marker, {"records": 2, "crc32": crc})
        assert read_marker(marker) == {"records": 2, "crc32": crc}
        assert artifact_valid(str(data), crc)
        data.write_text("tampered\n")
        assert not artifact_valid(str(data), crc)

    def test_unreadable_marker_is_none(self, tmp_path):
        path = tmp_path / "m.ok"
        assert read_marker(str(path)) is None
        path.write_text("{not json")
        assert read_marker(str(path)) is None
        path.write_text(json.dumps([1, 2]))
        assert read_marker(str(path)) is None


# ---------------------------------------------------------------------------
# resumable serial sort
# ---------------------------------------------------------------------------


def make_sorter(work, **kwargs):
    defaults = dict(
        memory=16, work_dir=str(work), fan_in=3, buffer_records=8,
    )
    defaults.update(kwargs)
    return ResumableSpillSort(**defaults)


DATA = [((i * 7919) % 400) - 200 for i in range(300)]


class TestResumableSpillSort:
    def test_sorts_and_cleans_up_on_success(self, tmp_path):
        work = tmp_path / "wd"
        sorter = make_sorter(work)
        assert list(sorter.sort(iter(DATA))) == sorted(DATA)
        assert not work.exists()
        assert sorter.report.algorithm == "CKPT"
        assert sorter.report.records == len(DATA)
        assert sorter.merge_passes >= 2  # 19 runs through fan-in 3

    def test_failure_keeps_work_dir_and_resume_finishes(self, tmp_path):
        work = tmp_path / "wd"
        plan = FaultPlan(op="write", nth=10, kind="raise", path_substring="run-")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        assert work.is_dir()
        journaled = [p for p in os.listdir(work) if p.startswith("run-")]
        assert journaled  # completed runs survived
        resumed = make_sorter(work, resume=True)
        assert list(resumed.sort(iter(DATA))) == sorted(DATA)
        assert resumed.runs_reused >= 1
        assert not work.exists()

    def test_work_dir_from_before_rblc_framing_sorted_fresh(self, tmp_path):
        """A work dir journaled under the old fingerprint (a
        ``checksum`` flag, no ``framing``) holds runs in a retired
        framing: resume must wipe it and sort fresh, not reuse it."""
        work = tmp_path / "wd"
        plan = FaultPlan(op="write", nth=10, kind="raise", path_substring="run-")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        journal_path = work / JOURNAL_NAME
        entries = [json.loads(line) for line in
                   journal_path.read_text().splitlines()]
        fingerprint = entries[0]["fingerprint"]
        assert fingerprint.pop("framing") == "rblc"
        fingerprint["checksum"] = False
        journal_path.write_text(
            "".join(json.dumps(entry) + "\n" for entry in entries)
        )
        stale = [p for p in os.listdir(work) if p.startswith("run-")]
        assert stale
        resumed = make_sorter(work, resume=True)
        assert list(resumed.sort(iter(DATA))) == sorted(DATA)
        assert resumed.runs_reused == 0
        assert resumed.merges_reused == 0
        assert not work.exists()

    @pytest.mark.parametrize("journaled_encoding", ["text", "int64"])
    def test_work_dir_with_text_int_bodies_sorted_fresh(
        self, tmp_path, journaled_encoding
    ):
        """A work dir journaled before int runs got int64 bodies
        (``"encoding": "text"``) must be wiped and sorted fresh; the
        control, journaled under today's ``"int64"``, resumes."""
        work = tmp_path / "wd"
        plan = FaultPlan(op="write", nth=10, kind="raise", path_substring="run-")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        journal_path = work / JOURNAL_NAME
        entries = [json.loads(line) for line in
                   journal_path.read_text().splitlines()]
        fingerprint = entries[0]["fingerprint"]
        assert fingerprint["encoding"] == "int64"
        fingerprint["encoding"] = journaled_encoding
        journal_path.write_text(
            "".join(json.dumps(entry) + "\n" for entry in entries)
        )
        assert [p for p in os.listdir(work) if p.startswith("run-")]
        resumed = make_sorter(work, resume=True)
        assert list(resumed.sort(iter(DATA))) == sorted(DATA)
        if journaled_encoding == "text":
            assert resumed.runs_reused == 0
        else:
            assert resumed.runs_reused > 0
        assert resumed.merges_reused == 0
        assert not work.exists()

    def test_resume_skips_input_when_generation_finished(self, tmp_path):
        work = tmp_path / "wd"
        plan = FaultPlan(op="write", nth=1, kind="short_write",
                         path_substring="merge-")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        resumed = make_sorter(work, resume=True)

        def explode():
            raise AssertionError("input must not be read on mid-merge resume")
            yield  # pragma: no cover

        assert list(resumed.sort(explode())) == sorted(DATA)
        assert resumed.runs_reused == 19  # ceil(300 / 16)

    def test_runs_consumed_by_surviving_merges_not_regenerated(self, tmp_path):
        # A crash during the *final* merge leaves most generation runs
        # deleted (consumed by journaled intermediate merges).  Resume
        # must treat them as done — transitively through merge levels —
        # not re-sort their chunks only to throw the files away.
        work = tmp_path / "wd"
        # 300 records / memory 16 -> 19 runs -> passes 19 -> 7 -> 3;
        # merge-000007 is only ever read by the final streamed merge.
        plan = FaultPlan(op="read", nth=1, kind="raise",
                         path_substring="merge-000007")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        resumed = make_sorter(work, resume=True)

        def explode():
            raise AssertionError("input must not be read — all runs are "
                                 "covered by surviving merges")
            yield  # pragma: no cover

        assert list(resumed.sort(explode())) == sorted(DATA)
        assert resumed.runs_reused == 19
        assert resumed.merges_reused == 8  # 6 first-pass + 2 second-pass

    def test_corrupt_surviving_run_is_regenerated(self, tmp_path):
        work = tmp_path / "wd"
        # Each 16-record run is 4 writes (2 headers + 2 payload blocks);
        # write #30 dies in run 7, leaving runs 0-6 journaled.
        plan = FaultPlan(op="write", nth=30, kind="raise", path_substring="run-")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        victim = os.path.join(work, "run-000002.txt")
        with open(victim, "r+", encoding="utf-8") as handle:
            handle.seek(0)
            handle.write("X")
        resumed = make_sorter(work, resume=True)
        assert list(resumed.sort(iter(DATA))) == sorted(DATA)

    def test_incompatible_journal_starts_fresh(self, tmp_path):
        work = tmp_path / "wd"
        plan = FaultPlan(op="write", nth=5, kind="raise", path_substring="run-")
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(make_sorter(work).sort(iter(DATA)))
        resumed = make_sorter(work, resume=True, memory=32)  # changed budget
        assert list(resumed.sort(iter(DATA))) == sorted(DATA)
        assert resumed.runs_reused == 0

    def test_abandoned_stream_keeps_work_dir(self, tmp_path):
        work = tmp_path / "wd"
        stream = make_sorter(work).sort(iter(DATA))
        assert next(stream) == min(DATA)
        stream.close()
        assert work.is_dir()

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            make_sorter(tmp_path / "wd", memory=0)
        with pytest.raises(ValueError):
            make_sorter(tmp_path / "wd", fan_in=1)
        with pytest.raises(ValueError):
            make_sorter(tmp_path / "wd", reading="bogus")


# ---------------------------------------------------------------------------
# engine + CLI integration
# ---------------------------------------------------------------------------


class TestEngineResilience:
    def test_resume_requires_work_dir(self):
        engine = SortEngine(GeneratorSpec(algorithm="rs", memory=16))
        with pytest.raises(ValueError):
            next(engine.sort(iter([3, 1, 2]), resume=True))

    def test_durable_engine_sort_round_trip(self, tmp_path):
        engine = SortEngine(
            GeneratorSpec(algorithm="rs", memory=16),
            work_dir=str(tmp_path / "wd"),
        )
        assert list(engine.sort(iter(DATA))) == sorted(DATA)
        assert engine.plan.mode == "spill"
        assert engine.report.algorithm == "CKPT"
        assert not (tmp_path / "wd").exists()

    def test_tiny_durable_input_sorts_in_memory(self, tmp_path):
        engine = SortEngine(
            GeneratorSpec(algorithm="rs", memory=64),
            work_dir=str(tmp_path / "wd"),
        )
        assert list(engine.sort(iter([3, 1, 2]), resume=True)) == [1, 2, 3]
        assert engine.plan.mode == "in_memory"


class TestCliResilience:
    def write_input(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{v}\n" for v in DATA))
        return path

    def test_resume_requires_real_input(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sort", "--resume", "-", "-o", "out.txt"])

    def test_resume_requires_output_or_work_dir(self, tmp_path):
        from repro.cli import main

        path = self.write_input(tmp_path)
        with pytest.raises(SystemExit):
            main(["sort", "--resume", str(path)])

    def test_faulted_cli_sort_resumes_byte_identical(self, tmp_path):
        from repro.cli import main

        path = self.write_input(tmp_path)
        ref = tmp_path / "ref.txt"
        assert main(["sort", "--memory", "16", str(path), "-o", str(ref)]) == 0
        out = tmp_path / "out.txt"
        argv = ["sort", "--memory", "16", "--resume", "--checksum",
                str(path), "-o", str(out)]
        plan = FaultPlan(op="write", nth=12, kind="raise",
                         path_substring="run-")
        with activate(plan):
            assert main(argv) == 1
        assert (tmp_path / "out.txt.sortwork").is_dir()
        assert main(argv) == 0
        assert sha256_file(out) == sha256_file(ref)
        assert not (tmp_path / "out.txt.sortwork").exists()

    def test_corruption_reported_with_location(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_input(tmp_path)
        out = tmp_path / "out.txt"
        argv = ["sort", "--memory", "16", "--resume", "--checksum",
                str(path), "-o", str(out)]
        plan = FaultPlan(op="write", nth=6, kind="bit_flip",
                         path_substring="run-")
        with activate(plan):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert "corrupt spill block" in err
        assert "block #" in err
        assert "byte offset" in err
        # The flipped run fails journal verification and is rebuilt.
        ref = tmp_path / "ref.txt"
        assert main(["sort", "--memory", "16", str(path), "-o", str(ref)]) == 0
        assert main(argv) == 0
        assert sha256_file(out) == sha256_file(ref)

    def test_no_resume_hint_for_foreign_work_dir(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_input(tmp_path)
        foreign = tmp_path / "mydata"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("user data\n")
        code = main(["sort", "--memory", "16", "--resume",
                     "--work-dir", str(foreign),
                     str(path), "-o", str(tmp_path / "out.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "refusing to wipe" in err
        # No journal was ever created there: nothing to resume from.
        assert "rerun with --resume" not in err
        assert (foreign / "precious.txt").exists()

    def test_sort_error_is_clean_not_traceback(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_input(tmp_path)
        plan = FaultPlan(op="write", nth=1, kind="raise")
        with activate(plan):
            code = main(["sort", "--memory", "16", str(path),
                         "-o", str(tmp_path / "out.txt")])
        assert code == 1
        assert "repro: sort failed" in capsys.readouterr().err

    def test_missing_input_file_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["sort", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "repro: sort failed" in capsys.readouterr().err


def test_corrupt_block_error_pickles_across_processes():
    # A worker that hits corruption must be able to ship the exception
    # back through the multiprocessing pool; a bad reduce kills the
    # pool's result handler and hangs the parent forever.
    import pickle

    error = CorruptBlockError("/tmp/run-0.txt", 3, 128, "checksum mismatch")
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.path, clone.block_index, clone.offset) == (
        "/tmp/run-0.txt", 3, 128,
    )
    assert str(clone) == str(error)


def test_fault_injected_is_both_sort_and_os_error():
    error = FaultInjected("boom")
    assert isinstance(error, SortError)
    assert isinstance(error, OSError)
