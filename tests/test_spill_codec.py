"""Compressed spill blocks (DESIGN.md §15).

Codec-layer units (compress/decompress round-trips), the RBLC block
framing through ``BlockWriter`` / ``read_blocks`` including every
corruption class and the retired wire ids, the raw-vs-on-disk byte
accounting that feeds ``SortReport``, the codec key in both resume
fingerprints, the planner's codec row (``auto`` is ``none``), and
``--spill-codec auto`` output against ``none`` through the CLI.
"""

import random
import struct

import pytest

from repro.core.config import GeneratorSpec
from repro.cli import main
from repro.core.records import INT, STR, resolve_format
from repro.engine.block_io import (
    BLOCK_MAGIC,
    BlockWriter,
    iter_records,
    open_run,
    read_blocks,
    write_block_file,
    write_sequence,
)
from repro.engine.errors import CorruptBlockError
from repro.engine.planner import SortEngine, plan_sort
from repro.engine.report import SortReport
from repro.engine.resilience import ResumableSpillSort, SortJournal
from repro.engine.spill_codec import (
    AUTO_CODEC,
    SPILL_CODECS,
    SpillCodecError,
    compress_body,
    decompress_body,
    validate_codec,
)
from repro.ops.base import report_from_sort
from repro.sort.parallel import PartitionedSort
from repro.sort.spill import FileSpillSort

REAL_CODECS = [c for c in SPILL_CODECS if c != "none"]

_HEADER_SIZE = struct.calcsize(">4sBIIII")


# ---------------------------------------------------------------------------
# codec primitives
# ---------------------------------------------------------------------------


class TestValidateCodec:
    def test_accepts_every_registered_codec(self):
        for codec in SPILL_CODECS:
            assert validate_codec(codec) == codec

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_codec("snappy")

    def test_auto_resolves_to_none(self):
        assert validate_codec(AUTO_CODEC) == "none"

    def test_retired_front_codecs_are_unknown(self):
        for codec in ("front", "front+zlib"):
            with pytest.raises(ValueError, match="unknown spill codec"):
                validate_codec(codec)


class TestCompressBody:
    BODY = b"".join(f"{i:08d}\n".encode() for i in range(2000))

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_round_trip(self, codec):
        stored = compress_body(codec, self.BODY)
        raw = decompress_body(codec, stored, len(self.BODY))
        assert raw == self.BODY

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_byte_compressors_shrink(self, codec):
        stored = compress_body(codec, self.BODY)
        assert len(stored) < len(self.BODY) // 2

    def test_corrupt_zlib_stream_raises_codec_error(self):
        stored = bytearray(compress_body("zlib", self.BODY))
        stored[4] ^= 0xFF
        with pytest.raises(SpillCodecError):
            decompress_body("zlib", bytes(stored), len(self.BODY))

    def test_raw_length_mismatch_raises(self):
        stored = compress_body("zlib", self.BODY)
        with pytest.raises(SpillCodecError):
            decompress_body("zlib", stored, len(self.BODY) + 1)

    def test_real_codec_ordering_none_zlib_lzma(self):
        # On text bodies lzma beats zlib beats none on ratio (DESIGN.md
        # §15), which is why the planner leaves lzma to explicit opt-in:
        # the better ratio costs CPU.
        rng = random.Random(77)
        cities = ["Barcelona", "Tarragona", "Girona", "Lleida", "Manresa"]
        body = "".join(
            f"customer-{rng.choice(cities)}-{rng.randint(1, 999)}\n"
            for _ in range(4_000)
        ).encode()
        zlib_size = len(compress_body("zlib", body))
        lzma_size = len(compress_body("lzma", body))
        assert lzma_size < zlib_size < len(body)


# ---------------------------------------------------------------------------
# RBLC framing through BlockWriter / read_blocks
# ---------------------------------------------------------------------------


def roundtrip(tmp_path, fmt, records, codec, block_records=64):
    path = str(tmp_path / f"run-{codec}.dat")
    write_sequence(path, records, fmt, block_records, codec=codec)
    with open_run(path, "r", codec) as handle:
        return path, list(
            iter_records(handle, fmt, block_records, codec=codec)
        )


class TestCompressedBlockIO:
    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_text_round_trip(self, tmp_path, codec):
        records = [(i * 7919) % 4001 for i in range(1000)]
        _, out = roundtrip(tmp_path, INT, records, codec)
        assert out == records

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_binary_round_trip(self, tmp_path, codec):
        fmt = resolve_format("csv", key=0)  # key-byte records
        records = [fmt.decode(str((i * 613) % 997)) for i in range(1000)]
        _, out = roundtrip(tmp_path, fmt, records, codec)
        assert out == records

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_csv_round_trip(self, tmp_path, codec):
        fmt = resolve_format("csv", key=1)
        records = [fmt.decode(f"r{i},{i % 13},x") for i in range(300)]
        _, out = roundtrip(tmp_path, fmt, records, codec)
        assert out == records

    def test_mixed_codec_read_is_corrupt_not_garbage(self, tmp_path):
        path, _ = roundtrip(tmp_path, INT, list(range(100)), "zlib")
        with open_run(path, "r", "lzma") as handle:
            with pytest.raises(CorruptBlockError) as info:
                list(read_blocks(handle, INT, 64, codec="lzma"))
        assert info.value.path == path
        assert "codec" in str(info.value)

    def test_plain_reader_on_compressed_file_fails_loudly(self, tmp_path):
        path, _ = roundtrip(tmp_path, INT, list(range(100)), "zlib")
        with open_run(path, "r") as handle:
            with pytest.raises(CorruptBlockError):
                list(iter_records(handle, INT, 64))


class TestCompressedCorruption:
    def corrupt(self, tmp_path, codec, mutate):
        records = [(i * 17) % 301 for i in range(500)]
        path = str(tmp_path / "run-corrupt.dat")
        write_sequence(path, records, INT, 64, codec=codec)
        data = bytearray(open(path, "rb").read())
        mutate(data)
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with open_run(path, "r", codec) as handle:
            with pytest.raises(CorruptBlockError) as info:
                list(read_blocks(handle, INT, 64, codec=codec))
        return path, info.value

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_bit_flip_in_body_names_file_block_offset(self, tmp_path, codec):
        def flip(data):
            data[_HEADER_SIZE + 3] ^= 0x10  # inside block 0's stored body

        path, err = self.corrupt(tmp_path, codec, flip)
        assert err.path == path
        assert err.block_index == 0
        assert err.offset == 0

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_bit_flip_in_later_block(self, tmp_path, codec):
        def flip(data):
            # Past block 0: stored_len lives at bytes 13..17 of the
            # header (>4sBIIII: magic, codec, count, raw, stored, crc).
            stored0 = struct.unpack(">I", data[13:17])[0]
            data[_HEADER_SIZE + stored0 + _HEADER_SIZE + 1] ^= 0x01

        path, err = self.corrupt(tmp_path, codec, flip)
        assert err.block_index == 1
        assert err.offset > 0

    def test_truncated_stored_body(self, tmp_path):
        path, err = self.corrupt(
            tmp_path, "zlib", lambda data: data.__delitem__(
                slice(len(data) - 5, len(data))
            )
        )
        assert "truncated" in err.reason

    def test_truncated_header(self, tmp_path):
        def chop(data):
            del data[len(data) - (_HEADER_SIZE + 40) + 6:]

        _, err = self.corrupt(tmp_path, "zlib", chop)
        assert "header" in err.reason

    def test_bad_magic(self, tmp_path):
        def stomp(data):
            data[0:4] = b"XXXX"

        _, err = self.corrupt(tmp_path, "lzma", stomp)
        assert err.block_index == 0

    @pytest.mark.parametrize(
        "fmt, records, written, retired",
        [
            (STR, [str(i) for i in range(100)], 0x00, 3),
            (INT, list(range(100)), 0x80, 0x80 | 4),
        ],
        ids=["text-id-3", "int64-id-4"],
    )
    def test_retired_front_ids_are_unknown(self, tmp_path, fmt, records,
                                           written, retired):
        """Ids 3 and 4 (the deleted front coders) fail as unknown ids
        naming the file, block and offset, with or without the int64
        body flag."""
        path = str(tmp_path / "retired.dat")
        write_sequence(path, records, fmt, 64, codec="none")
        data = bytearray(open(path, "rb").read())
        stored0 = struct.unpack(">I", data[13:17])[0]
        second = _HEADER_SIZE + stored0
        assert data[4] == data[second + 4] == written
        data[second + 4] = retired
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with open_run(path, "r", "none") as handle:
            with pytest.raises(CorruptBlockError) as info:
                list(read_blocks(handle, fmt, 64, codec="none"))
        err = info.value
        assert (err.path, err.block_index, err.offset) == (path, 1, second)
        assert f"unknown id {retired & 0x7F}" in err.reason

    def test_magic_constant_is_distinct_from_binary_framing(self):
        # b"RBLK" led the retired uncompressed binary framing: run
        # files left by older builds must fail on magic, not misparse.
        assert BLOCK_MAGIC == b"RBLC"
        assert BLOCK_MAGIC != b"RBLK"


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------


class _Session:
    def __init__(self):
        self.raw = 0
        self.disk = 0

    def spilled(self, raw_bytes, disk_bytes):
        self.raw += raw_bytes
        self.disk += disk_bytes


class TestByteAccounting:
    RECORDS = [(i * 7) % 1000 for i in range(3000)]

    def test_none_codec_disk_is_raw_plus_headers(self, tmp_path):
        session = _Session()
        path = str(tmp_path / "plain.txt")
        write_sequence(path, self.RECORDS, INT, 256, session=session)
        import os

        blocks = -(-len(self.RECORDS) // 256)
        assert session.disk == os.path.getsize(path)
        assert session.disk - session.raw == _HEADER_SIZE * blocks

    @pytest.mark.parametrize("codec", REAL_CODECS)
    def test_compressed_disk_below_raw(self, tmp_path, codec):
        session = _Session()
        path = str(tmp_path / "packed.dat")
        write_sequence(
            path, sorted(self.RECORDS), INT, 256, codec=codec,
            session=session,
        )
        import os

        assert session.disk == os.path.getsize(path)
        assert session.disk < session.raw

    def test_raw_is_codec_invariant(self, tmp_path):
        """raw counts what codec=none would write, so ratios compare
        like against like."""
        sizes = {}
        for codec in SPILL_CODECS:
            session = _Session()
            write_sequence(
                str(tmp_path / f"{codec}.dat"),
                self.RECORDS, INT, 256, codec=codec, session=session,
            )
            sizes[codec] = session.raw
        assert len(set(sizes.values())) == 1

    def test_write_block_file_reports_to_session(self, tmp_path):
        session = _Session()
        count, _ = write_block_file(
            str(tmp_path / "f.dat"), self.RECORDS, INT, 256,
            codec="zlib", session=session,
        )
        assert count == len(self.RECORDS)
        assert 0 < session.disk < session.raw

    def test_blockwriter_counters(self, tmp_path):
        path = str(tmp_path / "w.dat")
        with open_run(path, "w", "zlib") as handle:
            writer = BlockWriter(handle, INT, 128, codec="zlib")
            writer.write_all(iter(self.RECORDS))
            writer.flush()
        import os

        assert writer.disk_bytes == os.path.getsize(path)
        assert writer.raw_bytes > writer.disk_bytes


# ---------------------------------------------------------------------------
# engine + report + fingerprints
# ---------------------------------------------------------------------------


class TestEngineSpillCodecs:
    DATA = [((i * 613) % 5000) for i in range(4000)]

    @pytest.mark.parametrize("codec", SPILL_CODECS)
    def test_spilling_sort_identical_output(self, codec):
        engine = SortEngine(
            GeneratorSpec("lss", 256), fan_in=4, buffer_records=64,
            block_records=64, spill_codec=codec,
        )
        assert list(engine.sort(iter(self.DATA))) == sorted(self.DATA)
        report = engine.report
        assert report.spill_disk_bytes > 0
        if codec != "none":
            assert report.spill_disk_bytes < report.spill_raw_bytes

    def test_auto_codec_resolves_and_sorts(self):
        engine = SortEngine(
            GeneratorSpec("lss", 256), fan_in=4, buffer_records=64,
            block_records=64, spill_codec=AUTO_CODEC,
        )
        assert engine.spill_codec == "none"
        assert list(engine.sort(iter(self.DATA))) == sorted(self.DATA)

    def test_in_memory_sort_reports_no_spill(self):
        engine = SortEngine(
            GeneratorSpec("lss", 100_000), spill_codec="zlib",
        )
        out = list(engine.sort(iter(self.DATA)))
        assert out == sorted(self.DATA)

    def test_report_summary_line(self):
        report = SortReport(
            algorithm="LSS", records=10,
            spill_raw_bytes=1000, spill_disk_bytes=400,
        )
        assert "spilled bytes raw=1000  on_disk=400  ratio=2.50" in (
            report.summary()
        )

    def test_simulated_report_has_no_spill_line(self):
        assert "spilled" not in SortReport(
            algorithm="LSS", records=10
        ).summary()

    def test_operator_report_carries_spill_bytes(self):
        base = SortReport(
            algorithm="LSS", records=10,
            spill_raw_bytes=900, spill_disk_bytes=300,
        )
        op = report_from_sort("distinct", base, rows_in=10, rows_out=9)
        assert op.spill_raw_bytes == 900
        assert op.spill_disk_bytes == 300
        assert op.spill_ratio == 3.0


class TestResumeFingerprints:
    def test_codec_in_serial_fingerprint(self, tmp_path):
        def fp(codec):
            return ResumableSpillSort(
                memory=32, work_dir=str(tmp_path / codec),
                spill_codec=codec,
            ).fingerprint()

        assert fp("zlib")["codec"] == "zlib"
        assert fp("zlib") != fp("lzma")

    def test_codec_in_parallel_fingerprint(self, tmp_path):
        sorter = PartitionedSort(
            GeneratorSpec("rs", 64), workers=2, spill_codec="lzma",
            work_dir=str(tmp_path / "w"),
        )
        assert sorter._fingerprint()["codec"] == "lzma"

    def test_mixed_codec_work_dir_is_wiped(self, tmp_path):
        """--resume must not merge runs written under another codec:
        a codec change invalidates the journal and starts fresh."""
        work = str(tmp_path)
        fp_zlib = ResumableSpillSort(
            memory=32, work_dir=work, spill_codec="zlib"
        ).fingerprint()
        fp_lzma = ResumableSpillSort(
            memory=32, work_dir=work, spill_codec="lzma"
        ).fingerprint()
        SortJournal.open_dir(work, fp_zlib, resume=False).close()
        stale = tmp_path / "run-000.txt"
        stale.write_text("stale zlib run\n")
        journal = SortJournal.open_dir(work, fp_lzma, resume=True)
        journal.close()
        assert not stale.exists()
        assert [e["type"] for e in journal.entries] == ["meta"]


# ---------------------------------------------------------------------------
# planner codec row
# ---------------------------------------------------------------------------


class TestPlannerCodecRow:
    def test_explicit_codec_passes_through(self):
        for codec in SPILL_CODECS:
            plan = plan_sort(memory=100, input_records=5000, codec=codec)
            assert plan.codec == codec

    def test_auto_single_pass_picks_none(self):
        for records in (101, 500, 1000):
            plan = plan_sort(memory=100, input_records=records,
                             codec=AUTO_CODEC)
            assert plan.mode == "spill"
            assert plan.codec == "none"

    def test_auto_multi_pass_or_unknown_picks_none(self):
        for records in (None, 5000, 10_000_000):
            plan = plan_sort(memory=100, input_records=records,
                             codec=AUTO_CODEC)
            assert plan.mode == "spill"
            assert plan.codec == "none"

    def test_lzma_never_chosen_automatically(self):
        for records in (None, 10, 10_000, 10_000_000):
            for memory in (1, 100, 100_000):
                plan = plan_sort(memory=memory, input_records=records,
                                 codec=AUTO_CODEC)
                assert plan.codec != "lzma"

    def test_plan_in_memory_has_no_codec(self):
        plan = plan_sort(memory=1000, input_records=10, codec=AUTO_CODEC)
        assert plan.mode == "in_memory"
        assert plan.codec is None

    def test_plan_spill_resolves_auto(self):
        plan = plan_sort(memory=100, input_records=50_000, codec=AUTO_CODEC)
        assert plan.mode == "spill"
        assert plan.codec == "none"

    def test_plan_rejects_unknown_codec(self):
        with pytest.raises(ValueError):
            plan_sort(memory=100, codec="brotli")


# ---------------------------------------------------------------------------
# CLI: ``auto`` is ``none``; retired names are argparse errors
# ---------------------------------------------------------------------------


def _cli_bytes(capsys, argv, out):
    code = main(argv + ["-o", str(out)])
    capsys.readouterr()
    assert code == 0, argv
    return out.read_bytes()


class TestAutoCodecCli:
    @pytest.fixture()
    def files(self, tmp_path):
        rows = [f"k{(i * 7919) % 997},{i % 13}" for i in range(1500)]
        left = tmp_path / "left.csv"
        left.write_text("\n".join(rows) + "\n")
        right = tmp_path / "right.csv"
        right.write_text(
            "\n".join(f"k{i},r{i}" for i in range(0, 997, 3)) + "\n"
        )
        ints = tmp_path / "ints.txt"
        ints.write_text(
            "\n".join(str((i * 613) % 5000) for i in range(3000)) + "\n"
        )
        return ints, left, right

    @pytest.mark.parametrize("case", [
        "sort", "sort-workers", "sort-str", "distinct", "topk", "agg",
        "join",
    ])
    def test_auto_output_is_identical_to_none(self, tmp_path, capsys,
                                              files, case):
        ints, left, right = files
        csv = ["--format", "csv", "--key", "0"]
        argv = {
            "sort": ["sort", str(ints)],
            "sort-workers": ["sort", "--workers", "2", str(ints)],
            "sort-str": ["sort", "--format", "str", str(left)],
            "distinct": ["distinct", str(ints)],
            "topk": ["topk", "-k", "40", str(ints)],
            "agg": ["agg", *csv, "--value", "1", "--agg", "count,sum",
                    str(left)],
            "join": ["join", *csv, str(left), str(right)],
        }[case]
        argv = argv[:1] + ["--memory", "50"] + argv[1:]
        outputs = {
            codec: _cli_bytes(
                capsys, argv[:1] + ["--spill-codec", codec] + argv[1:],
                tmp_path / f"{case}-{codec}.out",
            )
            for codec in ("none", AUTO_CODEC)
        }
        assert outputs["none"]
        assert outputs[AUTO_CODEC] == outputs["none"]

    @pytest.mark.parametrize("codec", ["front", "front+zlib"])
    def test_retired_codec_is_an_argparse_error(self, tmp_path, capsys,
                                                codec):
        source = tmp_path / "in.txt"
        source.write_text("2\n1\n")
        with pytest.raises(SystemExit) as info:
            main(["sort", "--spill-codec", codec, str(source)])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_store_codec_choices_have_no_duplicates(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["store", "get", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        start = out.index("--codec {") + len("--codec {")
        choices = out[start : out.index("}", start)].split(",")
        assert choices == list(SPILL_CODECS)
