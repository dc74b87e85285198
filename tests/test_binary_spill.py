"""Regression tests for the binary spill path (ISSUE 7 satellites).

Four families, each pinning a bug class the text path hides:

* **Float key order** (satellite 1) — ``-0.0`` vs ``0.0``, equal
  values under different spellings (``1e3`` vs ``1000.0``), and the
  infinities must sort stably, round-trip byte-identically, and agree
  with ``sorted()`` and GNU ``sort -g``.
* **Delimited empty vs missing key columns** (satellite 2) — an empty
  field (``a,,c`` with ``--key 1``) is data and sorts as the empty
  text key; a missing column (``a`` with ``--key 1``) is malformed and
  raises the same ``ValueError`` on every backend, text or binary.
* **Framing self-defence** — RBLC framing is
  length-driven, so records that spell block headers (of this or any
  retired framing) or hold odd line-break characters round-trip
  through text and binary bodies; torn or corrupted blocks raise
  :class:`CorruptBlockError` naming file, block and offset.
* **Hot-loop decode budget** (tentpole acceptance) — a counting format
  proves the spill+merge pipeline performs *zero* per-record
  ``decode``/``decode_block``/``key`` calls after input parsing, the
  invariant lint rule R007 guards statically.

Plus the resume-fingerprint encoding rule, the rule that only
delimited rows carry key bytes, and the join format compatibility
errors that keep raw-byte keys from silently comparing against decoded
ones.  The format alone picks the spill body, so the CLI cases
check that one path against ``sorted()`` and GNU sort.
"""

import io
import os
import random
import shutil
import struct
import subprocess
import zlib

import pytest

from repro.cli import main
from repro.core.config import RECOMMENDED, GeneratorSpec
from repro.core.records import (
    FLOAT,
    INT,
    STR,
    BinaryRecordFormat,
    DelimitedFormat,
    resolve_format,
)
from repro.engine import block_io
from repro.engine.block_io import (
    BLOCK_MAGIC,
    BlockWriter,
    body_encoding,
    open_bytes,
    read_blocks,
)
from repro.engine.errors import CorruptBlockError
from repro.engine.planner import SortEngine
from repro.engine.resilience import ResumableSpillSort
from repro.ops import TopK
from repro.ops.join import _check_key_compatibility

GNU_SORT = shutil.which("sort")

SPILL_MEMORY = 8  # records; small enough that every corpus here spills

#: Key-byte rows: the shape ``--format csv`` resolves to.
CSV = resolve_format("csv", key=0)


def cli_sort(tmp_path, lines, *extra, name="out"):
    """Run ``repro sort`` in-process; returns the output bytes."""
    source = tmp_path / f"{name}.in"
    source.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / f"{name}.out"
    argv = ["sort", "--memory", str(SPILL_MEMORY), "--fan-in", "3",
            *extra, str(source), "-o", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def sorted_oracle(lines, fmt):
    """Stable ``sorted()`` over decoded records, re-encoded."""
    records = fmt.decode_block([line + "\n" for line in lines])
    return fmt.encode_block(sorted(records)).encode("utf-8")


# ---------------------------------------------------------------------------
# satellite 1: float key order
# ---------------------------------------------------------------------------


class TestFloatKeyOrder:
    """The spellings users actually write: signed zeros, scientific
    notation, infinities.  Equal *values* compare equal, so stability
    (input order) decides their output order — and every path must
    agree on it while preserving each spelling byte-for-byte."""

    ZEROS = ["0.0", "-0.0", "1.5", "-0.0", "0.0", "-1.5", "0.0",
             "-0.0", "0.5", "-0.5", "0.0"]

    SPELLINGS = ["1e3", "1000.0", "2.5", "1E3", "1e+3", "999.0",
                 "1000.0", "0.001", "1e-3", "1001.0", "1e3"]

    INFINITIES = ["inf", "-inf", "0.0", "1e308", "-1e308", "inf",
                  "-inf", "42.5", "-inf", "inf"]

    @pytest.mark.parametrize("lines", [ZEROS, SPELLINGS, INFINITIES],
                             ids=["zeros", "spellings", "infinities"])
    def test_text_and_binary_byte_identical(self, tmp_path, lines):
        """The spill path on the spellings that expose it.

        Equal-value groups have no *stable* order through replacement
        selection (runs reorder equals), so the contract is: values
        are non-decreasing, and no line is lost or altered.
        """
        corpus = lines * 4  # spill at SPILL_MEMORY records
        text = cli_sort(tmp_path, corpus, "--format", "float", name="t")
        out = text.decode("utf-8").splitlines()
        values = [float(line) for line in out]
        assert values == sorted(values)
        assert sorted(out) == sorted(corpus)

    @pytest.mark.parametrize("lines", [ZEROS, SPELLINGS, INFINITIES],
                             ids=["zeros", "spellings", "infinities"])
    def test_parallel_binary_matches_parallel_text(self, tmp_path, lines):
        """The partitioned backend repeats its own bytes and loses no
        line.  (Parallel and serial may legitimately order equal-key
        groups differently — sharding changes merge order — so the
        comparison is within the backend.)"""
        corpus = lines * 4
        text = cli_sort(tmp_path, corpus, "--format", "float",
                        "--workers", "2", name="s")
        again = cli_sort(tmp_path, corpus, "--format", "float",
                         "--workers", "2", name="p")
        assert text == again
        assert sorted(text.decode("utf-8").splitlines()) == sorted(corpus)

    def test_spellings_round_trip_byte_identically(self, tmp_path):
        """``-0.0`` stays ``-0.0`` and ``1e3`` stays ``1e3``: the
        payload is the original text, never a re-``repr``."""
        corpus = (self.ZEROS + self.SPELLINGS) * 3
        out = cli_sort(tmp_path, corpus, "--format", "float")
        got = sorted(out.decode("utf-8").splitlines())
        assert got == sorted(corpus)

    def test_negative_zero_group_matches_text_path_exactly(self, tmp_path):
        """All spellings of zero are one equal-key group: it lands
        between the negatives and the positives with every spelling
        kept (IEEE key bytes would split it: ``-0.0`` before ``0.0``)."""
        corpus = ["-0.0", "7.0", "0.0", "-7.0", "0.0", "-0.0"] * 5
        text = cli_sort(tmp_path, corpus, "--format", "float", name="t")
        out = text.decode("utf-8").splitlines()
        assert out[:5] == ["-7.0"] * 5 and out[-5:] == ["7.0"] * 5
        assert sorted(out[5:-5]) == ["-0.0"] * 10 + ["0.0"] * 10

    @pytest.mark.skipif(GNU_SORT is None, reason="GNU sort not installed")
    def test_infinities_agree_with_gnu_sort_g(self, tmp_path):
        """Distinct values only (GNU sort is not stable), including the
        infinities: ``sort -g`` is an oracle sharing no code with us."""
        corpus = ["inf", "-inf", "1e308", "-1e308", "0.5", "-0.5",
                  "3.25", "-3.25", "1e-300", "-1e-300", "123.0"] * 1
        source = tmp_path / "gnu.in"
        source.write_text("".join(line + "\n" for line in corpus))
        gnu = subprocess.run(
            [GNU_SORT, "-g", str(source)], capture_output=True,
            env={**os.environ, "LC_ALL": "C"}, check=True,
        ).stdout
        got = cli_sort(tmp_path, corpus * 4, "--format", "float",
                       name="gnu")
        # corpus * 4: each distinct line appears 4x consecutively in
        # sorted output; collapse back for the distinct oracle.
        collapsed = "".join(
            line + "\n"
            for i, line in enumerate(got.decode("utf-8").splitlines())
            if i % 4 == 0
        ).encode("utf-8")
        assert collapsed == gnu


# ---------------------------------------------------------------------------
# satellite 2: delimited empty vs missing key columns
# ---------------------------------------------------------------------------


class TestDelimitedEmptyVsMissing:
    EMPTY_KEY_CORPUS = ["a,,c", "b,2,x", "c,zz,y", "d,1.5,w", "e,,q",
                        "f,-3,r", "g,abc,s", "h,,t"] * 4

    def test_empty_field_is_the_empty_text_key(self):
        fmt = DelimitedFormat(",", key_column=1)
        assert fmt.key(fmt.decode("a,,c")) == (1, "")
        # Numbers rank before text; "" ranks before non-empty text.
        keys = sorted(
            fmt.key(fmt.decode(row)) for row in ("c,zz,y", "a,,c", "b,2,x")
        )
        assert keys == [(0, 2), (1, ""), (1, "zz")]

    def test_empty_key_identical_across_backends(self, tmp_path):
        args = ["--format", "csv", "--key", "1"]
        want = sorted_oracle(
            self.EMPTY_KEY_CORPUS, DelimitedFormat(",", key_column=1)
        )
        outputs = {
            "serial": cli_sort(tmp_path, self.EMPTY_KEY_CORPUS, *args,
                               name="serial"),
            "parallel": cli_sort(tmp_path, self.EMPTY_KEY_CORPUS, *args,
                                 "--workers", "2", name="par"),
        }
        for backend, got in outputs.items():
            assert got == want, f"{backend} diverges on empty key fields"

    def test_empty_key_identical_through_ops(self, tmp_path):
        """The ops backend (distinct) sees the same empty-key order."""
        source = tmp_path / "ops.in"
        source.write_text(
            "".join(row + "\n" for row in self.EMPTY_KEY_CORPUS)
        )
        out = tmp_path / "ops.out"
        assert main(
            ["distinct", "--memory", str(SPILL_MEMORY), "--format",
             "csv", "--key", "1", str(source), "-o", str(out)]
        ) == 0
        # distinct dedupes whole records; the three empty-key rows are
        # distinct rows and land together: after every numeric key,
        # before every non-empty text key, tie-broken by row text.
        got = out.read_text().splitlines()
        assert got == ["f,-3,r", "d,1.5,w", "b,2,x", "a,,c", "e,,q",
                       "h,,t", "g,abc,s", "c,zz,y"]

    MISSING = r"row has 1 column\(s\), key column 1 does not exist: 'a'"

    def test_missing_column_raises_at_decode(self):
        fmt = DelimitedFormat(",", key_column=1)
        with pytest.raises(ValueError, match=self.MISSING):
            fmt.decode("a")
        with pytest.raises(ValueError, match=self.MISSING):
            BinaryRecordFormat(fmt).decode("a")

    @pytest.mark.parametrize("flags", [[]], ids=["text"])
    def test_missing_column_raises_in_cli_sort(self, tmp_path, flags, capsys):
        source = tmp_path / "missing.in"
        source.write_text("a\nb,2,x\n")
        code = main(["sort", "--format", "csv", "--key", "1", *flags,
                     str(source), "-o", str(tmp_path / "missing.out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row has 1 column(s), key column 1 does not exist" in err
        assert not (tmp_path / "missing.out").exists()

    @pytest.mark.parametrize("flags", [[]], ids=["text"])
    def test_missing_column_fails_ops_with_same_message(
        self, tmp_path, flags, capsys
    ):
        source = tmp_path / "missing.in"
        source.write_text("a\nb,2,x\n")
        code = main(["distinct", "--format", "csv", "--key", "1", *flags,
                     str(source), "-o", str(tmp_path / "missing.out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row has 1 column(s), key column 1 does not exist" in err


# ---------------------------------------------------------------------------
# satellite 3: framing self-defence
# ---------------------------------------------------------------------------


HOSTILE_LINES = [
    "#repro:blk 3 deadbeef",       # a plausible forged header
    "#repro:blk 0 00000000",
    "#repro:esc #repro:blk 1 11111111",  # an escaped look-alike
    "#repro:esc x",
    "#repro: anything",
    "plain data",
    "RBLC",
    "RBLK",
    "RBLC not a header",
    "next\x85line",                # NEL: str.splitlines would split here
    "line\u2028separator",
    "form\x0cfeed",
    "",
]


def _hostile_text():
    return "".join(line + "\n" for line in HOSTILE_LINES)


def _round_trip_hostile(tmp_path, fmt, codec):
    """Write the hostile records as an RBLC file and read them back."""
    records = fmt.decode_block(io.StringIO(_hostile_text()).readlines())
    assert len(records) == len(HOSTILE_LINES)
    path = tmp_path / "hostile.bin"
    with open_bytes(str(path), "w") as handle:
        writer = BlockWriter(handle, fmt, block_records=2, codec=codec)
        writer.write_all(records)
        writer.flush()
    assert path.read_bytes().startswith(BLOCK_MAGIC)
    with open_bytes(str(path), "r") as handle:
        got = [
            record
            for block in read_blocks(handle, fmt, codec=codec)
            for record in block
        ]
    assert got == records
    assert fmt.encode_block(got) == _hostile_text()


class TestFramingSelfDefence:
    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_lookalike_records_round_trip(self, tmp_path, codec):
        """Text bodies split on ``"\\n"`` only, so records spelling block
        headers or holding other line-break characters round-trip byte
        for byte."""
        _round_trip_hostile(tmp_path, STR, codec)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_binary_framing_is_inert_to_lookalike_bytes(
        self, tmp_path, compressed
    ):
        """RBLC bodies are consumed by byte length, never scanned, so
        payloads spelling ``RBLC``, ``RBLK`` or ``#repro:blk`` cannot
        confuse the reader, compressed or not."""
        _round_trip_hostile(
            tmp_path, CSV, "zlib" if compressed else "none"
        )

    def test_cli_durable_sort_survives_hostile_payloads(self, tmp_path):
        """End to end: durable spilled runs hold forged header lines as
        data (the fault-harness regression this satellite started
        from)."""
        corpus = [line for line in HOSTILE_LINES if line] * 6
        want = sorted_oracle(corpus, STR)
        got = cli_sort(
            tmp_path, corpus, "--format", "str",
            "--resume", "--work-dir", str(tmp_path / "wd"), name="text",
        )
        assert got == want, "mangled header-lookalike payloads"

    # -- torn / corrupted block files -------------------------------------

    def _binary_file(self, tmp_path):
        fmt = CSV
        path = tmp_path / "blocks.bin"
        with open_bytes(str(path), "w") as handle:
            writer = BlockWriter(handle, fmt, block_records=4)
            writer.write_all(fmt.decode(f"record-{i}") for i in range(8))
            writer.flush()
        return path, fmt

    def _read_all(self, path, fmt, codec="none"):
        with open_bytes(str(path), "r") as handle:
            return [
                record
                for block in read_blocks(handle, fmt, codec=codec)
                for record in block
            ]

    def _corrupt(self, path, fmt, codec="none"):
        """Read ``path`` expecting a located ``CorruptBlockError``."""
        with pytest.raises(CorruptBlockError) as info:
            self._read_all(path, fmt, codec)
        err = info.value
        assert err.path == str(path)
        assert f"block #{err.block_index}" in str(err)
        assert f"byte offset {err.offset}" in str(err)
        return err

    def test_bad_magic_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        err = self._corrupt(path, fmt)
        assert "magic" in err.reason
        assert (err.block_index, err.offset) == (0, 0)

    def test_truncated_header_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        path.write_bytes(path.read_bytes()[:7])
        err = self._corrupt(path, fmt)
        assert "truncated block header" in err.reason

    def test_truncated_body_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        err = self._corrupt(path, fmt)
        assert "truncated" in err.reason
        assert err.block_index == 1 and err.offset > 0

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last payload byte: lengths stay consistent
        path.write_bytes(bytes(data))
        err = self._corrupt(path, fmt)
        assert "checksum mismatch" in err.reason
        assert err.block_index == 1

    def test_record_length_overrun_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = bytearray(path.read_bytes())
        header = struct.Struct(">4sBIIII")
        _, _, _, _, stored_len, _ = header.unpack_from(data, 0)
        # First record's key length claims more bytes than the body
        # has; the CRC is recomputed so only the record parser can
        # catch it.
        struct.pack_into(">I", data, header.size, 2 ** 20)
        body = bytes(data[header.size : header.size + stored_len])
        struct.pack_into(">I", data, header.size - 4, zlib.crc32(body))
        path.write_bytes(bytes(data))
        err = self._corrupt(path, fmt)
        assert "malformed" in err.reason
        assert (err.block_index, err.offset) == (0, 0)

    def test_codec_id_mismatch_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        err = self._corrupt(path, fmt, codec="zlib")
        assert "codec 'none'" in err.reason
        assert (err.block_index, err.offset) == (0, 0)


# ---------------------------------------------------------------------------
# tentpole acceptance: zero per-record decodes in spill + merge
# ---------------------------------------------------------------------------


class CountingBinaryFormat(BinaryRecordFormat):
    """Binary wrapper that counts the calls R007 bans from hot loops."""

    def __init__(self, base):
        super().__init__(base)
        self.decode_calls = 0
        self.decode_block_calls = 0
        self.key_calls = 0

    def decode(self, text):
        self.decode_calls += 1
        return super().decode(text)

    def decode_block(self, lines):
        self.decode_block_calls += 1
        return super().decode_block(lines)

    def key(self, record):
        self.key_calls += 1
        return super().key(record)

    def reset(self):
        self.decode_calls = self.decode_block_calls = self.key_calls = 0


class TestZeroDecodeHotLoop:
    """Once input text has become ``(key bytes, payload bytes)``
    records, the whole spill + merge pipeline runs on raw bytes: no
    decode, no key extraction, per record or per block, in every
    merge pass.  This is the runtime twin of lint rule R007's static
    guarantee."""

    @pytest.mark.parametrize("base,lines", [
        (DelimitedFormat(",", key_column=1),
         [f"r{i},{(i * 613) % 500},t" for i in range(400)]),
    ], ids=["csv"])
    def test_spilling_sort_never_decodes_after_parse(
        self, tmp_path, base, lines
    ):
        fmt = CountingBinaryFormat(base)
        records = fmt.decode_block([line + "\n" for line in lines])
        assert fmt.decode_calls + fmt.decode_block_calls > 0
        fmt.reset()

        engine = SortEngine(
            GeneratorSpec("2wrs", 16, RECOMMENDED),
            record_format=fmt,
            fan_in=3,
            tmp_dir=str(tmp_path),
        )
        got = list(engine.sort(records, input_records=len(records)))
        assert engine.plan is not None and engine.plan.mode == "spill"
        assert [r[0] for r in got] == sorted(r[0] for r in records)

        assert fmt.decode_calls == 0, "spill/merge decoded a record"
        assert fmt.decode_block_calls == 0, "spill/merge decoded a block"
        assert fmt.key_calls == 0, "spill/merge re-extracted a key"


# ---------------------------------------------------------------------------
# resume fingerprint: encoding is part of the journal contract
# ---------------------------------------------------------------------------


class TestResumeFingerprint:
    def test_encoding_field_separates_binary_from_text(self, tmp_path):
        def fingerprint(fmt):
            return ResumableSpillSort(
                memory=16, work_dir=str(tmp_path / "wd"),
                record_format=fmt,
            ).fingerprint()

        text = fingerprint(DelimitedFormat(",", 0))
        binary = fingerprint(CSV)
        # Plain int runs carry int64 bodies (DESIGN.md §15).
        assert fingerprint(INT)["encoding"] == "int64"
        assert binary["encoding"] == "binary"
        assert text["encoding"] == "text"
        assert fingerprint(STR)["encoding"] == "text"
        # Everything else being equal, the encodings must not resume
        # into each other: their run files are mutually unreadable.
        assert {k: v for k, v in text.items() if k != "encoding"} == \
               {k: v for k, v in binary.items() if k != "encoding"}
        assert text != binary


# ---------------------------------------------------------------------------
# the record format decides the shape: key bytes for delimited rows only
# ---------------------------------------------------------------------------


class TestKeyBytesAreForRows:
    @pytest.mark.parametrize("name", ["csv", "tsv"])
    def test_delimited_formats_resolve_to_key_bytes(self, name):
        fmt = resolve_format(name, key=1)
        assert isinstance(fmt, BinaryRecordFormat)
        assert isinstance(fmt.base, DelimitedFormat)

    @pytest.mark.parametrize("name", ["int", "float", "str"])
    def test_scalar_formats_keep_their_own_records(self, name):
        assert not isinstance(resolve_format(name), BinaryRecordFormat)

    @pytest.mark.parametrize("base", [INT, FLOAT, STR, CSV])
    def test_wrapper_refuses_anything_but_delimited_rows(self, base):
        with pytest.raises(TypeError, match="delimited rows only"):
            BinaryRecordFormat(base)

    def test_topk_heap_scan_reads_base_rows(self):
        def engine(memory):
            return SortEngine(GeneratorSpec("lss", memory), record_format=CSV)

        assert TopK(engine(100), 10).input_format() is CSV.base
        assert TopK(engine(5), 10).input_format() is CSV

    def test_fields_split_the_stored_row(self):
        fmt = resolve_format("csv", key=1)
        record = fmt.decode("a,2,x")
        assert fmt.fields(record) == ["a", "2", "x"]
        assert fmt.project(record, (2, 0)) == ["x", "a"]
        with pytest.raises(ValueError, match="column\\(s\\) 5 do not"):
            fmt.project(record, (5,))


# ---------------------------------------------------------------------------
# join compatibility: raw bytes only compare against raw bytes
# ---------------------------------------------------------------------------


class TestJoinBinaryCompatibility:
    def test_mixed_binary_and_text_sides_rejected(self):
        with pytest.raises(ValueError, match="both sides or neither"):
            _check_key_compatibility(CSV, DelimitedFormat(",", 0))
        with pytest.raises(ValueError, match="both sides or neither"):
            _check_key_compatibility(DelimitedFormat("\t", 1), CSV)

    def test_compatible_binary_pairs_accepted(self):
        # Delimited keys share one component layout across delimiters.
        _check_key_compatibility(
            resolve_format("csv", key=1), resolve_format("tsv", key=0)
        )


# ---------------------------------------------------------------------------
# the format picks the body
# ---------------------------------------------------------------------------


def _record_rblc_encodings(monkeypatch):
    """Collect ``body_encoding`` of every RBLC block the program writes."""
    seen = []
    flush = BlockWriter.flush

    def recording_flush(self):
        if self._codec is not None and self._pending:
            seen.append(body_encoding(self._fmt))
        flush(self)

    monkeypatch.setattr(block_io.BlockWriter, "flush", recording_flush)
    return seen


class TestFormatPicksTheBody:
    def test_default_csv_sort_spills_key_bytes(self, tmp_path, monkeypatch):
        rng = random.Random(4)
        lines = [f"k{rng.randint(0, 999)},{rng.randint(0, 99)}"
                 for _ in range(600)]
        encodings = _record_rblc_encodings(monkeypatch)
        source = tmp_path / "rows.csv"
        source.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "rows.out"
        assert main(["sort", "--format", "csv", "--key", "0", "--memory",
                     "50", str(source), "-o", str(out)]) == 0
        assert encodings and set(encodings) == {"binary"}
        assert out.read_bytes() == sorted_oracle(
            lines, DelimitedFormat(",", 0)
        )
