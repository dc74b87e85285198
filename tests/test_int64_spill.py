"""Int64 block bodies for int spill files (DESIGN.md §15).

An :class:`~repro.core.records.IntFormat` block whose records are all
exact ``int`` values within int64 is stored as a little-endian int64
array, flagged by the high bit of the header's codec byte; any other
block keeps its text body.  These tests pin the round trip at the
int64 bounds, the per-block fallback, the reader's cross-checks on
the kind, and that the kind is covered by the block CRC.
"""

import enum
import struct
import zlib

import pytest

from repro.core.config import GeneratorSpec
from repro.core.records import FLOAT, INT, STR, CallableFormat
from repro.engine.block_io import (
    BlockWriter,
    body_encoding,
    open_run,
    read_blocks,
    write_block_file,
)
from repro.engine.errors import CorruptBlockError
from repro.engine.spill_codec import CODEC_IDS
from repro.sort.parallel import PartitionedSort

HEADER = struct.Struct(">4sBIIII")
INT64_KIND = 0x80
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

CODECS = ["none", "zlib"]


class Color(enum.IntEnum):
    RED = 7


def write(path, records, block, codec, fmt=INT):
    write_block_file(str(path), records, fmt, block, codec=codec)
    return path.read_bytes()


def read(path, codec, fmt=INT):
    with open_run(str(path), "r", codec) as handle:
        return list(read_blocks(handle, fmt, codec=codec))


def headers(data):
    """``(offset, codec_byte, count, raw_len, stored_len)`` per block."""
    out = []
    offset = 0
    while offset < len(data):
        _, codec_byte, count, raw_len, stored_len, _ = HEADER.unpack_from(
            data, offset
        )
        out.append((offset, codec_byte, count, raw_len, stored_len))
        offset += HEADER.size + stored_len
    return out


def craft_block(codec, kind, count, body, crc_seed=0):
    """One block with a valid CRC for its stored bytes."""
    stored = body if codec == "none" else zlib.compress(body, 1)
    return HEADER.pack(
        b"RBLC", CODEC_IDS[codec] | kind, count, len(body), len(stored),
        zlib.crc32(stored, crc_seed),
    ) + stored


INT64_SEED = zlib.crc32(bytes([INT64_KIND]))


@pytest.mark.parametrize("codec", CODECS)
class TestRoundTrip:
    def test_bounds_zero_and_negatives(self, tmp_path, codec):
        records = [INT64_MIN, INT64_MAX, 0, -1, -987654321, 5, INT64_MIN + 1]
        path = tmp_path / "run.dat"
        data = write(path, records, 4, codec)
        blocks = headers(data)
        assert [b[1] for b in blocks] == [CODEC_IDS[codec] | INT64_KIND] * 2
        assert [b[3] for b in blocks] == [8 * 4, 8 * 3]
        got = read(path, codec)
        assert got == [records[:4], records[4:]]
        assert all(type(value) is int for block in got for value in block)

    def test_fallback_blocks_interleave_in_order(self, tmp_path, codec):
        groups = [
            [3, -4, 5, 6],
            [2**63, 1, 2, 3],
            [-7, 8, INT64_MAX, INT64_MIN],
            [-(2**63) - 1, 0],
            [10**30, -(10**30)],
            [11, 12],
            [Color.RED, 13],
            [-14, 15],
        ]
        records = [value for group in groups for value in group]
        path = tmp_path / "mixed.dat"
        with open_run(str(path), "w", codec) as handle:
            writer = BlockWriter(handle, INT, 64, codec)
            for group in groups:
                writer.write_all(group)
                writer.flush()
        int64_blocks = [
            bool(b[1] & INT64_KIND) for b in headers(path.read_bytes())
        ]
        assert int64_blocks == [
            True, False, True, False, False, True, False, True,
        ]
        got = read(path, codec)
        assert got == groups
        # Output bytes equal those of the records never spilled.
        flat = [value for block in got for value in block]
        assert INT.encode_block(flat) == INT.encode_block(records)

    def test_bool_block_keeps_its_text_body(self, tmp_path, codec):
        path = tmp_path / "bool.dat"
        data = write(path, [True, 2, 3], 8, codec)
        ((_, codec_byte, count, raw_len, _),) = headers(data)
        assert codec_byte == CODEC_IDS[codec]
        assert raw_len == len(INT.encode_block([True, 2, 3]))

    def test_raw_bytes_are_codec_invariant(self, tmp_path, codec):
        path = tmp_path / "acct.dat"
        with open_run(str(path), "w", codec) as handle:
            writer = BlockWriter(handle, INT, 16, codec)
            writer.write_all(range(-50, 50))
            writer.flush()
        assert writer.raw_bytes == 8 * 100


def test_front_coders_round_trip(tmp_path):
    records = sorted((i * 7919) % 4000 - 2000 for i in range(500))
    for codec in ("front", "front+zlib", "lzma"):
        path = tmp_path / f"{codec.replace('+', '_')}.dat"
        write(path, records, 64, codec)
        assert [v for b in read(path, codec) for v in b] == records


@pytest.mark.parametrize("codec", CODECS)
class TestReaderCrossChecks:
    def test_wrong_body_length(self, tmp_path, codec):
        path = tmp_path / "short.dat"
        body = struct.pack("<2q", 1, 2)
        path.write_bytes(craft_block(codec, INT64_KIND, 3, body, INT64_SEED))
        with pytest.raises(CorruptBlockError) as err:
            read(path, codec)
        assert err.value.block_index == 0
        assert "int64 body is 16 bytes" in err.value.reason

    @pytest.mark.parametrize("fmt", [STR, FLOAT, CallableFormat(str, int)],
                             ids=["str", "float", "callable"])
    def test_int64_kind_rejected_for_other_formats(
        self, tmp_path, fmt, codec
    ):
        path = tmp_path / "int.dat"
        write(path, [1, 2, 3], 8, codec)
        with pytest.raises(CorruptBlockError) as err:
            read(path, codec, fmt=fmt)
        assert "int64 body" in err.value.reason
        assert str(path) in str(err.value)

    def test_text_block_flipped_to_int64_is_a_checksum_mismatch(
        self, tmp_path, codec
    ):
        # Seven-digit ints: a text block of exactly 8 bytes per record,
        # which a kind bit alone would turn into plausible int64s.
        path = tmp_path / "text.dat"
        values = [str(v) for v in range(1000000, 1000008)]
        data = bytearray(write(path, values, 4, codec, fmt=STR))
        second = headers(bytes(data))[1]
        assert second[1] == CODEC_IDS[codec]
        assert second[3] == 8 * second[2]
        assert read(path, codec) == [
            list(range(1000000, 1000004)), list(range(1000004, 1000008)),
        ]
        data[second[0] + 4] ^= INT64_KIND
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptBlockError) as err:
            read(path, codec)
        assert err.value.path == str(path)
        assert err.value.block_index == 1
        assert err.value.offset == second[0] > 0
        assert "checksum mismatch" in err.value.reason

    def test_int64_block_flipped_to_text_is_a_checksum_mismatch(
        self, tmp_path, codec
    ):
        path = tmp_path / "int.dat"
        data = bytearray(write(path, list(range(8)), 4, codec))
        second = headers(bytes(data))[1]
        assert second[1] == CODEC_IDS[codec] | INT64_KIND
        data[second[0] + 4] ^= INT64_KIND
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptBlockError) as err:
            read(path, codec)
        assert err.value.path == str(path)
        assert err.value.block_index == 1
        assert err.value.offset == second[0] > 0
        assert "checksum mismatch" in err.value.reason
        assert str(path) in str(err.value)


def test_parallel_fingerprint_names_the_kind(tmp_path):
    sorter = PartitionedSort(
        GeneratorSpec("lss", 100), workers=2, tmp_dir=str(tmp_path),
    )
    assert sorter._fingerprint()["encoding"] == body_encoding(INT) == "int64"
