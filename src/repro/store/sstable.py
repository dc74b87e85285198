"""SSTable writing and reading (DESIGN.md §17).

An SSTable is a sorted run with a map.  The data region is exactly
what the sort engine spills — RBLC blocks (DESIGN.md §15) of
length-prefixed ``(key_bytes, meta_bytes)`` records written by
:class:`~repro.engine.block_io.BlockWriter` through the ``open_bytes``
fault seam, each carrying the CRC-32 of its stored bytes — followed by
a *key filter*, a columnar *sparse index* and a fixed 24-byte footer
whose magic is the last thing written.  File layout::

    [block 0][block 1]...[block N-1][filter][index body][footer]
    filter = records x fingerprint u16, in key order
    index  = version u16 | records u64 | max_seqno u64 | codec u8
             | block_records u32 | filter_offset u64 | filter_count u64
             | filter_crc u32 | N u32 | N x offset u64 | N x key_end u32
             | first keys, concatenated | min_key | max_key
    footer = index_offset u64 | index_len u32 | index_crc u32 | magic 8s

A key's fingerprint is the low 16 bits of its CRC-32, so block ``i``'s
fingerprints are ``filter[i * block_records : (i + 1) * block_records]``.
``key_end`` is the cumulative end of each block's first key inside the
concatenated keys, and each bound is ``len u32 | key``.  Tables hold
:data:`DEFAULT_TABLE_BLOCK_RECORDS` records per block by default —
far fewer than a sort spill's — because a point lookup decodes one
whole block to find one key.

A reader opens by parsing footer + index (CRC-checked) and then
serves:

* ``lookup(key)`` — binary search the block first-keys, then test the
  key's fingerprint against that block's slice of the filter (loaded
  and CRC-checked on the first lookup, never at open).  A key whose
  fingerprint is absent is absent; only otherwise is *one* block read
  through the same corruption-checked parser the merge path uses
  (:func:`~repro.engine.block_io.read_framed_block`) and binary
  searched.
* ``entries(start, end)`` — block-at-a-time ordered scan from the
  first covering block.  The yielded tuples go straight into
  ``kway_merge`` heaps and LWW grouping without any per-record decode
  (R007 holds here and in compaction).

Keys within one table are unique — the memtable holds one entry per
key and compaction dedups — so readers never tiebreak on meta.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.engine.block_io import (
    BlockWriter,
    open_bytes,
    read_framed_block,
)
from repro.engine.errors import StoreError
from repro.engine.spill_codec import CODEC_IDS, CODEC_NAMES, validate_codec
from repro.store.format import STORE_FORMAT

__all__ = [
    "DEFAULT_TABLE_BLOCK_RECORDS",
    "SSTABLE_MAGIC",
    "TABLE_VERSION",
    "TableInfo",
    "SSTableReader",
    "fingerprint",
    "write_table",
]

#: Footer magic — written last, so its presence implies the whole
#: index body preceded it onto disk.
SSTABLE_MAGIC = b"RSSTIDX1"

#: Index schema version (bumped on incompatible layout changes).
#: Version 2: codec ``none`` data blocks carry the RBLC header like
#: every other codec's (version 1 used a separate uncompressed framing).
#: Version 3: the sparse index is columnar (offsets, key ends, keys)
#: instead of interleaved ``offset | len | key`` entries.
#: Version 4: a key-fingerprint filter sits between the data blocks and
#: the index, and the index records where it is and the block size.
TABLE_VERSION = 4

#: Records per SSTable data block.  A point lookup decodes its whole
#: block, so tables use far smaller blocks than the sort engine's
#: ``DEFAULT_BLOCK_RECORDS`` spills; DESIGN.md §17 has the sweep.
DEFAULT_TABLE_BLOCK_RECORDS = 128

#: index_offset, index_len, index_crc, magic.
_FOOTER = struct.Struct(">QII8s")

#: version, record count, max seqno, codec id, records per block,
#: filter offset, filter count, filter CRC, block count.
_INDEX_FIXED = struct.Struct(">HQQBIQQII")

_U32 = struct.Struct(">I")

#: Typecodes of the index's u64 offset and u32 key-end columns.
_OFFSET_TYPE = "Q"
_KEY_END_TYPE = "I"
assert array(_OFFSET_TYPE).itemsize == 8
assert array(_KEY_END_TYPE).itemsize == 4

#: Typecodes of a block's CRC-32s and of the filter's fingerprints.
_CRC_TYPE = "I"
_FINGERPRINT_TYPE = "H"
assert array(_CRC_TYPE).itemsize == 4
assert array(_FINGERPRINT_TYPE).itemsize == 2

#: Where the low half of each native u32 sits when its bytes are read
#: as two u16s: the fingerprints of a block are every other u16.
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def fingerprint(key: bytes) -> int:
    """The key filter's fingerprint of ``key``: the low 16 bits of its
    CRC-32."""
    return zlib.crc32(key) & 0xFFFF


def _block_fingerprints(keys: Iterable[bytes]) -> array:
    """The fingerprints of one block's keys, with no per-key Python
    code: C ``crc32`` over the keys, then the low half of each u32."""
    crcs = array(_CRC_TYPE, map(zlib.crc32, keys))
    return array(_FINGERPRINT_TYPE, crcs.tobytes())[_LOW_HALF::2]


@dataclass(frozen=True)
class TableInfo:
    """What the manifest records about one finished table.

    ``crc32`` is the CRC-32 of the *entire file* — data blocks, index
    body and footer — so :func:`~repro.engine.resilience.artifact_valid`
    verifies a table exactly the way it verifies a journaled run.
    """

    path: str
    records: int
    crc32: int
    min_key: bytes
    max_key: bytes
    max_seqno: int
    disk_bytes: int


def write_table(
    path: str,
    entries: Iterable[Tuple[bytes, bytes]],
    *,
    max_seqno: int,
    block_records: int = DEFAULT_TABLE_BLOCK_RECORDS,
    codec: str = "none",
    fsync: bool = True,
) -> TableInfo:
    """Write sorted unique ``entries`` as one SSTable.

    The caller guarantees order and key uniqueness (the memtable is a
    dict; compaction dedups) — this function only *samples* the stream
    for the sparse index and fingerprints every key for the filter, it
    never inspects entry contents beyond ``entry[0]``.  Raises
    :class:`ValueError` on an empty stream: empty tables have no key
    range and callers must skip them instead
    (a compaction in which every record annihilates appends a
    manifest entry with no output file).
    """
    codec = validate_codec(codec)
    offsets: List[int] = []
    first_keys: List[bytes] = []
    fingerprints = array(_FINGERPRINT_TYPE)
    last_key = b""
    count = 0
    source = iter(entries)
    handle = open_bytes(path, "w")
    try:
        writer = BlockWriter(handle, STORE_FORMAT, block_records, codec)
        while True:
            block = list(islice(source, block_records))
            if not block:
                break
            # BlockWriter flushes exactly at block_records, so
            # disk_bytes here is the byte offset this block starts at.
            offsets.append(writer.disk_bytes)
            first_keys.append(block[0][0])
            last_key = block[-1][0]
            fingerprints.extend(
                _block_fingerprints(map(itemgetter(0), block))
            )
            writer.write_all(block)
            count += len(block)
        writer.flush()
        if count == 0:
            raise ValueError(
                f"refusing to write empty sstable {path!r}: an empty "
                f"table has no key range; skip it instead"
            )
        filter_offset = writer.disk_bytes
        if sys.byteorder == "little":
            fingerprints.byteswap()
        filter_body = fingerprints.tobytes()
        filter_crc = zlib.crc32(filter_body)
        index_offset = filter_offset + len(filter_body)
        blocks = len(offsets)
        index_body = b"".join([
            _INDEX_FIXED.pack(
                TABLE_VERSION, count, max_seqno, CODEC_IDS[codec],
                block_records, filter_offset, count, filter_crc, blocks,
            ),
            struct.pack(f">{blocks}Q", *offsets),
            struct.pack(f">{blocks}I", *accumulate(map(len, first_keys))),
            *first_keys,
            _U32.pack(len(first_keys[0])),
            first_keys[0],
            _U32.pack(len(last_key)),
            last_key,
        ])
        footer = _FOOTER.pack(
            index_offset, len(index_body), zlib.crc32(index_body),
            SSTABLE_MAGIC,
        )
        handle.write(filter_body)
        handle.write(index_body)
        handle.write(footer)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    finally:
        handle.close()
    file_crc = zlib.crc32(filter_body, writer.file_crc)
    return TableInfo(
        path=path,
        records=count,
        crc32=zlib.crc32(footer, zlib.crc32(index_body, file_crc)),
        min_key=first_keys[0],
        max_key=last_key,
        max_seqno=max_seqno,
        disk_bytes=index_offset + len(index_body) + _FOOTER.size,
    )


class SSTableReader:
    """Random and sequential access to one SSTable.

    Opening parses and CRC-checks the footer + sparse index; anything
    structurally wrong raises :class:`StoreError` naming the file.
    Every data block's CRC is verified on read (through
    :func:`read_framed_block`) and the key filter's on its first load —
    a point lookup that lands on a bit-flipped block or filter fails
    loudly, never returns garbage or a false "absent".
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open_bytes(path, "r")
        try:
            self._parse_index()
        except BaseException:
            self.close()
            raise

    # -- open/close ------------------------------------------------------------

    def _parse_index(self) -> None:
        handle = self._handle
        path = self.path
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size < _FOOTER.size:
            raise StoreError(
                f"sstable {path!r} is {size} bytes — smaller than the "
                f"{_FOOTER.size}-byte footer; torn or not an sstable"
            )
        handle.seek(size - _FOOTER.size)
        index_offset, index_len, want_crc, magic = _FOOTER.unpack(
            handle.read(_FOOTER.size)
        )
        if magic != SSTABLE_MAGIC:
            raise StoreError(
                f"sstable {path!r} has bad footer magic {magic!r} — the "
                f"file was torn mid-write or is not an sstable"
            )
        if index_offset + index_len + _FOOTER.size != size:
            raise StoreError(
                f"sstable {path!r} footer is inconsistent: index at "
                f"{index_offset}+{index_len} plus footer does not equal "
                f"the {size}-byte file"
            )
        handle.seek(index_offset)
        body = handle.read(index_len)
        got_crc = zlib.crc32(body)
        if len(body) != index_len or got_crc != want_crc:
            raise StoreError(
                f"sstable {path!r} index failed its checksum (footer "
                f"says {want_crc:08x}, bytes hash to {got_crc:08x}) — "
                f"the index was corrupted on disk"
            )
        # The version comes first on its own: an older table's fixed
        # header is shorter than this version's.
        if len(body) >= 2:
            (version,) = struct.unpack_from(">H", body)
            if version != TABLE_VERSION:
                raise StoreError(
                    f"sstable {path!r} has index version {version}, this "
                    f"build reads version {TABLE_VERSION}"
                )
        try:
            (
                _, records, max_seqno, codec_id, block_records,
                filter_offset, filter_count, filter_crc, n_blocks,
            ) = _INDEX_FIXED.unpack_from(body, 0)
        except struct.error:
            raise StoreError(
                f"sstable {path!r} index body is {len(body)} bytes — too "
                f"short for its fixed header"
            ) from None
        codec = CODEC_NAMES.get(codec_id)
        if codec is None:
            raise StoreError(
                f"sstable {path!r} was written with unknown codec id "
                f"{codec_id}"
            )
        ends_at = _INDEX_FIXED.size + 8 * n_blocks
        keys_at = ends_at + 4 * n_blocks
        if n_blocks == 0 or keys_at > len(body):
            raise StoreError(
                f"sstable {path!r} index claims {n_blocks} block(s), "
                f"which its {len(body)}-byte body cannot hold"
            )
        # A lookup slices block i's fingerprints at i * block_records:
        # a filter that does not line up with the blocks would answer
        # "absent" for keys that are there.
        if (
            block_records < 1
            or n_blocks != -(-records // block_records)
            or filter_count != records
            or filter_offset + 2 * filter_count != index_offset
        ):
            raise StoreError(
                f"sstable {path!r} key filter does not line up with the "
                f"table: {filter_count} fingerprint(s) at "
                f"{filter_offset} before the index at {index_offset}, "
                f"for {records} record(s) in {n_blocks} block(s) of "
                f"{block_records}"
            )
        offsets = array(_OFFSET_TYPE, body[_INDEX_FIXED.size : ends_at])
        key_ends = array(_KEY_END_TYPE, body[ends_at:keys_at])
        if sys.byteorder == "little":
            offsets.byteswap()
            key_ends.byteswap()
        ends = key_ends.tolist()
        pos = keys_at + ends[-1]
        if pos > len(body) or sorted(ends) != ends:
            raise StoreError(
                f"sstable {path!r} index key ends run backwards or past "
                f"the {len(body) - keys_at}-byte key region"
            )
        self._keys = body[keys_at:pos]
        self._key_ends = ends
        bounds: List[bytes] = []
        try:
            for _ in range(2):
                (key_len,) = _U32.unpack_from(body, pos)
                pos += 4
                bounds.append(body[pos : pos + key_len])
                pos += key_len
        except struct.error:
            raise StoreError(
                f"sstable {path!r} index body is malformed — truncated "
                f"or mis-framed despite a matching checksum"
            ) from None
        if pos != len(body):
            raise StoreError(
                f"sstable {path!r} index has {len(body) - pos} trailing "
                f"byte(s) after {n_blocks} block entries"
            )
        self.records = records
        self.max_seqno = max_seqno
        self.codec = codec
        self.min_key = bounds[0]
        self.max_key = bounds[1]
        self.data_bytes = filter_offset
        self._offsets = offsets
        self._block_records = block_records
        self._filter_crc = filter_crc

    @cached_property
    def _first_keys(self) -> List[bytes]:
        """Each block's first key, sliced out of the index on first
        use: an open that never seeks by key (a get that stopped at a
        newer table, a full scan) skips the per-block work."""
        keys = self._keys
        ends = self._key_ends
        return [keys[start:end] for start, end in zip([0] + ends[:-1], ends)]

    @cached_property
    def fingerprints(self) -> array:
        """Every key's fingerprint, in key order, read and CRC-checked
        on first use: opening a table never reads its filter."""
        handle = self._handle
        assert handle is not None, "reader is closed"
        size = 2 * self.records
        handle.seek(self.data_bytes)
        body = handle.read(size)
        if len(body) != size:
            raise StoreError(
                f"sstable {self.path!r} key filter is truncated: "
                f"{len(body)} of {size} bytes at offset {self.data_bytes}"
            )
        got_crc = zlib.crc32(body)
        if got_crc != self._filter_crc:
            raise StoreError(
                f"sstable {self.path!r} key filter failed its checksum "
                f"(index says {self._filter_crc:08x}, bytes hash to "
                f"{got_crc:08x}) — the filter was corrupted on disk"
            )
        fingerprints = array(_FINGERPRINT_TYPE, body)
        if sys.byteorder == "little":
            fingerprints.byteswap()
        return fingerprints

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SSTableReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- access ----------------------------------------------------------------

    def _block_at(self, index: int) -> List[Tuple[bytes, bytes]]:
        handle = self._handle
        assert handle is not None, "reader is closed"
        block_offset = self._offsets[index]
        handle.seek(block_offset)
        result = read_framed_block(
            handle, STORE_FORMAT, path=self.path, index=index,
            offset=block_offset, codec=self.codec,
        )
        if result is None:
            raise StoreError(
                f"sstable {self.path!r}: block {index} at offset "
                f"{block_offset} is missing — index and data disagree"
            )
        return result[0]

    def lookup(self, want: bytes) -> Optional[bytes]:
        """The meta bytes stored for ``want``, or None when absent.

        A tombstone is *present* — it returns its meta so the store can
        shadow older tables; only the store-level ``get`` translates
        tombstones into "not found".
        """
        if want < self.min_key or want > self.max_key:
            return None
        index = bisect_right(self._first_keys, want) - 1
        if index < 0:
            return None
        start = index * self._block_records
        if fingerprint(want) not in self.fingerprints[
            start : start + self._block_records
        ]:
            return None
        block = self._block_at(index)
        # ``(want,)`` compares less than ``(want, meta)`` — bisect finds
        # the first entry whose key is >= want without building probe
        # metas.
        slot = bisect_left(block, (want,))
        if slot < len(block) and block[slot][0] == want:
            return block[slot][1]
        return None

    def entries(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered ``(key, meta)`` entries with ``start <= key < end``.

        Block-at-a-time: one seek to the first covering block, then
        sequential block reads.  The per-entry work is tuple indexing
        and comparison only — this iterator feeds compaction's merge
        heap directly (R007).
        """
        first = 0
        if start is not None:
            first = bisect_right(self._first_keys, start) - 1
            if first < 0:
                first = 0
        for index in range(first, len(self._offsets)):
            block = self._block_at(index)
            if start is not None and index == first:
                block = block[bisect_left(block, (start,)):]
            if end is None:
                yield from block
                continue
            for entry in block:
                if entry[0] >= end:
                    return
                yield entry
