"""Record shape of the LSM store (DESIGN.md §17).

A store entry reuses the §14 binary record shape — a ``(key_bytes,
meta_bytes)`` tuple — with the *meta* payload laid out so that plain
tuple comparison performs every ordering job the engine needs:

    meta = pack(">Q", SEQNO_MAX - seqno) + op_byte + value_bytes

* Sorting entries sorts by key first (tuple element 0), which is what
  SSTables, the merge heap and range scans order by.
* Among equal keys the **inverted** sequence number at the front of the
  meta bytes makes the *newest* write compare smallest, so
  last-writer-wins dedup after a k-way merge is simply "keep the first
  entry of each equal-key group" — ``itertools.groupby`` over C-level
  tuple comparisons, zero per-record decodes (the R007 invariant).
* The op byte after the seqno distinguishes a put from a tombstone;
  testing it is a single byte index (``meta[8] == TOMBSTONE_BYTE``),
  again no decode.

Everything downstream — :mod:`repro.store.sstable`,
:mod:`repro.store.compaction`, the scan path — moves these tuples
around without ever unpacking them; the only decode points are the two
boundaries (WAL replay into the memtable, and handing a value back to
the caller, which is one slice).
"""

from __future__ import annotations

import struct
from typing import Any, List, Sequence

from repro.core.records import RecordFormat

__all__ = [
    "SEQNO_MAX",
    "PUT",
    "TOMBSTONE",
    "PUT_BYTE",
    "TOMBSTONE_BYTE",
    "META_PREFIX",
    "StoreFormat",
    "STORE_FORMAT",
    "encode_meta",
    "meta_seqno",
    "meta_is_tombstone",
    "meta_value",
]

#: Largest representable sequence number (unsigned 64-bit).  Sequence
#: numbers are stored *inverted* (``SEQNO_MAX - seqno``) so smaller
#: stored bytes mean newer writes.
SEQNO_MAX = (1 << 64) - 1

_SEQ = struct.Struct(">Q")

#: Operation bytes.  PUT sorts before TOMBSTONE only by accident of
#: value — ordering between ops never matters because two entries with
#: the same key and seqno cannot exist (seqnos are globally unique).
PUT = b"\x00"
TOMBSTONE = b"\x01"

#: Integer twins for the hot loops: ``meta[8] == TOMBSTONE_BYTE`` is an
#: int comparison on an indexed byte, no slicing or decoding.
PUT_BYTE = 0
TOMBSTONE_BYTE = 1

#: Bytes of meta before the value: 8 inverted-seqno bytes + 1 op byte.
META_PREFIX = 9


def encode_meta(seqno: int, op: bytes, value: bytes = b"") -> bytes:
    """Pack ``(seqno, op, value)`` into ordered meta bytes."""
    if not 0 <= seqno <= SEQNO_MAX:
        raise ValueError(f"seqno out of range: {seqno}")
    return _SEQ.pack(SEQNO_MAX - seqno) + op + value


def meta_seqno(meta: bytes) -> int:
    """The (un-inverted) sequence number a meta payload carries."""
    return SEQNO_MAX - _SEQ.unpack_from(meta)[0]


def meta_is_tombstone(meta: bytes) -> bool:
    """Whether the meta payload records a delete."""
    return meta[8] == TOMBSTONE_BYTE


def meta_value(meta: bytes) -> bytes:
    """The stored value bytes (empty for tombstones)."""
    return meta[META_PREFIX:]


class StoreFormat(RecordFormat):
    """The store's entry shape for :class:`~repro.engine.block_io.
    BlockWriter` and the RBLC block reader.

    ``spill_binary = True`` makes every block body length-prefixed
    binary records, whose writer and reader touch only
    ``entry[0]``/``entry[1]`` — they never call ``encode``/``decode``.
    The text-side methods are therefore deliberately left as the base
    class's ``NotImplementedError`` stubs: the store has no text
    boundary, and ``tests/test_store_faults.py`` instruments exactly
    these methods to prove the hot loops never reach them (R007,
    runtime-checked, not just lint-checked).
    """

    name = "store"
    numeric = False
    #: block_io writes this format's block bodies as binary records.
    spill_binary = True

    def fields(self, record: Any) -> List[str]:  # pragma: no cover
        raise NotImplementedError("store entries have no text fields")

    def project(
        self, record: Any, columns: Sequence[int]
    ) -> List[str]:  # pragma: no cover
        raise NotImplementedError("store entries have no text fields")


#: Module singleton — the format is stateless.
STORE_FORMAT = StoreFormat()
