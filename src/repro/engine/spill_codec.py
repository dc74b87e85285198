"""Per-block spill codecs: zlib, lzma, and front-coding (DESIGN.md §15).

A codec transforms one block's *raw body* — the format's encoded text
lines, or length-prefixed binary ``(key, payload)`` records — into a
*stored body*, and back.  The framing around the stored body (the
``RBLC`` header carrying the codec id, record count, raw length, stored
length, and a CRC-32 of the stored bytes) lives in
:mod:`repro.engine.block_io`; this module knows nothing about files,
which keeps every byte on the ``open_bytes`` fault seam and out of
reach of the ``zlib``/``lzma`` file APIs that lint rule
R002 bans from the sort path.

Codecs
------

``none``
    The raw body, byte for byte: framing and CRC without compression.

``zlib``
    ``zlib.compress(body, level=1)`` — the cheap codec: a fast
    general-purpose pass whose CPU cost is usually repaid by a single
    merge read of the smaller file.

``lzma``
    ``lzma.compress(body, preset=0)`` — the heavy codec: better ratios
    on text-like payloads at a noticeably higher CPU cost; worth it
    only when multi-pass merge I/O dominates.

``front``
    Front-coding (shared-prefix delta).  Each record's bytes are
    stored as ``varint(prefix) varint(suffix_len) suffix`` where
    ``prefix`` is the length of the longest common prefix with the
    *previous* record's full bytes.  Sorted runs of order-preserving
    binary keys (DESIGN.md §14) place long shared prefixes on adjacent
    records, so this is near-free CPU-wise and shrinks exactly the
    data the merge re-reads.  On unsorted data (partition files) it
    degrades gracefully to a two-varint-per-record overhead.

``front+zlib``
    ``zlib`` over the front-coded stream: front-coding exposes the
    residual suffix redundancy to the byte compressor.

Both directions work block-at-a-time — one call per block, never one
per record — so R007's zero-per-record-decode invariant holds in the
merge readers regardless of codec.
"""

from __future__ import annotations

import lzma
import zlib
from typing import Dict, List, Sequence, Tuple

#: Codec names accepted everywhere a spill codec can be chosen.
SPILL_CODECS: Tuple[str, ...] = ("none", "zlib", "lzma", "front", "front+zlib")

#: Sentinel accepted by the planner: resolve from input size and memory.
AUTO_CODEC = "auto"

#: Wire ids for the RBLC block header and the SSTable index.
CODEC_IDS: Dict[str, int] = {
    "none": 0,
    "zlib": 1,
    "lzma": 2,
    "front": 3,
    "front+zlib": 4,
}

CODEC_NAMES: Dict[int, str] = {value: key for key, value in CODEC_IDS.items()}


class SpillCodecError(ValueError):
    """A stored block body failed to decode back to its raw body.

    Raised for any structural problem — undecodable zlib/lzma streams,
    front-coded records that overrun the stored body, raw-length
    mismatches.  :mod:`repro.engine.block_io` maps it onto
    ``CorruptBlockError`` with the file/block/offset context this
    module does not have.
    """


def validate_codec(codec: str, allow_auto: bool = False) -> str:
    """Return ``codec`` if known, else raise ``ValueError``."""
    if codec == AUTO_CODEC:
        if allow_auto:
            return codec
        raise ValueError(
            "codec 'auto' must be resolved by the planner before it "
            "reaches the spill layer"
        )
    if codec not in SPILL_CODECS:
        known = ", ".join(SPILL_CODECS)
        raise ValueError(f"unknown spill codec {codec!r} (expected one of {known})")
    return codec


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SpillCodecError("front-coded body ends inside a varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise SpillCodecError("front-coded varint exceeds 64 bits")


def _common_prefix_len(a: bytes, b: bytes) -> int:
    """Longest common prefix of two byte strings.

    Binary search over C-level slice comparisons: O(log n) slice
    compares instead of a Python loop per byte.
    """
    limit = min(len(a), len(b))
    if a[:limit] == b[:limit]:
        return limit
    lo, hi = 0, limit - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def front_encode(parts: Sequence[bytes]) -> bytes:
    """Front-code per-record byte strings into one stored body."""
    out = bytearray()
    prev = b""
    for part in parts:
        prefix = _common_prefix_len(prev, part)
        _write_varint(out, prefix)
        _write_varint(out, len(part) - prefix)
        out += part[prefix:]
        prev = part
    return bytes(out)


def front_decode(data: bytes, count: int) -> bytes:
    """Rebuild the raw body from ``count`` front-coded records."""
    chunks: List[bytes] = []
    prev = b""
    pos = 0
    for _ in range(count):
        prefix, pos = _read_varint(data, pos)
        suffix_len, pos = _read_varint(data, pos)
        if prefix > len(prev):
            raise SpillCodecError(
                f"front-coded record claims a {prefix}-byte shared prefix "
                f"but the previous record has only {len(prev)} bytes"
            )
        end = pos + suffix_len
        if end > len(data):
            raise SpillCodecError("front-coded suffix overruns the stored body")
        prev = prev[:prefix] + data[pos:end]
        pos = end
        chunks.append(prev)
    if pos != len(data):
        raise SpillCodecError(
            f"{len(data) - pos} trailing bytes after the last front-coded record"
        )
    return b"".join(chunks)


def compress_body(codec: str, body: bytes, parts: Sequence[bytes]) -> bytes:
    """Encode one block's raw ``body`` under ``codec``.

    ``parts`` are the per-record byte strings whose concatenation is
    ``body``; only the front-coding codecs look at them.
    """
    if codec == "none":
        return body
    if codec == "zlib":
        return zlib.compress(body, 1)
    if codec == "lzma":
        return lzma.compress(body, preset=0)
    if codec == "front":
        return front_encode(parts)
    if codec == "front+zlib":
        return zlib.compress(front_encode(parts), 1)
    raise ValueError(f"codec {codec!r} has no stored-body encoding")


def decompress_body(codec: str, stored: bytes, raw_len: int, count: int) -> bytes:
    """Decode one stored body back to ``raw_len`` raw bytes.

    Raises :class:`SpillCodecError` for any structural corruption so
    the caller can attach file/block/offset context.
    """
    try:
        if codec == "none":
            raw = stored
        elif codec == "zlib":
            raw = zlib.decompress(stored)
        elif codec == "lzma":
            raw = lzma.decompress(stored)
        elif codec == "front":
            raw = front_decode(stored, count)
        elif codec == "front+zlib":
            raw = front_decode(zlib.decompress(stored), count)
        else:
            raise ValueError(f"codec {codec!r} has no stored-body decoding")
    except (zlib.error, lzma.LZMAError) as exc:
        raise SpillCodecError(f"{codec} stream failed to decompress: {exc}") from exc
    if len(raw) != raw_len:
        raise SpillCodecError(
            f"decoded body is {len(raw)} bytes, header promised {raw_len}"
        )
    return raw
