"""Per-block spill codecs: none, zlib and lzma (DESIGN.md §15).

A codec transforms one block's *raw body* — the format's encoded text
lines, length-prefixed binary ``(key, payload)`` records, or an int64
array — into a *stored body*, and back.  The framing around the stored
body (the ``RBLC`` header carrying the codec id, record count, raw
length, stored length, and a CRC-32 of the stored bytes) lives in
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
    general-purpose pass whose CPU cost is repaid only where spill I/O
    is slower than this machine's local disk.

``lzma``
    ``lzma.compress(body, preset=0)`` — the heavy codec: better ratios
    at a noticeably higher CPU cost; worth it only when multi-pass
    merge I/O dominates.

Both directions work block-at-a-time — one call per block, never one
per record — so R007's zero-per-record-decode invariant holds in the
merge readers regardless of codec.
"""

from __future__ import annotations

import lzma
import zlib
from typing import Dict, Tuple

#: Codec names accepted everywhere a spill codec can be chosen.
SPILL_CODECS: Tuple[str, ...] = ("none", "zlib", "lzma")

#: Wire ids for the RBLC block header and the SSTable index.  Ids 3
#: and 4 belonged to the retired front-coding codecs and must never
#: be reused: a file still carrying them fails as an unknown id.
CODEC_IDS: Dict[str, int] = {
    "none": 0,
    "zlib": 1,
    "lzma": 2,
}

CODEC_NAMES: Dict[int, str] = {value: key for key, value in CODEC_IDS.items()}


class SpillCodecError(ValueError):
    """A stored block body failed to decode back to its raw body.

    Raised for any structural problem — undecodable zlib/lzma streams,
    raw-length mismatches.  :mod:`repro.engine.block_io` maps it onto
    ``CorruptBlockError`` with the file/block/offset context this
    module does not have.
    """


def validate_codec(codec: str) -> str:
    """Return ``codec`` if it names a spill codec, else raise ``ValueError``."""
    if codec not in SPILL_CODECS:
        known = ", ".join(SPILL_CODECS)
        raise ValueError(f"unknown spill codec {codec!r} (expected one of {known})")
    return codec


def compress_body(codec: str, body: bytes) -> bytes:
    """Encode one block's raw ``body`` under ``codec``."""
    if codec == "none":
        return body
    if codec == "zlib":
        return zlib.compress(body, 1)
    if codec == "lzma":
        return lzma.compress(body, preset=0)
    raise ValueError(f"codec {codec!r} has no stored-body encoding")


def decompress_body(codec: str, stored: bytes, raw_len: int) -> bytes:
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
        else:
            raise ValueError(f"codec {codec!r} has no stored-body decoding")
    except (zlib.error, lzma.LZMAError) as exc:
        raise SpillCodecError(f"{codec} stream failed to decompress: {exc}") from exc
    if len(raw) != raw_len:
        raise SpillCodecError(
            f"decoded body is {len(raw)} bytes, header promised {raw_len}"
        )
    return raw
