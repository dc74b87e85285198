"""Batched block readers and writers, and the one spill framing.

The seed's hot loops touched files one record at a time: an f-string
``write()`` per record on the way out, a ``decode(line)`` call per line
on the way back in.  This module batches both directions through
:class:`~repro.core.records.RecordFormat` block codecs, so a sort
moves ``block_records`` records per Python-level file operation — the
built-in formats decode a whole block with one C-level ``map``.

``benchmarks/bench_block_io.py`` measures the difference against the
line-at-a-time baseline and records it in ``BENCH_blockio.json``.

Two kinds of file pass through here, chosen once at each call site by
the ``codec`` argument:

* **Plain lines** (``codec=None``) — the files a user hands the
  program or gets back from it: sort input and output, ``repro merge``
  inputs, service results.  One encoded record per line, nothing else.
* **RBLC block streams** (``codec="none"`` or a real codec from
  :mod:`repro.engine.spill_codec`) — every file the program writes and
  reads back itself: spill runs, intermediate merge outputs, partition
  and shard files, the join's skew spill, SSTable data blocks
  (DESIGN.md §15).  Each block is a 21-byte header — magic ``RBLC``,
  codec byte, record count, raw body length, stored body length,
  CRC-32 of the stored bytes — followed by the stored body.  The raw
  body is one of three kinds: the format's encoded text lines; for
  :class:`~repro.core.records.IntFormat` blocks whose records are all
  exact ``int`` values within int64, a little-endian int64 array
  (flagged by the codec byte's high bit, which also seeds the CRC);
  or, for ``spill_binary`` formats, length-prefixed ``(key, payload)``
  records.  Codec ``none`` stores the raw body byte for byte.  Bodies
  are consumed by length and never scanned, so a record that spells a
  header cannot be mistaken for one, and the CRC is always verified:
  a torn, truncated or bit-flipped block
  raises :class:`~repro.engine.errors.CorruptBlockError` naming the
  file, block index and byte offset instead of merging garbage
  (DESIGN.md §11).

Every spill/shard/partition file is opened through :func:`open_run`,
which routes the fresh handle through :func:`open_text` or
:func:`open_bytes` and from there through an installable wrapper.  The
deterministic fault-injection harness (:mod:`repro.testing.faults`)
uses that seam to place exceptions, short writes and bit flips at
exact block-I/O calls without patching any backend.
"""

from __future__ import annotations

import io
import os
import struct
import sys
import zlib
from array import array
from itertools import chain, islice
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.core.records import IntFormat, RecordFormat
from repro.engine.errors import CorruptBlockError
from repro.engine.spill_codec import (
    CODEC_IDS,
    CODEC_NAMES,
    SpillCodecError,
    compress_body,
    decompress_body,
    validate_codec,
)

#: Records moved per encode/decode batch by default.  Also the default
#: merge read-buffer size (one buffer holds one block).
DEFAULT_BLOCK_RECORDS = 4096

#: Magic leading every block of a spill file (DESIGN.md §15).
BLOCK_MAGIC = b"RBLC"

#: The spill framing's name in resume fingerprints: a work directory
#: journaled under another framing is wiped, never resumed.
SPILL_FRAMING = "rblc"

#: Block header: magic, codec id, record count, raw body length, stored
#: body length, CRC-32 of the stored bytes.  The CRC sits in front of
#: the decompressor and the record parser, so corruption is reported
#: with file context before either touches the bytes.
_HEADER = struct.Struct(f">{len(BLOCK_MAGIC)}sBIIII")

#: Per-record length prefix inside a binary block body.
_RECORD_LEN = struct.Struct(">I")

#: Body-kind flag on the header's codec byte (codec ids use the low
#: seven bits).  Clear: the body is text lines or binary records, as
#: the format says.  Set: the body is an int64 array.
_KIND_INT64 = 0x80

#: CRC seed of an int64 block: the CRC-32 of its kind byte.  Text and
#: binary blocks keep the unseeded CRC, so a flipped kind bit reads as
#: a checksum mismatch in either direction instead of reinterpreting a
#: body of the right length.
_INT64_CRC_SEED = zlib.crc32(bytes([_KIND_INT64]))

#: Bytes per record of an int64 body.
_INT64_SIZE = 8

#: int64 bodies are little-endian on disk whatever the host order.
_SWAP_INT64 = sys.byteorder != "little"

#: Installed by :func:`set_io_wrapper`; wraps every handle that
#: :func:`open_text` and :func:`open_bytes` return.  ``None`` = no
#: wrapping (production).
_IO_WRAPPER: Optional[Callable[[Any, str, str], Any]] = None


def set_io_wrapper(wrapper: Optional[Callable[[Any, str, str], Any]]) -> None:
    """Install (or clear, with None) the global block-I/O file wrapper.

    The wrapper receives ``(handle, path, mode)`` for every file opened
    through :func:`open_text` or :func:`open_bytes` and must return a
    file-like object.  Only the fault-injection harness installs one;
    see :func:`repro.testing.faults.activate`.
    """
    global _IO_WRAPPER
    _IO_WRAPPER = wrapper


def _wrapped(handle: Any, path: str, mode: str) -> Any:
    wrapper = _IO_WRAPPER
    if wrapper is None:
        return handle
    try:
        return wrapper(handle, path, mode)
    except BaseException:
        handle.close()
        raise


def open_text(path: str, mode: str = "r") -> TextIO:
    """Open a plain-line file through the block-I/O seam."""
    return _wrapped(open(path, mode, encoding="utf-8"), path, mode)


def open_bytes(path: str, mode: str = "r") -> Any:
    """The binary twin of :func:`open_text` — same fault seam.

    The installed wrapper sees the byte-mode string (``rb``/``wb``),
    so the fault harness can flip bytes instead of characters; reads
    and writes it observes are whole block headers and bodies (the
    block reader makes exactly two ``read()`` calls per block).
    """
    byte_mode = mode if "b" in mode else mode + "b"
    return _wrapped(open(path, byte_mode), path, byte_mode)


def open_run(path: str, mode: str, codec: Optional[str] = "none") -> Any:
    """Open a run/shard/partition file for ``codec``'s framing.

    ``codec=None`` opens a plain-line text file; any codec name opens
    the file in byte mode for RBLC blocks.
    """
    if codec is None:
        return open_text(path, mode)
    return open_bytes(path, mode)


def validate_block_records(block_records: int) -> int:
    """Clear error for a nonsensical block size (satellite guard)."""
    if block_records < 1:
        raise ValueError(
            f"block_records must be >= 1, got {block_records}"
        )
    return block_records


def _pack_binary_body(records: List[Any]) -> bytes:
    """Length-prefix ``(key_bytes, payload_bytes)`` records into a body."""
    pack = _RECORD_LEN.pack
    parts: List[bytes] = []
    append = parts.append
    for key, payload in records:
        append(pack(len(key)))
        append(key)
        append(pack(len(payload)))
        append(payload)
    return b"".join(parts)


def _unpack_binary_body(
    body: bytes,
    count: int,
    path: str,
    index: int,
    offset: int,
) -> List[Any]:
    size = len(body)
    unpack_from = _RECORD_LEN.unpack_from
    records: List[Any] = []
    append = records.append
    pos = 0
    try:
        for _ in range(count):
            (key_len,) = unpack_from(body, pos)
            pos += 4
            key_end = pos + key_len
            (payload_len,) = unpack_from(body, key_end)
            payload_end = key_end + 4 + payload_len
            if payload_end > size:
                raise struct.error("record overruns block body")
            append((body[pos:key_end], body[key_end + 4 : payload_end]))
            pos = payload_end
    except struct.error:
        raise CorruptBlockError(
            path, index, offset,
            f"binary block body is malformed: record lengths overrun "
            f"the {size}-byte body",
        ) from None
    if pos != size:
        raise CorruptBlockError(
            path, index, offset,
            f"binary block body has {size - pos} trailing byte(s) after "
            f"{count} declared record(s)",
        )
    return records


def body_encoding(fmt: RecordFormat) -> str:
    """The block-body kind of ``fmt``'s RBLC files, for resume identity.

    ``"binary"`` for ``spill_binary`` formats, ``"int64"`` for
    :class:`~repro.core.records.IntFormat` (int64 bodies, with a text
    body for any block that does not fit), ``"text"`` otherwise.  The
    kinds are not mutually readable, so a work directory journaled
    under another kind is wiped, never resumed.
    """
    if getattr(fmt, "spill_binary", False):
        return "binary"
    if isinstance(fmt, IntFormat):
        return "int64"
    return "text"


def _pack_int64_body(records: List[Any]) -> Optional[bytes]:
    """``records`` as a little-endian int64 body, or None.

    None unless every record is an exact ``int`` within int64: a
    ``bool`` or ``IntEnum`` would come back as a plain int and change
    the output bytes, and a wider int does not fit.  The type test is
    one C-level ``map`` plus a ``list.count`` identity scan.
    """
    if list(map(type, records)).count(int) != len(records):
        return None
    try:
        values = array("q", records)
    except OverflowError:
        return None
    if _SWAP_INT64:
        values.byteswap()
    return values.tobytes()


def _decode_int64_body(
    fmt: RecordFormat,
    body: bytes,
    count: int,
    path: str,
    index: int,
    offset: int,
) -> List[Any]:
    if body_encoding(fmt) != "int64":
        raise CorruptBlockError(
            path, index, offset,
            f"block has an int64 body but is read as format "
            f"{fmt.name!r}; only int records are spilled as int64",
        )
    if len(body) != _INT64_SIZE * count:
        raise CorruptBlockError(
            path, index, offset,
            f"int64 body is {len(body)} bytes, header promised {count} "
            f"record(s) of {_INT64_SIZE} bytes",
        )
    values = array("q")
    values.frombytes(body)
    if _SWAP_INT64:
        values.byteswap()
    return values.tolist()


def _decode_text_body(
    fmt: RecordFormat,
    body: bytes,
    count: int,
    path: str,
    index: int,
    offset: int,
) -> List[Any]:
    """Parse a text body into records, one per ``"\\n"``-ended line.

    ``StringIO.readlines`` splits on ``"\\n"`` only, like a text-mode
    file read; ``str.splitlines`` would also break records that
    contain ``\\x85``, ``\\x0c`` or ``\\u2028``.
    """
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptBlockError(
            path, index, offset, f"block body is not valid UTF-8: {exc}",
        ) from None
    block = fmt.decode_block(io.StringIO(text).readlines())
    if len(block) != count:
        raise CorruptBlockError(
            path, index, offset,
            f"block body decodes to {len(block)} record(s), header "
            f"promised {count}",
        )
    return block


def _read_block_at(
    handle: Any,
    fmt: RecordFormat,
    codec: str,
    path: str,
    index: int,
    offset: int,
) -> Optional[Tuple[List[Any], int]]:
    """One RBLC block at the handle's current position.

    Returns ``(records, bytes_consumed)``, or ``None`` at a clean end
    of input (no header bytes at all).  ``path``/``index``/``offset``
    only label :class:`~repro.engine.errors.CorruptBlockError`s — the
    handle's position is the single source of truth, which is what
    lets the SSTable reader (DESIGN.md §17) seek to a sparse-index
    offset and reuse exactly this parser for random block access.
    """
    header = handle.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise CorruptBlockError(
            path, index, offset,
            f"truncated block header: {len(header)} of {_HEADER.size} "
            f"bytes — file was torn mid-write",
        )
    magic, codec_byte, count, raw_len, stored_len, want_crc = _HEADER.unpack(
        header
    )
    int64 = codec_byte & _KIND_INT64
    codec_id = codec_byte & ~_KIND_INT64
    if magic != BLOCK_MAGIC:
        raise CorruptBlockError(
            path, index, offset,
            f"bad block header magic {magic!r} — file is torn or is not "
            f"an RBLC spill file",
        )
    if codec_id != CODEC_IDS[codec]:
        found = CODEC_NAMES.get(codec_id, f"unknown id {codec_id}")
        raise CorruptBlockError(
            path, index, offset,
            f"block was written with codec {found!r} but the reader "
            f"expects {codec!r} — spill codecs must not mix within "
            f"one file",
        )
    stored = handle.read(stored_len)
    if len(stored) < stored_len:
        raise CorruptBlockError(
            path, index, offset,
            f"truncated block: header declares {stored_len} stored "
            f"bytes, file ends after {len(stored)}",
        )
    got_crc = zlib.crc32(stored, _INT64_CRC_SEED if int64 else 0)
    if got_crc != want_crc:
        raise CorruptBlockError(
            path, index, offset,
            f"checksum mismatch: header says {want_crc:08x}, stored "
            f"bytes hash to {got_crc:08x} — block was corrupted on "
            f"disk or torn mid-write",
        )
    try:
        body = decompress_body(codec, stored, raw_len)
    except SpillCodecError as exc:
        raise CorruptBlockError(path, index, offset, str(exc)) from None
    if int64:
        block = _decode_int64_body(fmt, body, count, path, index, offset)
    elif getattr(fmt, "spill_binary", False):
        block = _unpack_binary_body(body, count, path, index, offset)
    else:
        block = _decode_text_body(fmt, body, count, path, index, offset)
    return block, _HEADER.size + stored_len


def read_framed_block(
    handle: Any,
    fmt: RecordFormat,
    *,
    path: str = "<stream>",
    index: int = 0,
    offset: int = 0,
    codec: str = "none",
) -> Optional[Tuple[List[Any], int]]:
    """Read one RBLC block at the handle's current position.

    The random-access twin of :func:`read_blocks`: callers that keep
    their own block offsets — the SSTable sparse index above all —
    seek the handle and parse exactly one block through the same
    corruption-checked code path the streaming readers use.  Returns
    ``(records, bytes_consumed)``, or ``None`` when the handle is at a
    clean end of input; ``path``/``index``/``offset`` label any
    :class:`~repro.engine.errors.CorruptBlockError`.
    """
    codec = validate_codec(codec)
    return _read_block_at(handle, fmt, codec, path, index, offset)


def read_blocks(
    handle: Any,
    fmt: RecordFormat,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    skip_blank: bool = False,
    codec: Optional[str] = "none",
) -> Iterator[List[Any]]:
    """Yield decoded blocks of a plain-line file or an RBLC stream.

    With ``codec=None`` the handle is a plain-line text file, read in
    blocks of exactly ``block_records`` records (the last may be
    short); boundaries are deterministic (``islice`` over lines), so
    buffering instrumentation and tests see stable block sizes.
    ``skip_blank=True`` drops whitespace-only lines
    (:func:`_decode_skipping_blank`) — the CLI's historical blank-line
    tolerance for caller-provided files; the caller is responsible for
    only requesting it when ``fmt.blank_input_skippable`` holds.

    Any codec name reads RBLC blocks from a byte handle
    (:func:`open_run`): blocks come back in their written sizes and
    every stored-body CRC is verified, so ``block_records`` and
    ``skip_blank`` do not apply.  The codec must match the one the
    file was written with — a mismatched block raises
    ``CorruptBlockError``.
    """
    validate_block_records(block_records)
    if codec is None:
        while True:
            lines = list(islice(handle, block_records))
            if not lines:
                return
            if not skip_blank:
                yield fmt.decode_block(lines)
                continue
            block = _decode_skipping_blank(fmt, lines)
            if block:
                yield block
    codec = validate_codec(codec)
    path = getattr(handle, "name", "<stream>")
    offset = 0
    index = 0
    while True:
        result = _read_block_at(handle, fmt, codec, path, index, offset)
        if result is None:
            return
        block, consumed = result
        offset += consumed
        index += 1
        yield block


def _decode_skipping_blank(fmt: RecordFormat, lines: List[str]) -> List[Any]:
    """Decode ``lines`` without their whitespace-only lines.

    No numeric record is whitespace, so a numeric block is decoded as
    it stands and filtered only when that raises: the second decode
    then fails on the first bad line that is not blank, the error a
    filter-first decode gives.  Other formats may decode a blank line
    (a csv row keyed on column 0), so they filter first whenever one
    C-level scan finds a blank line.
    """
    if fmt.numeric:
        try:
            return fmt.decode_block(lines)
        except ValueError:
            pass
    elif not any(map(str.isspace, lines)):
        return fmt.decode_block(lines)
    return fmt.decode_block([line for line in lines if line.strip()])


def iter_records(
    handle: Any,
    fmt: RecordFormat,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    skip_blank: bool = False,
    codec: Optional[str] = "none",
) -> Iterator[Any]:
    """Stream individual records, decoded block-at-a-time.

    ``skip_blank`` requests the CLI's historical input tolerance
    (trailing newlines, blank separator lines); it only takes effect
    for plain-line files of formats whose records cannot be whitespace
    (``fmt.blank_input_skippable`` — the numeric formats).  For text
    formats a blank or whitespace-only line *is* a record, so nothing
    is dropped and the output agrees with ``sort(1)`` line for line.
    ``codec`` selects the framing exactly as in :func:`read_blocks`.
    """
    return chain.from_iterable(read_blocks(
        handle, fmt, block_records,
        skip_blank=skip_blank and fmt.blank_input_skippable,
        codec=codec,
    ))


class BlockWriter:
    """Buffered record writer: one encode and write per block.

    Not a context manager on purpose — it never owns the handle; the
    caller must invoke :meth:`flush` before closing the file (or use
    :func:`write_block_file`, which does).

    With ``codec=None`` each block is written as plain lines to a text
    handle.  Any codec name writes one RBLC block (header, then stored
    body) per flush to a byte handle — an int64 body when the format is
    :class:`~repro.core.records.IntFormat` and the block's records
    allow it, else the format's text or binary body.  It keeps
    :attr:`file_crc`, the running CRC-32 of every byte written so far,
    which the resilience journal records per finished run so a resumed
    sort can verify survivors without trusting them.
    """

    def __init__(
        self,
        handle: Any,
        fmt: RecordFormat,
        block_records: int = DEFAULT_BLOCK_RECORDS,
        codec: Optional[str] = "none",
    ) -> None:
        validate_block_records(block_records)
        self._handle = handle
        self._fmt = fmt
        self._block_records = block_records
        self._codec = codec if codec is None else validate_codec(codec)
        self._binary = getattr(fmt, "spill_binary", False)
        self._int64 = body_encoding(fmt) == "int64"
        self._pending: List[Any] = []
        #: Total records written (including still-buffered ones).
        self.written = 0
        #: Running CRC-32 of all bytes written (RBLC files only).
        self.file_crc = 0
        #: Encoded record bytes — block bodies before codec and
        #: header (characters for plain-line files).
        self.raw_bytes = 0
        #: Bytes actually written, headers included.
        self.disk_bytes = 0

    def write(self, record: Any) -> None:
        self._pending.append(record)
        self.written += 1
        if len(self._pending) >= self._block_records:
            self.flush()

    def write_all(self, records: Iterable[Any]) -> int:
        """Write every record of a stream; returns how many.

        Each block is filled by one ``list.extend`` over a slice of the
        source.  ``written`` stays exact when the source raises
        part-way, because ``extend`` keeps the prefix it has appended.
        """
        before = self.written
        source = iter(records)
        pending = self._pending
        block_records = self._block_records
        while True:
            start = len(pending)
            try:
                pending.extend(islice(source, block_records - start))
            finally:
                self.written += len(pending) - start
            if len(pending) < block_records:
                return self.written - before
            self.flush()

    def write_blocks(self, blocks: Iterable[Sequence[Any]]) -> int:
        """Write every record of a stream of blocks; returns how many.

        The records land in the same blocks :meth:`write_all` would
        give them — every ``block_records`` records, whatever the sizes
        of the incoming lists — and every block goes through
        :meth:`flush`.
        """
        before = self.written
        pending = self._pending
        block_records = self._block_records
        for block in blocks:
            self.written += len(block)
            start = 0
            while True:
                room = block_records - len(pending)
                if len(block) - start < room:
                    pending += block[start:] if start else block
                    break
                pending += block[start:start + room]
                start += room
                self.flush()
        return self.written - before

    def flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        codec = self._codec
        if codec is None:
            text = self._fmt.encode_block(pending)
            self._handle.write(text)
            self.raw_bytes += len(text)
            self.disk_bytes += len(text)
            # Cleared in place: write_all holds a local alias.
            pending.clear()
            return
        kind = crc_seed = 0
        body = _pack_int64_body(pending) if self._int64 else None
        if body is not None:
            kind, crc_seed = _KIND_INT64, _INT64_CRC_SEED
        elif self._binary:
            body = _pack_binary_body(pending)
        else:
            body = self._fmt.encode_block(pending).encode("utf-8")
        stored = compress_body(codec, body)
        header = _HEADER.pack(
            BLOCK_MAGIC, CODEC_IDS[codec] | kind, len(pending), len(body),
            len(stored), zlib.crc32(stored, crc_seed),
        )
        self._handle.write(header)
        self._handle.write(stored)
        self.file_crc = zlib.crc32(stored, zlib.crc32(header, self.file_crc))
        self.raw_bytes += len(body)
        self.disk_bytes += len(header) + len(stored)
        pending.clear()


def write_block_file(
    path: str,
    records: Iterable[Any],
    fmt: RecordFormat,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    fsync: bool = False,
    codec: Optional[str] = "none",
    session: Optional[Any] = None,
) -> Tuple[int, int]:
    """Write a whole record source as one RBLC (or, for ``codec=None``,
    plain-line) file.

    Returns ``(record_count, file_crc32)``.  The CRC covers every byte
    the writer produced *before* the operating system or an injected
    fault had a chance to mangle them, so a journal entry describes
    the intended file and a later verification pass catches any
    divergence.  ``fsync=True`` flushes the file to stable storage
    before returning — a journaled run must never outlive its data.
    ``session`` (a :class:`~repro.sort.spill.SpillSession` or anything
    with a ``spilled(raw_bytes, disk_bytes)`` method) receives the
    write's byte accounting.
    """
    with open_run(path, "w", codec) as handle:
        writer = BlockWriter(handle, fmt, block_records, codec)
        writer.write_all(records)
        writer.flush()
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    if session is not None:
        session.spilled(writer.raw_bytes, writer.disk_bytes)
    return writer.written, writer.file_crc


def write_sequence(
    path: str,
    records: Iterable[Any],
    fmt: RecordFormat,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    codec: Optional[str] = "none",
    session: Optional[Any] = None,
) -> int:
    """Write one spill run to ``path``; returns its length.

    :func:`write_block_file` without the fsync, for runs whose loss
    only costs the current sort.
    """
    count, _ = write_block_file(
        path, records, fmt, block_records, codec=codec, session=session
    )
    return count
