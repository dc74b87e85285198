"""Text ⇄ bytes codec for store keys, values and operation logs.

Store keys and values are arbitrary bytes, but the CLI and the service
speak line-oriented text.  This module fixes one reversible escaping
so both directions are lossless:

* printable ASCII passes through, except backslash and tab (the field
  separator), which escape to ``\\\\`` and ``\\t``;
* newline and carriage return escape to ``\\n`` and ``\\r``;
* every other byte renders as ``\\xNN``.

``unescape_bytes`` additionally accepts non-ASCII *text* (a user
typing a unicode key at the shell) by storing its UTF-8 bytes — the
escaped rendering of such a key is then the ``\\xNN`` form, so
``unescape_bytes(escape_bytes(data)) == data`` holds for every byte
string.

An *operation log* is a text file of one operation per line::

    put\\tKEY\\tVALUE
    del\\tKEY

with KEY/VALUE escaped as above.  ``repro store ingest`` applies one;
``repro store scan`` emits ``KEY\\tVALUE`` lines in the same escaping,
so a scan of store A piped through ``ingest`` rebuilds its live items
in store B.  The differential tests replay the same logs against a
sqlite oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.store.store import Store

__all__ = [
    "escape_bytes",
    "unescape_bytes",
    "format_item",
    "parse_op_line",
    "apply_oplog",
]

_ESCAPES = {0x5C: "\\\\", 0x09: "\\t", 0x0A: "\\n", 0x0D: "\\r"}


def escape_bytes(data: bytes) -> str:
    """Render raw bytes as one unambiguous, tab-free text token."""
    parts = []
    for byte in data:
        mapped = _ESCAPES.get(byte)
        if mapped is not None:
            parts.append(mapped)
        elif 0x20 <= byte < 0x7F:
            parts.append(chr(byte))
        else:
            parts.append(f"\\x{byte:02x}")
    return "".join(parts)


def unescape_bytes(text: str) -> bytes:
    """Invert :func:`escape_bytes`; raises :class:`ValueError` on
    malformed escapes so a typo'd oplog fails loudly, not silently."""
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            code = ord(ch)
            if code < 0x80:
                out.append(code)
            else:
                out.extend(ch.encode("utf-8"))
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError(
                f"dangling backslash at end of token {text!r}"
            )
        nxt = text[i + 1]
        if nxt == "\\":
            out.append(0x5C)
            i += 2
        elif nxt == "t":
            out.append(0x09)
            i += 2
        elif nxt == "n":
            out.append(0x0A)
            i += 2
        elif nxt == "r":
            out.append(0x0D)
            i += 2
        elif nxt == "x":
            pair = text[i + 2 : i + 4]
            try:
                if len(pair) != 2:
                    raise ValueError
                out.append(int(pair, 16))
            except ValueError:
                raise ValueError(
                    f"bad \\x escape at offset {i} of token {text!r}: "
                    f"expected two hex digits"
                ) from None
            i += 4
        else:
            raise ValueError(
                f"unknown escape \\{nxt} at offset {i} of token "
                f"{text!r} (known: \\\\ \\t \\n \\r \\xNN)"
            )
    return bytes(out)


def format_item(key: bytes, value: bytes) -> str:
    """One scan-output line (no trailing newline)."""
    return f"{escape_bytes(key)}\t{escape_bytes(value)}"


def parse_op_line(
    line: str, lineno: int = 0
) -> Optional[Tuple[str, bytes, bytes]]:
    """Parse one oplog line into ``(op, key, value)``.

    Blank lines return None (skippable); anything else malformed
    raises :class:`ValueError` naming the line.  ``del`` lines carry
    ``b""`` as their value.
    """
    line = line.rstrip("\r\n")
    if not line:
        return None
    parts = line.split("\t")
    op = parts[0]
    if op == "put":
        if len(parts) != 3:
            raise ValueError(
                f"oplog line {lineno}: 'put' takes KEY<TAB>VALUE, got "
                f"{len(parts) - 1} field(s)"
            )
        return op, unescape_bytes(parts[1]), unescape_bytes(parts[2])
    if op == "del":
        if len(parts) != 2:
            raise ValueError(
                f"oplog line {lineno}: 'del' takes KEY alone, got "
                f"{len(parts) - 1} field(s)"
            )
        return op, unescape_bytes(parts[1]), b""
    raise ValueError(
        f"oplog line {lineno}: unknown op {op!r} (expected put or del)"
    )


def apply_oplog(store: "Store", lines: Iterable[str]) -> int:
    """Apply every operation of an oplog to ``store``, in order; return
    how many were applied.  A malformed line raises ``ValueError``
    naming it, after the lines before it were applied."""
    applied = 0
    for lineno, line in enumerate(lines, start=1):
        parsed = parse_op_line(line, lineno)
        if parsed is None:
            continue
        op, key, value = parsed
        if op == "put":
            store.put(key, value)
        else:
            store.delete(key)
        applied += 1
    return applied
