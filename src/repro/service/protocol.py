"""Length-prefixed JSON framing shared by server and client.

One message is a 4-byte big-endian payload length followed by that
many bytes of UTF-8 JSON (always one object).  The frame makes the
stream self-delimiting over plain TCP with zero dependencies, and the
JSON body keeps the protocol inspectable — ``nc`` plus a hand-built
header is a usable debugging client.

Both async (server-side ``asyncio`` streams) and sync (client-side
``socket``) helpers live here so the two ends can never drift apart on
framing.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Optional

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "encode_message",
    "read_message",
    "recv_message",
    "send_message",
    "write_message",
]

_HEADER = struct.Struct("!I")

#: Upper bound on one frame; a length above this is a framing bug (or
#: a stray client speaking another protocol), not a real message.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed frame: bad length, truncated body, non-JSON bytes."""


def encode_message(payload: Dict[str, Any]) -> bytes:
    """One wire frame for ``payload`` (header + UTF-8 JSON body)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit"
        )
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        # UnicodeDecodeError, JSONDecodeError, and the int-digit limit
        # on an over-long integer literal are all ValueErrors.
        raise ProtocolError(f"undecodable message body: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"message body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Next message from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-message") from None
    return _decode_body(body)


async def write_message(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    """Send one message over an asyncio stream and drain the buffer."""
    writer.write(encode_message(payload))
    await writer.drain()


def send_message(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Send one message over a blocking socket."""
    sock.sendall(encode_message(payload))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Next message from a blocking socket; None on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError("connection closed mid-header")
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    body = _recv_exactly(sock, length)
    if len(body) < length:
        raise ProtocolError("connection closed mid-message")
    return _decode_body(body)
