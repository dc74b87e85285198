"""Length-prefixed JSON framing shared by server and client.

One message is a 4-byte big-endian payload length followed by that
many bytes of UTF-8 JSON (always one object).  The frame makes the
stream self-delimiting over plain TCP with zero dependencies, and the
JSON body keeps the protocol inspectable — ``nc`` plus a hand-built
header is a usable debugging client.

The framing itself (:func:`encode_message`, the body and length
checks) lives here, with the blocking-socket helpers the client uses;
the server's ``asyncio`` stream helpers in :mod:`repro.service.server`
build on the same pieces, so the two ends can never drift apart on
framing, and the client never imports ``asyncio``.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

__all__ = [
    "HEADER",
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "check_length",
    "decode_body",
    "encode_message",
    "recv_message",
    "send_message",
]

#: The 4-byte big-endian length prefix of every frame.
HEADER = struct.Struct("!I")

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
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """The JSON object a frame body carries; ProtocolError otherwise."""
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


def check_length(length: int) -> None:
    """Refuse a frame header announcing more than the frame limit."""
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )


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
    header = _recv_exactly(sock, HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise ProtocolError("connection closed mid-header")
    (length,) = HEADER.unpack(header)
    check_length(length)
    body = _recv_exactly(sock, length)
    if len(body) < length:
        raise ProtocolError("connection closed mid-message")
    return decode_body(body)
