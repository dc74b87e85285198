"""Blocking client for the resident sort service.

Used by the CLI ``submit``/``status``/``result``/``cancel``
subcommands, the service tests, and the load generator.  One TCP
connection per request keeps the client trivially robust against
server restarts — exactly the situation the stable job ids exist for.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, TextIO, Tuple

from repro.engine.resilience import read_marker
from repro.service.protocol import ProtocolError, recv_message, send_message

__all__ = ["ServiceClient", "ServiceError", "parse_address", "read_endpoint"]

#: Job states that will never change again (client-side copy so the
#: client works against a server it did not import code from).
_TERMINAL = ("done", "failed", "cancelled")


class ServiceError(Exception):
    """The server answered ``ok: false`` (or unintelligibly)."""


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` → a connectable pair."""
    host, sep, port = address.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"expected HOST:PORT (e.g. 127.0.0.1:7070), got {address!r}"
        )
    return host, int(port)


def read_endpoint(path: str, timeout: float = 10.0) -> str:
    """Wait for a server's endpoint file and return ``host:port``.

    The server publishes the file atomically once it is listening, so
    polling for it is the sanctioned way to wait for startup.
    """
    deadline = time.monotonic() + timeout
    while True:
        payload = read_marker(path)
        if payload and "host" in payload and "port" in payload:
            return f"{payload['host']}:{payload['port']}"
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"no service endpoint appeared at {path!r} "
                f"within {timeout:.0f}s"
            )
        time.sleep(0.05)


class ServiceClient:
    """One server address; every method is a self-contained request."""

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        self.host, self.port = parse_address(address)
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._connect() as sock:
            send_message(sock, payload)
            response = recv_message(sock)
        if response is None:
            raise ServiceError("server closed the connection mid-request")
        if not response.get("ok", False):
            raise ServiceError(
                str(response.get("error", "unspecified server error"))
            )
        return response

    # -- commands --------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._request({"cmd": "ping"})

    def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job spec; returns the job's status payload."""
        return self._request({"cmd": "submit", "job": job})

    def submit_id(self, job_id: str) -> Dict[str, Any]:
        """Re-attach to a job by id (after a server crash/restart)."""
        return self._request({"cmd": "submit", "id": job_id})

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request({"cmd": "status", "id": job_id})

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request({"cmd": "cancel", "id": job_id})

    def jobs(self) -> Dict[str, Any]:
        return self._request({"cmd": "jobs"})

    def shutdown(self) -> Dict[str, Any]:
        return self._request({"cmd": "shutdown"})

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Block until the job reaches a terminal state.

        Each ``wait`` request parks on the server until the job turns
        terminal or the server's window runs out; this re-sends it
        until ``timeout`` seconds have passed, then raises
        ``TimeoutError``.  A window never exceeds half the socket
        timeout, so a parked request cannot time the socket out.
        """
        deadline = time.monotonic() + timeout
        while True:
            window = min(deadline - time.monotonic(), self.timeout / 2)
            payload = self._request(
                {"cmd": "wait", "id": job_id, "timeout": max(0.0, window)}
            )
            if payload.get("status") in _TERMINAL:
                return payload
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload.get('status')!r} "
                    f"after {timeout:.0f}s"
                )

    def result(self, job_id: str, sink: TextIO) -> Dict[str, Any]:
        """Stream a finished job's output into ``sink``.

        Returns the header frame (``bytes`` = total size).  The
        streamed frames arrive on the same connection, so this is the
        one method that keeps its socket open across messages.
        """
        with self._connect() as sock:
            send_message(sock, {"cmd": "result", "id": job_id})
            header = recv_message(sock)
            if header is None:
                raise ServiceError("server closed the connection mid-result")
            if not header.get("ok", False):
                raise ServiceError(
                    str(header.get("error", "unspecified server error"))
                )
            while True:
                frame = recv_message(sock)
                if frame is None:
                    raise ProtocolError(
                        "connection closed before the result 'end' frame"
                    )
                kind = frame.get("type")
                if kind == "chunk":
                    sink.write(str(frame.get("data", "")))
                elif kind == "end":
                    break
                else:
                    raise ProtocolError(
                        f"unexpected result frame type {kind!r}"
                    )
        return header
