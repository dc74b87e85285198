"""The resident sort service: a threaded front over the scheduler.

A :class:`socketserver.ThreadingTCPServer` accepts connections and
serves each on a thread of its own, reading and writing frames with
the blocking :mod:`repro.service.protocol` helpers the client uses;
all sorting happens in the scheduler's worker threads.

Commands (one request object per frame)::

    {"cmd": "ping"}
    {"cmd": "submit", "job": {...}}        # spec → stable id
    {"cmd": "submit", "id": "..."}         # re-attach after a crash
    {"cmd": "status", "id": "..."}
    {"cmd": "wait", "id": "...", "timeout": s}  # status, once terminal
    {"cmd": "result", "id": "..."}         # header, chunk*, end frames
    {"cmd": "cancel", "id": "..."}
    {"cmd": "jobs"}
    {"cmd": "shutdown"}

``wait`` answers with the ``status`` payload as soon as the job turns
terminal, or with its current status once ``timeout`` seconds (at most
:data:`WAIT_CAP_S`) run out: the connection's thread blocks in
:meth:`JobScheduler.wait`, which the job's completion wakes, so a
waiting client learns of it without polling.

Every response carries ``ok``; failures carry ``error`` and never
close the connection — a client can keep a session open.

Timestamps come from ``time.monotonic()`` — the service never reads
the wall clock, so nothing time-derived can leak into job output.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.engine.resilience import write_marker
from repro.service.jobs import JobSpec
from repro.service.protocol import ProtocolError, recv_message, send_message
from repro.service.scheduler import JobScheduler

__all__ = ["SortService"]

#: Bytes of result text per streamed chunk frame.
_RESULT_CHUNK_BYTES = 256 * 1024

#: Longest one ``wait`` request parks, in seconds.  Well below the
#: client's 30 s socket timeout, so a parked wait never looks like a
#: dead server; a client that wants longer sends ``wait`` again.
WAIT_CAP_S = 10.0

#: Seconds shutdown gives answered waits to write their replies.
_SHUTDOWN_REPLY_S = 1.0

#: Seconds between the listener's checks for a ``shutdown`` request.
_SHUTDOWN_POLL_S = 0.05


class _Listener(socketserver.ThreadingTCPServer):
    """Accepts connections; each is served by ``SortService._serve``
    on a daemon thread, which the service joins itself at shutdown."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True

    def __init__(self, service: "SortService") -> None:
        self.service = service
        super().__init__(
            (service.host, service.port), socketserver.BaseRequestHandler
        )

    def finish_request(self, request: Any, client_address: Any) -> None:
        self.service._serve(request)


class SortService:
    """One resident server instance: a scheduler plus its listener."""

    def __init__(
        self,
        spool: str,
        host: str = "127.0.0.1",
        port: int = 0,
        total_memory: int = 100_000,
        job_workers: int = 8,
        tenant_quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
    ) -> None:
        self.scheduler = JobScheduler(
            spool,
            total_memory=total_memory,
            job_workers=job_workers,
            tenant_quotas=tenant_quotas,
            default_quota=default_quota,
        )
        self.host = host
        self.port = port
        self.bound: Optional[Tuple[str, int]] = None
        self._started_at = 0.0
        self._listener: Optional[_Listener] = None
        # Open connection -> the thread serving it.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def run(self, endpoint_file: Optional[str] = None) -> None:
        """Serve until a ``shutdown`` command or Ctrl-C arrives."""
        listener = _Listener(self)
        self._listener = listener
        self._started_at = time.monotonic()
        sockname = listener.socket.getsockname()
        self.bound = (str(sockname[0]), int(sockname[1]))
        try:
            if endpoint_file:
                # Atomic, like every other publish: a client watching
                # for the endpoint file must never read half an address.
                write_marker(
                    endpoint_file,
                    {"host": self.bound[0], "port": self.bound[1]},
                )
            print(
                f"repro-service listening on {self.bound[0]}:"
                f"{self.bound[1]} (pid {os.getpid()})",
                flush=True,
            )
            listener.serve_forever(_SHUTDOWN_POLL_S)
        finally:
            # A ``shutdown`` request and Ctrl-C tear down alike: stop
            # accepting, cancel the jobs (which answers every parked
            # wait), then end the open connections.
            listener.server_close()
            self.scheduler.shutdown()
            self._close_connections()

    def _close_connections(self) -> None:
        """Let each connection finish the reply it is writing, then
        end it: its next read sees EOF."""
        with self._connections_lock:
            live = dict(self._connections)
        for sock in live:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the client already went away
        deadline = time.monotonic() + _SHUTDOWN_REPLY_S
        for thread in live.values():
            thread.join(max(0.0, deadline - time.monotonic()))

    # -- connection handling ---------------------------------------------------

    def _serve(self, sock: socket.socket) -> None:
        """One connection's requests, in order, until EOF or ``shutdown``."""
        with self._connections_lock:
            self._connections[sock] = threading.current_thread()
        try:
            while True:
                try:
                    request = recv_message(sock)
                except ProtocolError as exc:
                    send_message(sock, {"ok": False, "error": str(exc)})
                    break
                if request is None:
                    break
                self._dispatch(request, sock)
                if request.get("cmd") == "shutdown":
                    break
        except OSError:
            pass  # the client went away mid-request or mid-reply
        finally:
            with self._connections_lock:
                del self._connections[sock]

    def _dispatch(self, request: Dict[str, Any], sock: socket.socket) -> None:
        cmd = str(request.get("cmd", ""))
        try:
            if cmd == "ping":
                send_message(
                    sock,
                    {
                        "ok": True,
                        "uptime_s": round(
                            time.monotonic() - self._started_at, 3
                        ),
                        "jobs": len(self.scheduler.list_jobs()),
                    },
                )
            elif cmd == "submit":
                send_message(sock, self._submit(request))
            elif cmd == "status":
                job_id = str(request.get("id", ""))
                send_message(
                    sock, _reply(job_id, self.scheduler.status(job_id))
                )
            elif cmd == "wait":
                timeout = _wait_timeout(request)
                job_id = str(request.get("id", ""))
                send_message(
                    sock, _reply(job_id, self.scheduler.wait(job_id, timeout))
                )
            elif cmd == "cancel":
                job_id = str(request.get("id", ""))
                cancelled = self.scheduler.cancel(job_id)
                send_message(
                    sock, {"ok": True, "id": job_id, "cancelled": cancelled}
                )
            elif cmd == "jobs":
                send_message(
                    sock, {"ok": True, "jobs": self.scheduler.list_jobs()}
                )
            elif cmd == "result":
                self._stream_result(request, sock)
            elif cmd == "shutdown":
                send_message(sock, {"ok": True, "stopping": True})
                if self._listener is not None:
                    # Returns once run() has stopped serving.
                    self._listener.shutdown()
            else:
                send_message(
                    sock, {"ok": False, "error": f"unknown command {cmd!r}"}
                )
        except (ValueError, RuntimeError) as exc:
            send_message(sock, {"ok": False, "error": str(exc)})

    def _submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "job" in request:
            spec = JobSpec.from_payload(dict(request["job"]))
            state = self.scheduler.submit(spec)
        elif "id" in request:
            reattached = self.scheduler.submit_id(str(request["id"]))
            if reattached is None:
                return {
                    "ok": False,
                    "error": f"unknown job id {request['id']!r} "
                    f"(no persisted spec in the spool)",
                }
            state = reattached
        else:
            return {"ok": False, "error": "submit needs 'job' or 'id'"}
        payload = self.scheduler.status(state.job_id) or {}
        return {"ok": True, **payload}

    def _stream_result(
        self, request: Dict[str, Any], sock: socket.socket
    ) -> None:
        job_id = str(request.get("id", ""))
        payload = self.scheduler.status(job_id)
        if payload is None:
            send_message(sock, _reply(job_id, payload))
            return
        if payload["status"] != "done":
            send_message(
                sock,
                {
                    "ok": False,
                    "error": f"job {job_id} is {payload['status']}, "
                    f"not done; no result to stream",
                },
            )
            return
        path = self.scheduler.result_path(job_id)
        if path is None or not os.path.isfile(path):
            send_message(
                sock,
                {
                    "ok": False,
                    "error": f"result file for job {job_id} is missing "
                    f"({path!r})",
                },
            )
            return
        size = os.path.getsize(path)
        send_message(
            sock, {"ok": True, "type": "header", "id": job_id, "bytes": size}
        )
        # repro: lint-waive R002 result streaming re-reads the published output; the job that wrote it ran inside the seam
        with open(path, "r", encoding="utf-8") as handle:
            while True:
                chunk = handle.read(_RESULT_CHUNK_BYTES)
                if not chunk:
                    break
                send_message(sock, {"type": "chunk", "data": chunk})
        send_message(sock, {"type": "end"})


def _reply(job_id: str, payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """A job's status payload as a reply; an error for an unknown id."""
    if payload is None:
        return {"ok": False, "error": f"unknown job id {job_id!r}"}
    return {"ok": True, **payload}


def _wait_timeout(request: Dict[str, Any]) -> float:
    """A ``wait`` request's timeout in seconds, capped at WAIT_CAP_S."""
    value = request.get("timeout", WAIT_CAP_S)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or value != value  # NaN
        or value < 0
    ):
        raise ValueError(
            f"wait timeout must be a non-negative number of seconds, "
            f"got {value!r}"
        )
    return float(min(value, WAIT_CAP_S))
