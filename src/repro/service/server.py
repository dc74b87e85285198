"""The resident sort service: an asyncio front over the scheduler.

One event loop accepts connections (``asyncio.start_server``) and
speaks the length-prefixed JSON protocol; all sorting happens in the
scheduler's worker threads, so the loop only ever does cheap dict
work, file-chunk reads via the default executor, and socket I/O.

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
:data:`WAIT_CAP_S`) run out.  The scheduler pushes each completion to
the loop, so a waiting client learns of it without polling.

Every response carries ``ok``; failures carry ``error`` and never
close the connection — a client can keep a session open.

Timestamps use the event loop's own monotonic clock (``loop.time()``,
the sanctioned R006 carve-out) — the service never reads the wall
clock, so nothing time-derived can leak into job output.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, Optional, Set, Tuple

from repro.engine.resilience import write_marker
from repro.service.jobs import JobSpec
from repro.service.protocol import (
    HEADER,
    ProtocolError,
    check_length,
    decode_body,
    encode_message,
)
from repro.service.scheduler import TERMINAL_STATES, JobScheduler

__all__ = ["SortService"]

#: Bytes of result text per streamed chunk frame.
_RESULT_CHUNK_BYTES = 256 * 1024

#: Longest one ``wait`` request parks, in seconds.  Well below the
#: client's 30 s socket timeout, so a parked wait never looks like a
#: dead server; a client that wants longer sends ``wait`` again.
WAIT_CAP_S = 10.0

#: Seconds shutdown gives answered waits to write their replies.
_SHUTDOWN_REPLY_S = 1.0


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Next message from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header") from None
    (length,) = HEADER.unpack(header)
    check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-message") from None
    return decode_body(body)


async def write_message(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    """Send one message over an asyncio stream and drain the buffer."""
    writer.write(encode_message(payload))
    await writer.drain()


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
            on_finish=self._job_finished,
        )
        self.host = host
        self.port = port
        self.bound: Optional[Tuple[str, int]] = None
        self._stop = asyncio.Event()
        self._started_at = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Job id -> futures of the ``wait`` requests parked on it.
        # Touched only on the loop thread; each request removes its own
        # future once its reply is written.
        self._waiters: Dict[str, Set["asyncio.Future[None]"]] = {}
        self._no_waiters = asyncio.Event()
        self._no_waiters.set()

    async def run(self, endpoint_file: Optional[str] = None) -> None:
        """Serve until a ``shutdown`` command or Ctrl-C arrives."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._started_at = loop.time()
        sockname = server.sockets[0].getsockname()
        self.bound = (str(sockname[0]), int(sockname[1]))
        if endpoint_file:
            # Atomic, like every other publish: a client watching for
            # the endpoint file must never read half an address.
            write_marker(
                endpoint_file,
                {"host": self.bound[0], "port": self.bound[1]},
            )
        print(
            f"repro-service listening on {self.bound[0]}:{self.bound[1]} "
            f"(pid {os.getpid()})",
            flush=True,
        )
        async with server:
            try:
                await self._stop.wait()
            finally:
                # A ``shutdown`` request and Ctrl-C (which cancels this
                # task) tear down alike.  Leaving the block waits for
                # open connections (3.12+), and a parked ``wait`` holds
                # one open: stop accepting, cancel the jobs, and answer
                # every wait before that.
                server.close()
                await loop.run_in_executor(None, self.scheduler.shutdown)
                for job_id in list(self._waiters):
                    self._wake(job_id)
                try:
                    await asyncio.wait_for(
                        self._no_waiters.wait(), _SHUTDOWN_REPLY_S
                    )
                except asyncio.TimeoutError:
                    pass

    # -- completion push -------------------------------------------------------

    def _job_finished(self, job_id: str) -> None:
        """Scheduler hook, on a worker thread: wake ``job_id``'s waits."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._wake, job_id)
        except RuntimeError:
            pass  # the loop has closed: nobody is left waiting

    def _wake(self, job_id: str) -> None:
        for woken in self._waiters.get(job_id, ()):
            if not woken.done():
                woken.set_result(None)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(
                        writer, {"ok": False, "error": str(exc)}
                    )
                    break
                if request is None:
                    break
                await self._dispatch(request, writer)
                if request.get("cmd") == "shutdown":
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        cmd = str(request.get("cmd", ""))
        try:
            if cmd == "ping":
                loop = asyncio.get_running_loop()
                await write_message(
                    writer,
                    {
                        "ok": True,
                        "uptime_s": round(loop.time() - self._started_at, 3),
                        "jobs": len(self.scheduler.list_jobs()),
                    },
                )
            elif cmd == "submit":
                await write_message(writer, self._submit(request))
            elif cmd == "status":
                await write_message(writer, self._status(request))
            elif cmd == "wait":
                await self._wait(request, writer)
            elif cmd == "cancel":
                job_id = str(request.get("id", ""))
                cancelled = self.scheduler.cancel(job_id)
                await write_message(
                    writer, {"ok": True, "id": job_id, "cancelled": cancelled}
                )
            elif cmd == "jobs":
                await write_message(
                    writer, {"ok": True, "jobs": self.scheduler.list_jobs()}
                )
            elif cmd == "result":
                await self._stream_result(request, writer)
            elif cmd == "shutdown":
                await write_message(writer, {"ok": True, "stopping": True})
                self._stop.set()
            else:
                await write_message(
                    writer,
                    {"ok": False, "error": f"unknown command {cmd!r}"},
                )
        except (ValueError, RuntimeError) as exc:
            await write_message(writer, {"ok": False, "error": str(exc)})

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

    def _status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = str(request.get("id", ""))
        payload = self.scheduler.status(job_id)
        if payload is None:
            return {"ok": False, "error": f"unknown job id {job_id!r}"}
        return {"ok": True, **payload}

    async def _wait(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        timeout = _wait_timeout(request)
        job_id = str(request.get("id", ""))
        # Register before reading the status: a job that finishes in
        # between wakes this future instead of being missed.
        woken: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._waiters.setdefault(job_id, set()).add(woken)
        self._no_waiters.clear()
        try:
            reply = self._status(request)
            if (
                reply["ok"]
                and reply["status"] not in TERMINAL_STATES
                and not self._stop.is_set()
            ):
                await asyncio.wait({woken}, timeout=timeout)
                reply = self._status(request)
            await write_message(writer, reply)
        finally:
            waiters = self._waiters[job_id]
            waiters.discard(woken)
            if not waiters:
                del self._waiters[job_id]
                if not self._waiters:
                    self._no_waiters.set()

    async def _stream_result(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job_id = str(request.get("id", ""))
        payload = self.scheduler.status(job_id)
        if payload is None:
            await write_message(
                writer, {"ok": False, "error": f"unknown job id {job_id!r}"}
            )
            return
        if payload["status"] != "done":
            await write_message(
                writer,
                {
                    "ok": False,
                    "error": f"job {job_id} is {payload['status']}, "
                    f"not done; no result to stream",
                },
            )
            return
        path = self.scheduler.result_path(job_id)
        if path is None or not os.path.isfile(path):
            await write_message(
                writer,
                {
                    "ok": False,
                    "error": f"result file for job {job_id} is missing "
                    f"({path!r})",
                },
            )
            return
        loop = asyncio.get_running_loop()
        size = os.path.getsize(path)
        await write_message(
            writer,
            {"ok": True, "type": "header", "id": job_id, "bytes": size},
        )
        # repro: lint-waive R002 result streaming re-reads the published output; the job that wrote it ran inside the seam
        with open(path, "r", encoding="utf-8") as handle:
            while True:
                chunk = await loop.run_in_executor(
                    None, handle.read, _RESULT_CHUNK_BYTES
                )
                if not chunk:
                    break
                await write_message(writer, {"type": "chunk", "data": chunk})
        await write_message(writer, {"type": "end"})


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
