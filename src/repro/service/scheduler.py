"""Job scheduling under one shared memory pool (DESIGN.md §16).

Real jobs run in a thread pool and compete for one pool of records,
the service-wide analogue of the CLI's ``--memory``.  One condition
variable guards the pool counter, the per-tenant counters and the
waiters in arrival order.  A waiter admits itself only when its whole
ask fits both the pool and its tenant's quota, first-fit over the
waiters in arrival order; grants are all-or-nothing, so a waiting job
never sits on a partial budget.  Only a waiter's own thread ever takes
memory for it, so a cancelled waiter cannot be handed a grant.

Per-tenant quotas keep one tenant's jobs from holding more than the
quota in total, so its spill storm cannot starve the rest of the pool
(the quota also clamps a single job's ask — the sorted output is
identical for any memory budget, only run counts change).

Job lifecycle::

    queued -> waiting -> running -> done | failed | cancelled

Every job is durable: ``job.json`` is persisted (atomically) at
submit, the engine work directory rides the §11 sort journal, and the
terminal status is persisted as ``status.json``.  After a crash the
spool is rescanned: finished jobs answer ``status``/``result``
immediately, interrupted ones re-attach by id and resume from their
journal.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.errors import SortError
from repro.engine.resilience import read_marker, write_marker
from repro.service.jobs import JobSpec, job_id_for
from repro.service.runner import JobCancelled, JobOutcome, run_job

__all__ = ["JobScheduler", "JobState"]

#: Job states that will never change again.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class JobState:
    """One job's live record inside the scheduler."""

    spec: JobSpec
    job_id: str
    status: str = "queued"
    attempt: int = 0
    error: Optional[str] = None
    outcome: Optional[JobOutcome] = None
    granted: int = 0
    cancel: threading.Event = field(default_factory=threading.Event)
    created_m: float = 0.0
    started_m: float = 0.0
    finished_m: float = 0.0


class JobScheduler:
    """Run jobs through the engine under one shared memory pool.

    Parameters
    ----------
    spool:
        Directory holding one subdirectory per job (spec, work dir,
        published result, terminal status).
    total_memory:
        The shared pool, in records — the service-wide analogue of the
        CLI's ``--memory``.
    job_workers:
        Worker threads; also the bound on jobs *admitted or waiting*
        at once (queued jobs wait for a thread first).
    tenant_quotas:
        Per-tenant memory caps in records, each at least 1; tenants not
        listed get ``default_quota`` (the whole pool when that is None
        too).
    """

    def __init__(
        self,
        spool: str,
        total_memory: int = 100_000,
        job_workers: int = 8,
        tenant_quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
    ) -> None:
        if total_memory < 1:
            raise ValueError(f"total_memory must be >= 1, got {total_memory}")
        quotas = dict(tenant_quotas or {})
        for tenant, quota in quotas.items():
            if quota < 1:
                raise ValueError(
                    f"quota of tenant {tenant!r} must be >= 1, got {quota}"
                )
        if default_quota is not None and default_quota < 1:
            raise ValueError(f"default_quota must be >= 1, got {default_quota}")
        self.spool = os.path.abspath(spool)
        self.jobs_dir = os.path.join(self.spool, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.total_memory = total_memory
        self.tenant_quotas = quotas
        self.default_quota = default_quota
        #: Records granted to admitted jobs, in total and per tenant.
        self.pool_used = 0
        self._tenant_used: Dict[str, int] = {}
        #: (job, tenant, ask) of every job waiting for memory, in
        #: arrival order; guarded by ``_admission`` like the counters.
        self._waiters: List[Tuple[JobState, str, int]] = []
        self._jobs: Dict[str, JobState] = {}
        self._admission = threading.Condition()
        #: Guards the job table and each job's status; notified when a
        #: job turns terminal and when shutdown starts.
        self._lock = threading.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )
        self._shut_down = False
        self._scan_spool()

    # -- submission and queries ------------------------------------------------

    def submit(self, spec: JobSpec) -> JobState:
        """Submit (or re-attach to) the job with ``spec``'s identity.

        Idempotent by content id: an already queued/waiting/running or
        finished job is returned as-is; a failed, cancelled, or
        interrupted one is requeued as a fresh attempt that resumes
        from the surviving journal.
        """
        spec.validate()
        job_id = job_id_for(spec)
        with self._lock:
            if self._shut_down:
                raise RuntimeError("scheduler is shut down")
            state = self._jobs.get(job_id)
            if state is not None and state.status not in (
                "failed", "cancelled", "interrupted"
            ):
                return state
            if state is None:
                state = JobState(spec=spec, job_id=job_id)
                self._jobs[job_id] = state
            state.attempt += 1
            state.status = "queued"
            state.error = None
            state.cancel = threading.Event()
            state.created_m = time.monotonic()
            self._persist_spec(state)
            self._executor.submit(self._run, state)
            return state

    def submit_id(self, job_id: str) -> Optional[JobState]:
        """Re-attach to ``job_id`` from its persisted spec (crash path)."""
        with self._lock:
            state = self._jobs.get(job_id)
            if state is not None and state.status not in (
                "failed", "cancelled", "interrupted"
            ):
                return state
        try:
            spec = self._load_spec(job_id)
        except ValueError:
            return None
        if spec is None:
            return None
        return self.submit(spec)

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None:
                return None
            return self._status_payload(state)

    def wait(self, job_id: str, timeout: float) -> Optional[Dict[str, Any]]:
        """``job_id``'s status payload once the job is terminal or
        ``timeout`` seconds have passed; None for an unknown id.

        Shutdown turns every queued, waiting or running job terminal,
        so it ends these waits too; a wait on an ``interrupted`` job,
        which nothing will finish, returns as shutdown starts.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                state = self._jobs.get(job_id)
                if state is None:
                    return None
                remaining = deadline - time.monotonic()
                if (
                    state.status in TERMINAL_STATES
                    or remaining <= 0
                    or (self._shut_down and state.status == "interrupted")
                ):
                    return self._status_payload(state)
                self._lock.wait(remaining)

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "id": state.job_id,
                    "op": state.spec.op,
                    "tenant": state.spec.tenant,
                    "status": state.status,
                }
                for state in sorted(
                    self._jobs.values(), key=lambda s: s.created_m
                )
            ]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True when the job can still react."""
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None or state.status in TERMINAL_STATES:
                return False
            state.cancel.set()
        # Wake an admission waiter immediately (it checks the event
        # first); a running job notices at its next stream batch.
        with self._admission:
            self._admission.notify_all()
        return True

    def result_path(self, job_id: str) -> Optional[str]:
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None:
                return None
            return self._result_path_for(state.spec, state.job_id)

    def shutdown(self) -> None:
        """Cancel everything still moving and reap the worker threads.

        Jobs still queued for a worker thread never run: they are
        published ``cancelled`` like the ones cancelled mid-run.
        """
        with self._lock:
            if self._shut_down:
                return
            self._shut_down = True
            self._lock.notify_all()
            states = list(self._jobs.values())
        for state in states:
            if state.status not in TERMINAL_STATES:
                state.cancel.set()
        with self._admission:
            self._admission.notify_all()
        self._executor.shutdown(wait=True, cancel_futures=True)
        for state in states:
            # Every started run has reached _finish by now, so a job
            # still queued had its run dropped from the executor queue.
            if state.status == "queued":
                self._finish(state, "cancelled")

    # -- the worker-thread body ------------------------------------------------

    def _run(self, state: JobState) -> None:
        granted = 0
        try:
            self._set_status(state, "waiting")
            granted = self._acquire(state)
            state.granted = granted
            state.started_m = time.monotonic()
            self._set_status(state, "running")
            job_dir = self._job_dir(state.job_id)
            outcome = run_job(
                state.spec,
                memory=granted,
                work_dir=os.path.join(job_dir, "work"),
                result_path=self._result_path_for(state.spec, state.job_id),
                cancel=state.cancel,
                job_id=state.job_id,
            )
            state.outcome = outcome
            status = "done"
        except JobCancelled:
            status = "cancelled"
        except (SortError, OSError, ValueError, RuntimeError) as exc:
            state.error = str(exc)
            status = "failed"
        finally:
            if granted:
                self._release(state, granted)
        # Published only after the grant and the tenant quota are back:
        # a client that sees a terminal status also sees the memory
        # returned to the pool.
        self._finish(state, status)

    def _acquire(self, state: JobState) -> int:
        """Block until this job's whole budget fits; return it.

        The ask is the spec's memory clamped by the tenant quota and
        the pool size.  The waiter takes the memory itself, under the
        admission lock, so a job cancelled while waiting leaves the
        queue holding nothing.
        """
        tenant = state.spec.tenant
        ask = min(state.spec.memory, self._quota(tenant))
        entry = (state, tenant, ask)
        with self._admission:
            self._waiters.append(entry)
            try:
                while not state.cancel.is_set():
                    if self._admits(entry):
                        self.pool_used += ask
                        self._tenant_used[tenant] = (
                            self._tenant_used.get(tenant, 0) + ask
                        )
                        return ask
                    self._admission.wait()
            finally:
                self._waiters = [w for w in self._waiters if w is not entry]
            # Waiters behind this one may have stood back for its ask.
            self._admission.notify_all()
        raise JobCancelled(f"job {state.job_id} cancelled")

    def _release(self, state: JobState, granted: int) -> None:
        """Return a job's grant to the pool and to its tenant's quota."""
        with self._admission:
            self.pool_used -= granted
            self._tenant_used[state.spec.tenant] -= granted
            self._admission.notify_all()

    def _admits(self, entry: Tuple[JobState, str, int]) -> bool:
        """Would a first-fit pass over the waiters, in arrival order,
        admit ``entry`` now?  Caller holds ``_admission``."""
        pool = self.pool_used
        used = dict(self._tenant_used)
        for waiter in self._waiters:
            _, tenant, ask = waiter
            fits = (
                pool + ask <= self.total_memory
                and used.get(tenant, 0) + ask <= self._quota(tenant)
            )
            if waiter is entry:
                return fits
            if fits:
                pool += ask
                used[tenant] = used.get(tenant, 0) + ask
        return False

    def _quota(self, tenant: str) -> int:
        quota = self.tenant_quotas.get(tenant, self.default_quota)
        if quota is None:
            quota = self.total_memory
        return min(quota, self.total_memory)

    # -- persistence -----------------------------------------------------------

    def _job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def _result_path_for(self, spec: JobSpec, job_id: str) -> str:
        return spec.output or os.path.join(self._job_dir(job_id), "OUTPUT")

    def _persist_spec(self, state: JobState) -> None:
        job_dir = self._job_dir(state.job_id)
        os.makedirs(job_dir, exist_ok=True)
        write_marker(
            os.path.join(job_dir, "job.json"),
            {"id": state.job_id, "job": state.spec.to_payload()},
        )
        # A rerun invalidates any previous terminal status.
        try:
            os.remove(os.path.join(job_dir, "status.json"))
        except OSError:
            pass

    def _load_spec(self, job_id: str) -> Optional[JobSpec]:
        """The persisted spec of ``job_id``; None when none is on disk.

        Raises ``ValueError`` when ``job.json`` holds a spec that no
        longer validates (an option value a later version removed).
        """
        payload = read_marker(os.path.join(self._job_dir(job_id), "job.json"))
        if payload is None or payload.get("id") != job_id:
            return None
        return JobSpec.from_payload(payload.get("job", {}))

    def _set_status(self, state: JobState, status: str) -> None:
        with self._lock:
            state.status = status

    def _finish(self, state: JobState, status: str) -> None:
        """Persist the terminal status, then publish it.

        A client that sees the job terminal can rely on ``status.json``
        surviving a restart.  The status turns terminal in memory, and
        its waits wake, even when persisting it fails.
        """
        finished_m = time.monotonic()
        with self._lock:
            payload = self._status_payload(
                replace(state, status=status, finished_m=finished_m)
            )
        try:
            write_marker(
                os.path.join(self._job_dir(state.job_id), "status.json"),
                payload,
            )
        finally:
            with self._lock:
                state.status = status
                state.finished_m = finished_m
                self._lock.notify_all()

    def _status_payload(self, state: JobState) -> Dict[str, Any]:
        outcome = state.outcome
        waited = (
            (state.started_m - state.created_m)
            if state.started_m
            else 0.0
        )
        ran = (
            (state.finished_m - state.started_m)
            if state.finished_m and state.started_m
            else 0.0
        )
        return {
            "id": state.job_id,
            "status": state.status,
            "op": state.spec.op,
            "tenant": state.spec.tenant,
            "attempt": state.attempt,
            "memory": state.spec.memory,
            "granted": state.granted,
            "output": self._result_path_for(state.spec, state.job_id),
            "error": state.error,
            "records_out": outcome.records_out if outcome else 0,
            "report": outcome.report if outcome else None,
            "resume": {
                "runs_reused": outcome.runs_reused if outcome else 0,
                "merges_reused": outcome.merges_reused if outcome else 0,
                "shards_reused": outcome.shards_reused if outcome else 0,
            },
            "waited_s": round(waited, 6),
            "ran_s": round(ran, 6),
        }

    def _scan_spool(self) -> None:
        """Reload job records left by a previous (crashed) server.

        Jobs with a persisted terminal status answer ``status`` and
        ``result`` straight away; anything else found on disk — a spec
        whose run never finished — surfaces as ``interrupted`` and is
        re-attachable by id.  A ``job.json`` that no longer validates
        is removed with its directory, with one line on stderr.
        """
        try:
            entries = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return
        for job_id in entries:
            try:
                spec = self._load_spec(job_id)
            except ValueError as exc:
                # No status or result could ever be served for it, so
                # say why once and reclaim the spool directory.
                print(
                    f"repro serve: dropping spooled job {job_id}: {exc}",
                    file=sys.stderr,
                )
                shutil.rmtree(self._job_dir(job_id), ignore_errors=True)
                continue
            if spec is None:
                continue
            state = JobState(spec=spec, job_id=job_id)
            payload = read_marker(
                os.path.join(self._job_dir(job_id), "status.json")
            )
            if payload is not None and payload.get("status") in TERMINAL_STATES:
                state.status = str(payload["status"])
                state.attempt = int(payload.get("attempt", 1))
                state.error = payload.get("error")
                state.granted = int(payload.get("granted", 0))
                outcome = JobOutcome(
                    records_out=int(payload.get("records_out", 0)),
                    report=payload.get("report"),
                )
                resume = payload.get("resume") or {}
                outcome.runs_reused = int(resume.get("runs_reused", 0))
                outcome.merges_reused = int(resume.get("merges_reused", 0))
                outcome.shards_reused = int(resume.get("shards_reused", 0))
                state.outcome = outcome
            else:
                state.status = "interrupted"
            self._jobs[job_id] = state
