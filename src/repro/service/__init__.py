"""Resident sort service (DESIGN.md §16).

One long-running process accepts sort/distinct/agg/join/topk jobs
over a small length-prefixed JSON protocol, serving each connection on
a thread of its own; it runs each job through the existing
:class:`~repro.engine.planner.SortEngine`, and admits each job
to one shared memory pool with per-tenant quotas: a job runs once its
whole ask fits both the pool and its tenant's quota.

Jobs have stable content-derived ids: resubmitting the same spec (or
just the id) after a crash re-attaches to the job's durable work
directory and resumes from its §11 sort journal instead of starting
over.
"""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use (see :mod:`repro.engine`).
_LAZY = {
    "ServiceClient": "repro.service.client",
    "read_endpoint": "repro.service.client",
    "JobSpec": "repro.service.jobs",
    "job_id_for": "repro.service.jobs",
    "JobScheduler": "repro.service.scheduler",
    "SortService": "repro.service.server",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JobScheduler",
    "JobSpec",
    "ServiceClient",
    "SortService",
    "job_id_for",
    "read_endpoint",
]
