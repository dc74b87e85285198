"""Dynamic memory adjustment for concurrent external sorts (Section 3.7.3).

Zhang & Larson's policy: when several sort processes compete for a
shared memory pool, a broker decides who gets more memory and who
waits.  A waiting process occupies one of five *situations*; the policy
prioritises them 1 > 3 > 5 > 4 > 2:

1. about to start                  (give tiny sorts a chance to finish),
3. building the first run, above the minimum     (help it grow),
5. before an external merge step   (close to completion, holds memory),
4. in-buffer sorting later runs,
2. building the first run at the minimum memory  (cheap to keep waiting).

This module implements the broker and a cooperative round-robin
simulation of concurrent external sorts over the simulated disk, so the
paper's claim — dynamic adjustment beats static partitioning on
throughput — can be measured (see ``benchmarks/bench_ablation_memory.py``).
The simulator is the broker's only user and is single-threaded, so the
broker takes no lock.  The resident service admits its jobs with a
lock of its own (``repro.service.scheduler``), and the shards of one
partitioned sort get fixed shares under a concurrency cap (DESIGN.md
§8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, List, Optional, Sequence

from repro.runs.base import log_cost


class WaitSituation(IntEnum):
    """The five waiting situations of Zhang & Larson."""

    ABOUT_TO_START = 1
    FIRST_RUN_MINIMUM = 2
    FIRST_RUN_GROWING = 3
    LATER_RUNS = 4
    BEFORE_MERGE = 5


#: Grant order: situations served first when memory frees up.
PRIORITY_ORDER = (
    WaitSituation.ABOUT_TO_START,
    WaitSituation.FIRST_RUN_GROWING,
    WaitSituation.BEFORE_MERGE,
    WaitSituation.LATER_RUNS,
    WaitSituation.FIRST_RUN_MINIMUM,
)


class MemoryBroker:
    """A shared memory pool with prioritised waiting (not thread-safe).

    Parameters
    ----------
    total:
        Pool size in records.
    """

    def __init__(self, total: int) -> None:
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        self.total = total
        self.allocated: Dict[Any, int] = {}
        self.peak_allocated = 0
        # (situation, order, owner, amount, maximum) — one entry per owner.
        self._waiting: List[tuple] = []
        self._order = 0

    @property
    def free(self) -> int:
        return self.total - sum(self.allocated.values())

    def peak(self) -> int:
        """Largest total allocation ever observed (never > ``total``)."""
        return self.peak_allocated

    def try_allocate(self, owner: Any, amount: int) -> bool:
        """Grant ``amount`` more records to ``owner`` if available."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        if amount > self.free:
            return False
        self.allocated[owner] = self.allocated.get(owner, 0) + amount
        in_use = self.total - self.free
        if in_use > self.peak_allocated:
            self.peak_allocated = in_use
        return True

    def release(self, owner: Any, amount: Optional[int] = None) -> None:
        """Return memory to the pool (all of it when amount is None)."""
        held = self.allocated.get(owner, 0)
        release = held if amount is None else min(amount, held)
        remaining = held - release
        if remaining:
            self.allocated[owner] = remaining
        else:
            self.allocated.pop(owner, None)

    def enqueue(
        self,
        owner: Any,
        amount: int,
        situation: WaitSituation,
        maximum: Optional[int] = None,
    ) -> None:
        """Register a process waiting for memory in a given situation.

        Each owner holds at most one pending request: re-enqueueing
        updates the amount, situation, and cap in place while keeping
        the original FIFO stamp, so a starved process asking every
        quantum cannot stack requests and be granted several times
        over.  ``maximum`` caps the owner's *total* allocation — at
        grant time the request is clamped to ``maximum - allocated``
        and dropped when the owner is already at its cap.
        """
        for i, (_, order, pending_owner, _, _) in enumerate(self._waiting):
            if pending_owner == owner:
                self._waiting[i] = (situation, order, owner, amount, maximum)
                return
        self._order += 1
        self._waiting.append((situation, self._order, owner, amount, maximum))

    def grant_waiting(self) -> List[Any]:
        """Serve waiting processes in priority order; return the granted."""
        granted: List[Any] = []
        remaining: List[tuple] = []
        # Priority: the PRIORITY_ORDER rank, then FIFO within a rank.
        rank = {situation: i for i, situation in enumerate(PRIORITY_ORDER)}
        self._waiting.sort(key=lambda w: (rank[w[0]], w[1]))
        for situation, order, owner, amount, maximum in self._waiting:
            if maximum is not None:
                amount = min(amount, maximum - self.allocated.get(owner, 0))
                if amount <= 0:
                    continue  # already at its cap; drop the request
            if self.try_allocate(owner, amount):
                granted.append(owner)
            else:
                remaining.append((situation, order, owner, amount, maximum))
        self._waiting = remaining
        return granted

    @property
    def waiting(self) -> List[Any]:
        return [owner for (_, _, owner, _, _) in self._waiting]


@dataclass(slots=True)
class SortJob:
    """One external sort competing for pool memory."""

    name: str
    records: List[Any]
    minimum_memory: int = 64
    maximum_memory: int = 4_096
    # -- progress state --
    position: int = 0
    runs: List[int] = field(default_factory=list)  # run lengths
    finished_at: Optional[float] = None


class ConcurrentSortSimulator:
    """Round-robin simulation of concurrent sorts sharing a pool.

    Each job alternates between run generation (Load-Sort-Store over its
    current allocation — the in-buffer sort phase of Zhang & Larson's
    three-phase algorithm) and a final merge costed analytically.  Time
    advances with the analytic CPU/IO cost of each slice, so static and
    dynamic policies can be compared on completion times.

    Parameters
    ----------
    jobs:
        The competing sorts.
    total_memory:
        Pool size in records.
    dynamic:
        True = broker with the five-situation policy; False = static
        equal partitioning for the whole lifetime.
    slice_records:
        Records a job processes per scheduling quantum.
    time_per_op:
        Simulated seconds per analytic operation.
    """

    #: Analytic I/O cost per record per pass (reading + writing it),
    #: in the same op units as the CPU comparisons; dominates the
    #: per-pass cost exactly as disk traffic dominates a real merge.
    io_ops_per_record = 8

    def __init__(
        self,
        jobs: Sequence[SortJob],
        total_memory: int,
        dynamic: bool = True,
        slice_records: int = 512,
        time_per_op: float = 1e-6,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        self.jobs = list(jobs)
        self.broker = MemoryBroker(total_memory)
        self.dynamic = dynamic
        self.slice_records = slice_records
        self.time_per_op = time_per_op
        self.clock = 0.0

    def run(self) -> Dict[str, float]:
        """Run all jobs to completion; return finish time per job."""
        if self.dynamic:
            self._grant_initial_dynamic()
        else:
            share = max(1, self.broker.total // len(self.jobs))
            for job in self.jobs:
                self.broker.try_allocate(job.name, share)

        active = list(self.jobs)
        while active:
            progressed = False
            for job in list(active):
                if self._step(job):
                    progressed = True
                if job.finished_at is not None:
                    active.remove(job)
                    self.broker.release(job.name)
                    if self.dynamic:
                        self.broker.grant_waiting()
            if not progressed and active:
                # Everyone is waiting: grant whatever is possible, then
                # top stalled jobs up to their minimums.  If neither
                # frees a job, no future iteration can either (memory
                # only moves through these two paths), so raise instead
                # of spinning forever on an undersized pool.
                self.broker.grant_waiting()
                for job in active:
                    deficit = job.minimum_memory - self._memory_of(job)
                    if deficit > 0:
                        self.broker.try_allocate(job.name, deficit)
                if all(
                    self._memory_of(job) < job.minimum_memory for job in active
                ):
                    minimums = {job.name: job.minimum_memory for job in active}
                    raise RuntimeError(
                        f"memory pool of {self.broker.total} records cannot "
                        f"satisfy the minimum memory of any waiting job "
                        f"(minimums: {minimums}); enlarge the pool or lower "
                        f"the job minimums"
                    )
        return {job.name: job.finished_at for job in self.jobs}

    # -- internals ---------------------------------------------------------------

    def _grant_initial_dynamic(self) -> None:
        for job in self.jobs:
            if not self.broker.try_allocate(job.name, job.minimum_memory):
                self.broker.enqueue(
                    job.name, job.minimum_memory, WaitSituation.ABOUT_TO_START
                )

    def _memory_of(self, job: SortJob) -> int:
        return self.broker.allocated.get(job.name, 0)

    def _step(self, job: SortJob) -> bool:
        """Advance one job by one quantum; True when it made progress."""
        memory = self._memory_of(job)
        if memory < job.minimum_memory:
            return False
        if job.position < len(job.records):
            return self._step_run_generation(job, memory)
        self._finish_with_merge(job, memory)
        return True

    def _step_run_generation(self, job: SortJob, memory: int) -> bool:
        # Opportunistically ask for more memory while building runs
        # (the first-run-growing situation of the policy).  The enqueue
        # carries the job's cap and the broker keeps one pending request
        # per owner, so a starved job re-asking every quantum can never
        # be granted past maximum_memory.
        if self.dynamic and memory < job.maximum_memory:
            want = min(job.maximum_memory - memory, memory)
            if want > 0 and not self.broker.try_allocate(job.name, want):
                self.broker.enqueue(
                    job.name,
                    want,
                    WaitSituation.FIRST_RUN_GROWING
                    if not job.runs
                    else WaitSituation.LATER_RUNS,
                    maximum=job.maximum_memory,
                )
            memory = self._memory_of(job)
        chunk = min(memory, len(job.records) - job.position)
        job.position += chunk
        job.runs.append(chunk)
        # Run formation is I/O-bound: cost ~ records moved, regardless
        # of the allocation; the allocation pays off in the merge.
        self.clock += chunk * self.io_ops_per_record * self.time_per_op
        return True

    def _finish_with_merge(self, job: SortJob, memory: int) -> None:
        # Analytic merge cost: passes * n * log2(fan_in), with fan-in
        # proportional to the merge memory (more memory = fewer passes).
        n = len(job.records)
        fan_in = max(2, memory // 64)
        passes = max(1, math.ceil(math.log(max(2, len(job.runs)), fan_in)))
        per_record = self.io_ops_per_record + log_cost(fan_in)
        self.clock += passes * n * per_record * self.time_per_op
        job.finished_at = self.clock
