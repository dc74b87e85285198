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
The resident service's scheduler admits independent jobs through the
same broker, one thread per job.  The shards of one partitioned sort do
not compete this way: each gets a fixed share under a concurrency cap
(DESIGN.md §8), so nothing here crosses a process boundary.
"""

from __future__ import annotations

import math
import threading
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
    """A shared memory pool with prioritised waiting.

    All mutating methods are serialised behind an internal lock, so the
    accounting stays exact when several threads (the service's job
    workers) request and release concurrently.

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
        #: Owners retired by cancel_owner(); they can never be granted
        #: again — a cancelled waiter has nobody left to release what
        #: it would be granted (the posthumous-grant budget leak).
        self._cancelled: set = set()
        self._lock = threading.RLock()

    @property
    def free(self) -> int:
        return self.total - sum(self.allocated.values())

    def free_records(self) -> int:
        """Unallocated records (locked twin of :attr:`free`)."""
        with self._lock:
            return self.free

    def allocated_to(self, owner: Any) -> int:
        """Records currently granted to ``owner``."""
        with self._lock:
            return self.allocated.get(owner, 0)

    def peak(self) -> int:
        """Largest total allocation ever observed (never > ``total``)."""
        with self._lock:
            return self.peak_allocated

    def try_allocate(self, owner: Any, amount: int) -> bool:
        """Grant ``amount`` more records to ``owner`` if available.

        A cancelled owner is always refused: granting it would leak the
        records forever, because the canceller already walked away.
        """
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        with self._lock:
            if owner in self._cancelled:
                return False
            if amount > self.free:
                return False
            self.allocated[owner] = self.allocated.get(owner, 0) + amount
            in_use = self.total - self.free
            if in_use > self.peak_allocated:
                self.peak_allocated = in_use
            return True

    def release(self, owner: Any, amount: Optional[int] = None) -> None:
        """Return memory to the pool (all of it when amount is None)."""
        with self._lock:
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
        and dropped when the owner is already at its cap.  Cancelled
        owners are never (re-)enqueued.
        """
        with self._lock:
            if owner in self._cancelled:
                return
            for i, (_, order, pending_owner, _, _) in enumerate(self._waiting):
                if pending_owner == owner:
                    self._waiting[i] = (situation, order, owner, amount, maximum)
                    return
            self._order += 1
            self._waiting.append(
                (situation, self._order, owner, amount, maximum)
            )

    def grant_waiting(self) -> List[Any]:
        """Serve waiting processes in priority order; return the granted.

        Entries whose owner was cancelled while enqueued are dropped,
        never granted: the cancelled job's thread is gone, so a
        posthumous grant could not be released by anyone and would
        shrink the pool for every later job.
        """
        granted: List[Any] = []
        remaining: List[tuple] = []
        with self._lock:
            # Priority: the PRIORITY_ORDER rank, then FIFO within a rank.
            rank = {situation: i for i, situation in enumerate(PRIORITY_ORDER)}
            self._waiting.sort(key=lambda w: (rank[w[0]], w[1]))
            for situation, order, owner, amount, maximum in self._waiting:
                if owner in self._cancelled:
                    continue  # retired while waiting; drop the request
                if maximum is not None:
                    amount = min(
                        amount, maximum - self.allocated.get(owner, 0)
                    )
                    if amount <= 0:
                        continue  # already at its cap; drop the request
                if self.try_allocate(owner, amount):
                    granted.append(owner)
                else:
                    remaining.append(
                        (situation, order, owner, amount, maximum)
                    )
            self._waiting = remaining
            return granted

    # -- atomic compound operations (one lock hold each) -----------------------

    def request_or_enqueue(
        self,
        owner: Any,
        amount: int,
        situation: WaitSituation = WaitSituation.ABOUT_TO_START,
        maximum: Optional[int] = None,
    ) -> int:
        """Grant ``amount`` now, or register ``owner`` as waiting.

        Returns the records granted (0 when the owner was enqueued
        instead, or was already at its cap).  Check-then-enqueue must be
        one atomic step for concurrent callers: split over two calls, a
        release landing in between would be missed by everybody.  ``maximum`` caps the owner's *total* allocation,
        exactly as at :meth:`grant_waiting` time — the immediate-grant
        path must clamp against what the owner already holds or a
        re-requesting owner could be pushed past its cap.  A cancelled
        owner gets 0 and is not enqueued — the caller observed the
        cancellation race and must stop waiting.
        """
        with self._lock:
            if owner in self._cancelled:
                return 0
            if maximum is not None:
                amount = min(amount, maximum - self.allocated.get(owner, 0))
                if amount <= 0:
                    return 0  # already at its cap; nothing to wait for
            if self.try_allocate(owner, amount):
                return amount
            self.enqueue(owner, amount, situation, maximum)
            return 0

    def release_and_regrant(
        self, owner: Any, amount: Optional[int] = None
    ) -> List[Any]:
        """Release ``owner``'s memory and serve the wait queue with it.

        Returns the owners granted memory by the freed records.  Waiting
        jobs poll :meth:`allocated_to`, so the release and the regrant
        must be one atomic step or a concurrent ``request_or_enqueue``
        could snatch the freed memory out of priority order.

        The owner is done with the pool, so any wait-queue entry of its
        own is cancelled first: a job that gave up waiting must never
        be granted memory posthumously — nobody would ever release it.
        """
        with self._lock:
            self._waiting = [
                entry for entry in self._waiting if entry[2] != owner
            ]
            self.release(owner, amount)
            return self.grant_waiting()

    def cancel_owner(self, owner: Any) -> int:
        """Retire ``owner`` for good and recycle whatever it held.

        One atomic step: mark the owner cancelled (every later
        ``try_allocate``/``enqueue``/``request_or_enqueue`` refuses it),
        drop its wait-queue entry, release any records it already held,
        and regrant them to the survivors.  This is the job-cancellation
        path of the resident service: the cancelling thread races the
        grant path, and without the cancelled mark a release landing in
        between could still grant the dead waiter — leaking that budget
        until the broker dies.  Returns the records released.
        """
        with self._lock:
            self._cancelled.add(owner)
            self._waiting = [
                entry for entry in self._waiting if entry[2] != owner
            ]
            released = self.allocated.get(owner, 0)
            self.release(owner)
            self.grant_waiting()
            return released

    def is_cancelled(self, owner: Any) -> bool:
        """True when ``owner`` was retired by :meth:`cancel_owner`."""
        with self._lock:
            return owner in self._cancelled

    @property
    def waiting(self) -> List[Any]:
        with self._lock:
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
