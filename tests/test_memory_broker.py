"""Tests for dynamic memory adjustment (Section 3.7.3)."""

import threading

import pytest

from repro.sort.memory_broker import (
    PRIORITY_ORDER,
    ConcurrentSortSimulator,
    MemoryBroker,
    SortJob,
    WaitSituation,
)
from repro.workloads.generators import random_input


class TestMemoryBroker:
    def test_invalid_total(self):
        with pytest.raises(ValueError):
            MemoryBroker(0)

    def test_allocate_within_pool(self):
        broker = MemoryBroker(100)
        assert broker.try_allocate("a", 60)
        assert broker.free == 40
        assert not broker.try_allocate("b", 50)
        assert broker.try_allocate("b", 40)
        assert broker.free == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            MemoryBroker(10).try_allocate("a", -1)

    def test_release_partial_and_full(self):
        broker = MemoryBroker(100)
        broker.try_allocate("a", 80)
        broker.release("a", 30)
        assert broker.allocated["a"] == 50
        broker.release("a")
        assert "a" not in broker.allocated
        assert broker.free == 100

    def test_release_unknown_owner_is_noop(self):
        broker = MemoryBroker(10)
        broker.release("ghost")
        assert broker.free == 10

    def test_priority_order_matches_paper(self):
        # Section 3.7.3: processes prioritised 1, 3, 5, 4, 2.
        assert [s.value for s in PRIORITY_ORDER] == [1, 3, 5, 4, 2]

    def test_grant_waiting_serves_by_priority(self):
        broker = MemoryBroker(100)
        broker.try_allocate("holder", 100)
        broker.enqueue("later", 50, WaitSituation.FIRST_RUN_MINIMUM)
        broker.enqueue("starter", 50, WaitSituation.ABOUT_TO_START)
        broker.release("holder", 50)
        granted = broker.grant_waiting()
        assert granted == ["starter"]
        assert broker.waiting == ["later"]

    def test_peak_tracks_high_water_mark(self):
        broker = MemoryBroker(100)
        broker.try_allocate("a", 70)
        broker.try_allocate("b", 20)
        broker.release("a")
        broker.try_allocate("c", 10)
        assert broker.peak() == 90
        assert broker.peak() <= broker.total

    def test_fifo_within_same_situation(self):
        broker = MemoryBroker(60)
        broker.try_allocate("holder", 60)
        broker.enqueue("first", 30, WaitSituation.LATER_RUNS)
        broker.enqueue("second", 30, WaitSituation.LATER_RUNS)
        broker.release("holder", 30)
        assert broker.grant_waiting() == ["first"]

    def test_enqueue_dedups_per_owner(self):
        # Regression: a starved owner re-asking every quantum used to
        # stack requests and be granted all of them at once.
        broker = MemoryBroker(100)
        broker.try_allocate("holder", 100)
        for _ in range(5):
            broker.enqueue("starved", 30, WaitSituation.LATER_RUNS)
        assert broker.waiting == ["starved"]
        broker.release("holder")
        assert broker.grant_waiting() == ["starved"]
        assert broker.allocated["starved"] == 30

    def test_reenqueue_keeps_fifo_stamp(self):
        broker = MemoryBroker(100)
        broker.try_allocate("holder", 100)
        broker.enqueue("first", 40, WaitSituation.LATER_RUNS)
        broker.enqueue("second", 40, WaitSituation.LATER_RUNS)
        broker.enqueue("first", 50, WaitSituation.LATER_RUNS)  # update
        broker.release("holder", 50)
        assert broker.grant_waiting() == ["first"]
        assert broker.allocated["first"] == 50

    def test_grant_clamped_to_maximum(self):
        broker = MemoryBroker(200)
        broker.try_allocate("a", 50)
        broker.try_allocate("holder", 150)
        broker.enqueue("a", 40, WaitSituation.LATER_RUNS, maximum=60)
        broker.release("holder")
        assert broker.grant_waiting() == ["a"]
        assert broker.allocated["a"] == 60  # clamped: 50 + min(40, 10)

    def test_request_at_cap_dropped(self):
        broker = MemoryBroker(200)
        broker.try_allocate("a", 60)
        broker.enqueue("a", 40, WaitSituation.LATER_RUNS, maximum=60)
        assert broker.grant_waiting() == []
        assert broker.waiting == []
        assert broker.allocated["a"] == 60


def make_jobs(big=40_000, smalls=3):
    jobs = [
        SortJob(
            name="big",
            records=list(random_input(big, seed=9)),
            minimum_memory=64,
            maximum_memory=4_096,
        )
    ]
    for i in range(smalls):
        jobs.append(
            SortJob(
                name=f"small{i}",
                records=list(random_input(1_000, seed=i)),
                minimum_memory=64,
                maximum_memory=512,
            )
        )
    return jobs


class TestConcurrentSimulator:
    def test_requires_jobs(self):
        with pytest.raises(ValueError):
            ConcurrentSortSimulator([], total_memory=100)

    def test_all_jobs_finish(self):
        finish = ConcurrentSortSimulator(
            make_jobs(big=5_000), total_memory=1_024, dynamic=True
        ).run()
        assert all(t is not None for t in finish.values())

    def test_static_all_jobs_finish(self):
        finish = ConcurrentSortSimulator(
            make_jobs(big=5_000), total_memory=1_024, dynamic=False
        ).run()
        assert all(t is not None for t in finish.values())

    def test_dynamic_beats_static_on_makespan(self):
        """Zhang & Larson's headline: dynamic adjustment wins."""
        static = ConcurrentSortSimulator(
            make_jobs(), total_memory=2_048, dynamic=False
        ).run()
        dynamic = ConcurrentSortSimulator(
            make_jobs(), total_memory=2_048, dynamic=True
        ).run()
        assert max(dynamic.values()) < max(static.values())

    def test_dynamic_grows_allocations(self):
        jobs = make_jobs(big=10_000, smalls=1)
        sim = ConcurrentSortSimulator(jobs, total_memory=2_048, dynamic=True)
        sim.run()
        big = jobs[0]
        # Later runs are longer than the first (memory grew over time).
        assert max(big.runs) > big.runs[0]

    def test_single_job_gets_whole_pool_dynamic(self):
        jobs = [
            SortJob(
                name="only",
                records=list(random_input(5_000, seed=1)),
                minimum_memory=64,
                maximum_memory=10_000,
            )
        ]
        sim = ConcurrentSortSimulator(jobs, total_memory=1_024, dynamic=True)
        sim.run()
        assert max(jobs[0].runs) >= 512


class RecordingBroker(MemoryBroker):
    """Broker that records every owner's high-water allocation."""

    def __init__(self, total):
        super().__init__(total)
        self.high_water = {}

    def try_allocate(self, owner, amount):
        granted = super().try_allocate(owner, amount)
        if granted:
            held = self.allocated.get(owner, 0)
            if held > self.high_water.get(owner, 0):
                self.high_water[owner] = held
        return granted


class TestAllocationCaps:
    def test_allocations_never_exceed_maximum(self):
        # Regression: stacked duplicate requests from a starved job used
        # to push its allocation past maximum_memory once memory freed.
        jobs = make_jobs(big=20_000, smalls=3)
        sim = ConcurrentSortSimulator(jobs, total_memory=2_048, dynamic=True)
        sim.broker = RecordingBroker(2_048)
        sim.run()
        maxima = {job.name: job.maximum_memory for job in jobs}
        for owner, peak in sim.broker.high_water.items():
            assert peak <= maxima[owner], (
                f"{owner} reached {peak} > maximum {maxima[owner]}"
            )

    def test_pool_never_oversubscribed(self):
        jobs = make_jobs(big=20_000, smalls=3)
        sim = ConcurrentSortSimulator(jobs, total_memory=1_024, dynamic=True)
        sim.broker = RecordingBroker(1_024)
        sim.run()
        assert sum(sim.broker.high_water.values()) >= 0  # ran to completion
        assert all(peak <= 1_024 for peak in sim.broker.high_water.values())


class TestTinyPoolTermination:
    @staticmethod
    def _run_guarded(sim, timeout=15.0):
        """Run the simulator in a thread so a livelock fails the test
        with a timeout instead of hanging the whole suite."""
        outcome = {}

        def target():
            try:
                outcome["result"] = sim.run()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout)
        assert not thread.is_alive(), "simulator livelocked (no progress)"
        return outcome

    def test_pool_below_every_minimum_raises(self):
        jobs = [
            SortJob(
                name="a",
                records=list(random_input(500, seed=1)),
                minimum_memory=64,
            ),
            SortJob(
                name="b",
                records=list(random_input(500, seed=2)),
                minimum_memory=64,
            ),
        ]
        sim = ConcurrentSortSimulator(jobs, total_memory=32, dynamic=True)
        outcome = self._run_guarded(sim)
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "minimum" in str(outcome["error"])

    def test_pool_below_every_minimum_raises_static(self):
        jobs = [
            SortJob(
                name="a",
                records=list(random_input(500, seed=1)),
                minimum_memory=64,
            ),
        ]
        sim = ConcurrentSortSimulator(jobs, total_memory=16, dynamic=False)
        outcome = self._run_guarded(sim)
        assert isinstance(outcome.get("error"), RuntimeError)

    def test_pool_fitting_one_minimum_still_finishes(self):
        # 96 records fits one job's minimum at a time: jobs must be
        # served serially rather than raising or spinning.
        jobs = [
            SortJob(
                name=f"j{i}",
                records=list(random_input(300, seed=i)),
                minimum_memory=64,
                maximum_memory=128,
            )
            for i in range(3)
        ]
        sim = ConcurrentSortSimulator(jobs, total_memory=96, dynamic=True)
        outcome = self._run_guarded(sim)
        assert "error" not in outcome
        assert all(t is not None for t in outcome["result"].values())
