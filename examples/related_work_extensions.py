"""Tour of the Section 3.7 / 7.1 extensions built into the library.

The paper's related-work chapter surveys techniques that compose with
RS/2WRS.  This tour runs the ones the library implements:

* batched replacement selection (miniruns, Section 3.7.1),
* reading strategies for the merge phase (Section 3.7.2, simulated),
* dynamic memory adjustment for concurrent sorts (Section 3.7.3),
* the adaptive input heuristic (Section 7.1, future work).

Run with::

    python examples/related_work_extensions.py
"""

from repro import BatchedReplacementSelection, ReplacementSelection
from repro.core import TwoWayConfig
from repro.core.two_way import TwoWayReplacementSelection
from repro.merge import ReadingSimulator
from repro.sort import ConcurrentSortSimulator, SortJob
from repro.workloads import alternating_input, random_input


def batched_rs():
    data = list(random_input(20_000, seed=1))
    rs = ReplacementSelection(1_000)
    brs = BatchedReplacementSelection(1_000, minirun_length=50)
    rs_runs = len(list(rs.generate_runs(data)))
    brs_runs = len(list(brs.generate_runs(data)))
    print(f"batched RS:      heap of {brs.num_miniruns} entries instead of "
          f"1000; runs {brs_runs} vs {rs_runs} for plain RS")


def reading_strategies():
    runs = [sorted(random_input(2_000, seed=i)) for i in range(10)]
    reports = ReadingSimulator(runs, memory_records=4_096).compare()
    ranked = sorted(reports.values(), key=lambda r: r.total_time)
    order = " < ".join(r.strategy for r in ranked)
    print(f"reading:         {order} (total simulated time)")


def dynamic_memory():
    def jobs():
        out = [SortJob("big", list(random_input(40_000, seed=9)),
                       minimum_memory=64, maximum_memory=4_096)]
        out += [SortJob(f"s{i}", list(random_input(1_000, seed=i)),
                        minimum_memory=64, maximum_memory=512) for i in range(3)]
        return out

    static = ConcurrentSortSimulator(jobs(), 2_048, dynamic=False).run()
    dynamic = ConcurrentSortSimulator(jobs(), 2_048, dynamic=True).run()
    print(f"memory broker:   makespan {max(dynamic.values()):.3f}s dynamic "
          f"vs {max(static.values()):.3f}s static")


def adaptive():
    data = list(alternating_input(40_000, sections=8, seed=1, noise=100))
    fixed = TwoWayReplacementSelection(500, TwoWayConfig(input_heuristic="mean"))
    smart = TwoWayReplacementSelection(500, TwoWayConfig(input_heuristic="adaptive"))
    print(f"adaptive:        alternating input, {smart.count_runs(data)} runs "
          f"adaptive vs {fixed.count_runs(iter(data))} with fixed Mean")


def main():
    batched_rs()
    reading_strategies()
    dynamic_memory()
    adaptive()


if __name__ == "__main__":
    main()
