"""Tests for the real-file streaming spill backend (DESIGN.md §6)."""

import os

import pytest
from _helpers import files_under

from repro.core.config import RECOMMENDED
from repro.core.records import CallableFormat
from repro.core.two_way import TwoWayReplacementSelection
from repro.runs.load_sort_store import LoadSortStore
from repro.runs.replacement_selection import ReplacementSelection
from repro.sort.spill import DEFAULT_BUFFER_RECORDS, FileSpillSort
from repro.workloads.generators import make_input, random_input


class TestCorrectness:
    @pytest.mark.parametrize(
        "generator_factory",
        [
            lambda: ReplacementSelection(200),
            lambda: TwoWayReplacementSelection(200, RECOMMENDED),
            lambda: LoadSortStore(200),
        ],
        ids=["RS", "2WRS", "LSS"],
    )
    def test_matches_sorted(self, generator_factory, tmp_path):
        data = list(random_input(5_000, seed=1))
        sorter = FileSpillSort(generator_factory(), tmp_dir=str(tmp_path))
        assert list(sorter.sort(iter(data))) == sorted(data)

    @pytest.mark.parametrize(
        "dataset",
        ["sorted", "reverse_sorted", "alternating", "mixed_balanced"],
    )
    def test_every_distribution_with_2wrs(self, dataset, tmp_path):
        data = list(make_input(dataset, 4_000, seed=2))
        sorter = FileSpillSort(
            TwoWayReplacementSelection(150, RECOMMENDED), tmp_dir=str(tmp_path)
        )
        assert list(sorter.sort(iter(data))) == sorted(data)

    def test_multi_pass_merge(self, tmp_path):
        # 5_000 records at memory 50 -> ~50 runs; fan-in 3 forces
        # multiple intermediate passes.
        data = list(random_input(5_000, seed=3))
        sorter = FileSpillSort(
            LoadSortStore(50), fan_in=3, tmp_dir=str(tmp_path)
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.merge_passes > 1

    def test_empty_input(self, tmp_path):
        sorter = FileSpillSort(ReplacementSelection(10), tmp_dir=str(tmp_path))
        assert list(sorter.sort(iter([]))) == []
        assert sorter.report.runs == 0

    def test_custom_serialisation(self, tmp_path):
        data = [3.5, -1.25, 2.0, 0.5]
        sorter = FileSpillSort(
            ReplacementSelection(2),
            tmp_dir=str(tmp_path),
            record_format=CallableFormat(repr, float),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)

    def test_string_keys_round_trip_exactly(self, tmp_path):
        # Regression: readers must strip the line terminator before
        # calling decode — a plain-str decoder used to hand back
        # records with a trailing newline glued on.
        data = ["pear", "apple", "fig", "cherry", "banana", "date"]
        sorter = FileSpillSort(
            ReplacementSelection(2),
            tmp_dir=str(tmp_path),
            record_format=CallableFormat(str, str),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FileSpillSort(ReplacementSelection(10), fan_in=1)
        with pytest.raises(ValueError):
            FileSpillSort(ReplacementSelection(10), buffer_records=0)


class TestReport:
    def test_report_populated_after_consumption(self, tmp_path):
        data = list(random_input(3_000, seed=4))
        sorter = FileSpillSort(ReplacementSelection(100), tmp_dir=str(tmp_path))
        merged = sorter.sort(iter(data))
        assert sorter.report is None  # nothing consumed yet
        list(merged)
        report = sorter.report
        assert report is not None
        assert report.records == 3_000
        assert report.runs == sorter.generator.stats.runs_out
        assert report.run_phase.wall_time > 0
        assert report.merge_phase.wall_time > 0
        assert report.run_phase.cpu_ops > 0
        assert "records in" in report.summary()


class TestSingletonGroups:
    def test_trailing_singleton_not_rewritten(self, tmp_path):
        calls = []

        class CountingSpill(FileSpillSort):
            def _merge_to_file(self, session, group, counter):
                calls.append(len(group))
                return super()._merge_to_file(session, group, counter)

        # 4 runs at fan-in 3 -> groups of [3, 1]: the lone trailing run
        # must be carried forward, not copied through a pointless merge.
        data = list(random_input(4_000, seed=9))
        sorter = CountingSpill(LoadSortStore(1_000), fan_in=3,
                               tmp_dir=str(tmp_path))
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert calls == [3]


class TestConcurrentSorts:
    def test_overlapping_sorts_are_isolated(self, tmp_path):
        # Regression: per-sort state used to live on the instance, so a
        # second sort() clobbered the first one's temp dir (leaking it)
        # and cross-wired the instrumentation.
        a = list(random_input(3_000, seed=10))
        b = list(random_input(3_000, seed=11))
        sorter = FileSpillSort(LoadSortStore(100), tmp_dir=str(tmp_path))
        first = sorter.sort(iter(a))
        head = [next(first) for _ in range(5)]
        second = sorter.sort(iter(b))
        got_b = list(second)
        got_a = head + list(first)
        assert got_a == sorted(a)
        assert got_b == sorted(b)
        assert files_under(tmp_path) == []


class TestCleanup:
    def test_temp_files_removed_after_sort(self, tmp_path):
        data = list(random_input(2_000, seed=5))
        sorter = FileSpillSort(ReplacementSelection(50), tmp_dir=str(tmp_path))
        list(sorter.sort(iter(data)))
        assert files_under(tmp_path) == []

    def test_temp_files_removed_when_abandoned(self, tmp_path):
        data = list(random_input(2_000, seed=6))
        sorter = FileSpillSort(ReplacementSelection(50), tmp_dir=str(tmp_path))
        merged = sorter.sort(iter(data))
        for _ in range(10):
            next(merged)
        merged.close()
        assert files_under(tmp_path) == []

    def test_no_temp_files_survive_run_generation_failure(self, tmp_path):
        # Regression guard: an input stream raising mid-stream (after
        # runs have already spilled) must still tear the whole per-sort
        # temp directory down on its way out.
        def poisoned():
            yield from random_input(1_500, seed=12)
            raise RuntimeError("input stream died")

        sorter = FileSpillSort(ReplacementSelection(50), tmp_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="input stream died"):
            list(sorter.sort(poisoned()))
        assert files_under(tmp_path) == []
        assert os.listdir(tmp_path) == []

    def test_no_temp_files_survive_merge_failure(self, tmp_path):
        # A decode error during the merge phase aborts after the spill
        # files exist and readers are open; cleanup must still run.
        decoded = 0

        def fragile_decode(line):
            nonlocal decoded
            decoded += 1
            if decoded > 500:
                raise ValueError("decode died mid-merge")
            return int(line)

        data = list(random_input(2_000, seed=13))
        sorter = FileSpillSort(
            ReplacementSelection(50),
            tmp_dir=str(tmp_path),
            record_format=CallableFormat(str, fragile_decode),
        )
        with pytest.raises(ValueError, match="decode died"):
            list(sorter.sort(iter(data)))
        assert files_under(tmp_path) == []
        assert os.listdir(tmp_path) == []

    def test_immediate_failure_leaves_nothing(self, tmp_path):
        def dead_on_arrival():
            raise RuntimeError("no records at all")
            yield  # pragma: no cover

        sorter = FileSpillSort(ReplacementSelection(50), tmp_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="no records at all"):
            list(sorter.sort(dead_on_arrival()))
        assert os.listdir(tmp_path) == []


class TestBoundedMemory:
    """The acceptance property: memory stays O(memory + fan_in * buffer)."""

    def test_half_million_records_bounded_buffering(self, tmp_path):
        n = 500_000
        memory = 10_000
        data = list(random_input(n, seed=7))
        sorter = FileSpillSort(LoadSortStore(memory), tmp_dir=str(tmp_path))
        assert list(sorter.sort(iter(data))) == sorted(data)
        # ~50 runs at this memory: well past the fan-in, so the merge
        # ran in passes over lazy readers, never holding all runs.
        assert sorter.generator.stats.runs_out > sorter.fan_in
        assert sorter.max_open_readers <= sorter.fan_in
        # Read buffers never held more than one chunk per open reader —
        # thousands of times smaller than the 500k input.
        assert (
            sorter.max_resident_records
            <= sorter.fan_in * DEFAULT_BUFFER_RECORDS
        )
        assert sorter.max_resident_records < n // 10

    def test_reader_buffers_respect_buffer_records(self, tmp_path):
        data = list(random_input(20_000, seed=8))
        sorter = FileSpillSort(
            LoadSortStore(1_000),
            fan_in=4,
            buffer_records=256,
            tmp_dir=str(tmp_path),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.max_open_readers <= 4
        assert sorter.max_resident_records <= 4 * 256
