"""Tests for the Load-Sort-Store baseline (Section 2.1.1)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runs.load_sort_store import LoadSortStore


class TestLoadSortStore:
    def test_empty(self):
        assert list(LoadSortStore(10).generate_runs([])) == []

    def test_run_length_equals_memory(self):
        runs = list(LoadSortStore(10).generate_runs(range(35)))
        assert [len(r) for r in runs] == [10, 10, 10, 5]

    def test_runs_sorted(self):
        runs = list(LoadSortStore(4).generate_runs([7, 1, 9, 2, 8, 0]))
        assert runs == [[1, 2, 7, 9], [0, 8]]

    def test_sorted_input_still_chunks(self):
        # Unlike RS, LSS cannot exploit pre-sorted input.
        runs = list(LoadSortStore(10).generate_runs(range(100)))
        assert len(runs) == 10

    def test_stats(self):
        lss = LoadSortStore(10)
        list(lss.generate_runs(range(25)))
        assert lss.stats.records_in == 25
        assert lss.stats.runs_out == 3
        assert lss.stats.average_run_length == 25 / 3


@settings(max_examples=100)
@given(st.lists(st.integers(), max_size=300), st.integers(1, 40))
def test_lss_runs_sorted_and_complete(data, memory):
    runs = list(LoadSortStore(memory).generate_runs(data))
    for run in runs:
        assert run == sorted(run)
        assert len(run) <= memory
    assert sorted(itertools.chain(*runs)) == sorted(data)
