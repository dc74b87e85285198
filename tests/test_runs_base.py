"""Tests for the run-generator base API and analytic cost accounting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runs.base import RunGenerator, RunGeneratorStats, log_cost


class TestLogCost:
    def test_small_heaps_cost_one(self):
        assert log_cost(0) == 1
        assert log_cost(1) == 1

    def test_powers_of_two(self):
        assert log_cost(2) == 1
        assert log_cost(1024) == 10

    def test_rounds_up(self):
        assert log_cost(3) == 2
        assert log_cost(1025) == 11

    @given(st.integers(1, 10**9))
    def test_monotone(self, n):
        assert log_cost(n) <= log_cost(n + 1)

    def test_equals_ceil_log2(self):
        # The exact integer form charges what ceil(log2(n)) charged, so
        # no counter moves; n = 1 keeps its floor of one step.
        for n in range(1, 2**16 + 1):
            assert log_cost(n) == max(1, math.ceil(math.log2(n))), n

    @pytest.mark.parametrize("k", [49, 53, 60, 100])
    def test_exact_above_float_precision(self, k):
        # log2(2**k + 1) rounds to exactly k in floating point for large
        # k, so the float form under-charged by one step there.
        assert log_cost(2**k + 1) == k + 1
        assert log_cost(2**k) == k


class TestStats:
    def test_note_run_accumulates(self):
        stats = RunGeneratorStats()
        stats.note_run(10)
        stats.note_run(30)
        assert stats.runs_out == 2
        assert stats.records_out == 40
        assert stats.run_lengths == [10, 30]
        assert stats.average_run_length == pytest.approx(20.0)

    def test_average_of_empty_is_zero(self):
        assert RunGeneratorStats().average_run_length == 0.0

    def test_reset_clears_everything(self):
        stats = RunGeneratorStats()
        stats.records_in = 5
        stats.cpu_ops = 7
        stats.note_run(3)
        stats.reset()
        assert stats.records_in == 0
        assert stats.cpu_ops == 0
        assert stats.runs_out == 0
        assert stats.run_lengths == []


class TestRunGeneratorBase:
    def test_rejects_zero_memory(self):
        class Dummy(RunGenerator):
            def generate_runs(self, records):
                yield from ()

        with pytest.raises(ValueError):
            Dummy(0)

    def test_helpers_delegate(self):
        class TwoRuns(RunGenerator):
            def generate_runs(self, records):
                yield [1, 2]
                yield [3]

        generator = TwoRuns(10)
        assert generator.run_lengths([]) == [2, 1]
        assert generator.count_runs([]) == 2
