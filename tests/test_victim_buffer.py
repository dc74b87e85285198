"""Tests for the victim buffer (Section 4.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.victim_buffer import VictimBuffer, VictimPhase, largest_gap


class TestLargestGap:
    def test_paper_example(self):
        # Section 4.5: victim = {39, 40, 50, 51}; largest gap (40, 50).
        split, low, high = largest_gap([39, 40, 50, 51])
        assert (low, high) == (40, 50)
        assert split == 2

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            largest_gap([1])

    def test_ties_take_first(self):
        split, low, high = largest_gap([0, 10, 20])
        assert (low, high) == (0, 10)

    def test_duplicates(self):
        split, low, high = largest_gap([5, 5, 9])
        assert (low, high) == (5, 9)


class TestPhases:
    def test_disabled_when_capacity_zero(self):
        victim = VictimBuffer(0)
        assert victim.phase is VictimPhase.DISABLED
        assert victim.valid_range is None

    def test_initial_fill_then_active(self):
        victim = VictimBuffer(4)
        assert victim.phase is VictimPhase.INITIAL_FILL
        victim.held.extend((39, 40, 50, 51))
        to3, to2 = victim.flush_initial()
        assert victim.phase is VictimPhase.ACTIVE
        assert to3 == [39, 40]
        assert to2 == [51, 50]  # descending for stream 2
        assert victim.valid_range == (40, 50)

    def test_no_fit_during_initial_fill(self):
        victim = VictimBuffer(4)
        victim.held.append(5)
        assert victim.valid_range is None

    def test_start_run_resets(self):
        victim = VictimBuffer(2)
        victim.held.extend((1, 9))
        victim.flush_initial()
        victim.flush_run_end()
        victim.start_run()
        assert victim.phase is VictimPhase.INITIAL_FILL
        assert victim.valid_range is None

    def test_start_run_with_records_raises(self):
        victim = VictimBuffer(2)
        victim.held.append(1)
        with pytest.raises(RuntimeError):
            victim.start_run()


class TestFlushes:
    def _active_victim(self):
        victim = VictimBuffer(4)
        victim.held.extend((0, 1, 99, 100))
        victim.flush_initial()  # range (1, 99)
        return victim

    def test_flush_full_narrows_range(self):
        victim = self._active_victim()
        victim.held.extend((10, 20, 60, 70))
        to3, to2 = victim.flush_full()
        assert to3 == [10, 20]
        assert to2 == [70, 60]
        assert victim.valid_range == (20, 60)

    def test_flush_run_end_returns_ascending(self):
        victim = self._active_victim()
        victim.held.extend((50, 30))
        assert victim.flush_run_end() == [30, 50]
        assert len(victim) == 0

    def test_single_record_initial_flush(self):
        victim = VictimBuffer(1)
        victim.held.append(7)
        to3, to2 = victim.flush_initial()
        assert to3 == [7]
        assert to2 == []
        assert victim.valid_range is None

    def test_degenerate_no_gap(self):
        victim = VictimBuffer(3)
        victim.held.extend((5, 5, 5))
        to3, to2 = victim.flush_initial()
        assert to3 + list(reversed(to2)) == [5, 5, 5]

    def test_cpu_ops_accumulate(self):
        victim = self._active_victim()
        assert victim.cpu_ops > 0

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            VictimBuffer(-1)


@settings(max_examples=150)
@given(st.lists(st.integers(), min_size=2, max_size=50))
def test_flush_parts_straddle_the_gap(values):
    victim = VictimBuffer(len(values))
    victim.held.extend(values)
    to3, to2 = victim.flush_initial()
    assert to3 == sorted(to3)
    assert to2 == sorted(to2, reverse=True)
    assert sorted(to3 + to2) == sorted(values)
    if to3 and to2:
        assert max(to3) <= min(to2)
        low, high = victim.valid_range
        assert (low, high) == (max(to3), min(to2))



def _largest_gap_by_scan(sorted_values):
    """The widest-gap scan ``largest_gap`` replaced, kept as its oracle."""
    best_index = 1
    best_width = sorted_values[1] - sorted_values[0]
    for i in range(2, len(sorted_values)):
        width = sorted_values[i] - sorted_values[i - 1]
        if width > best_width:
            best_width = width
            best_index = i
    return best_index, sorted_values[best_index - 1], sorted_values[best_index]


_GAP_KEYS = st.one_of(
    st.lists(st.integers(), min_size=2, max_size=40),
    # Few distinct steps: many equal widths, where the first must win.
    st.lists(st.integers(0, 4).map(lambda k: 10 * k), min_size=2, max_size=40),
    # -0.0/0.0 widths, and NaN widths from inf - inf and NaN keys.
    st.lists(
        st.sampled_from(
            [-0.0, 0.0, 1.0, -1.5, 2.5, math.inf, -math.inf, math.nan]
        ),
        min_size=2,
        max_size=40,
    ),
    st.lists(st.floats(), min_size=2, max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(_GAP_KEYS)
def test_largest_gap_equals_the_scan(values):
    records = sorted(values)
    split, low, high = largest_gap(records)
    expected_split, expected_low, expected_high = _largest_gap_by_scan(records)
    assert split == expected_split
    assert low is expected_low
    assert high is expected_high

    victim = VictimBuffer(len(values))
    victim.held.extend(values)
    to3, to2 = victim.flush_full()
    assert to3 == records[:split]
    assert to2 == list(reversed(records[split:]))
    assert all(a is b for a, b in zip(to2, reversed(records[split:])))


@given(st.lists(st.text(max_size=3), min_size=2, max_size=20))
def test_largest_gap_raises_type_error_for_str_keys(values):
    records = sorted(values)
    with pytest.raises(TypeError):
        largest_gap(records)
    with pytest.raises(TypeError):
        _largest_gap_by_scan(records)
    victim = VictimBuffer(len(values))
    victim.held.extend(values)
    assert victim.flush_full() == (records, [])
    assert victim.valid_range is None
