"""Tests for the FIFO input buffer (Section 4.2)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.input_buffer import LIMIT_REACHED, SHADOW_WINDOW, InputBuffer


class TestFifo:
    def test_preserves_order(self):
        buffer = InputBuffer(iter([1, 2, 3, 4]), capacity=2)
        assert [buffer.next() for _ in range(4)] == [1, 2, 3, 4]

    def test_eof_returns_none(self):
        buffer = InputBuffer(iter([1]), capacity=4)
        assert buffer.next() == 1
        assert buffer.next() is None

    def test_bool_reflects_availability(self):
        buffer = InputBuffer(iter([1]), capacity=1)
        assert buffer
        buffer.next()
        assert buffer.next() is None
        assert not buffer

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            InputBuffer(iter([]), capacity=-1)

    def test_records_read_counter(self):
        buffer = InputBuffer(iter(range(10)), capacity=3)
        assert buffer.records_read == 3  # eager prefetch
        buffer.next()
        assert buffer.records_read == 4


class TestStatistics:
    def test_mean_of_buffer_contents(self):
        buffer = InputBuffer(iter([40, 50, 39, 51, 99]), capacity=4)
        # Paper example (Section 4.5): mean of {40, 50, 39, 51} = 45.
        assert buffer.mean() == pytest.approx(45.0)

    def test_mean_advances_with_fifo(self):
        buffer = InputBuffer(iter([40, 50, 39, 51, 38]), capacity=4)
        buffer.next()  # consume 40, prefetch 38
        assert buffer.mean() == pytest.approx((50 + 39 + 51 + 38) / 4)

    def test_median_lower_middle(self):
        buffer = InputBuffer(iter([1, 3, 5, 7]), capacity=4)
        assert buffer.median() == 3

    def test_median_odd(self):
        buffer = InputBuffer(iter([9, 1, 5]), capacity=3)
        assert buffer.median() == 5

    def test_empty_source_statistics_none(self):
        buffer = InputBuffer(iter([]), capacity=4)
        assert buffer.mean() is None
        assert buffer.median() is None


class TestMemoization:
    def test_statistics_not_computed_until_asked(self):
        buffer = InputBuffer(iter(range(100)), capacity=8)
        for _ in range(50):
            buffer.next()
        assert buffer.mean_computations == 0
        assert buffer.median_computations == 0

    def test_mean_computed_once_per_generation(self):
        buffer = InputBuffer(iter(range(100)), capacity=8)
        first = buffer.mean()
        assert buffer.mean() == first
        assert buffer.mean_computations == 1
        buffer.next()  # mutation invalidates the cache
        buffer.mean()
        assert buffer.mean_computations == 2

    def test_median_computed_once_per_generation(self):
        buffer = InputBuffer(iter([9, 1, 5, 7]), capacity=4)
        assert buffer.median() == 5
        assert buffer.median() == 5
        assert buffer.median_computations == 1
        buffer.next()
        buffer.median()
        assert buffer.median_computations == 2

    def test_cache_invalidated_on_mutation(self):
        buffer = InputBuffer(iter([10, 20, 30, 40]), capacity=2)
        assert buffer.mean() == pytest.approx(15.0)
        buffer.next()  # buffer now {20, 30}
        assert buffer.mean() == pytest.approx(25.0)

    def test_generation_advances_with_reads(self):
        buffer = InputBuffer(iter(range(10)), capacity=3)
        before = buffer.generation
        buffer.next()
        assert buffer.generation > before

    def test_sample_memoized_between_mutations(self):
        buffer = InputBuffer(iter(range(10)), capacity=3)
        assert buffer.sample() is buffer.sample()
        snapshot = buffer.sample()
        buffer.next()
        assert buffer.sample() is not snapshot


class TestShadowWindow:
    def test_zero_capacity_passthrough(self):
        buffer = InputBuffer(iter([3, 1, 2]), capacity=0)
        assert [buffer.next() for _ in range(3)] == [3, 1, 2]

    def test_zero_capacity_keeps_sample(self):
        buffer = InputBuffer(iter(range(100)), capacity=0)
        for _ in range(50):
            buffer.next()
        sample = buffer.sample()
        assert len(sample) == SHADOW_WINDOW
        assert sample == list(range(50 - SHADOW_WINDOW, 50))

    def test_zero_capacity_mean_defined_after_reads(self):
        buffer = InputBuffer(iter([10, 20]), capacity=0)
        buffer.next()
        assert buffer.mean() == pytest.approx(10.0)
        buffer.next()
        assert buffer.mean() == pytest.approx(15.0)


class TestNaNKeys:
    def test_median_mirror_tracks_the_queue_through_nan(self):
        # A NaN in the sorted mirror used to make bisect delete the
        # wrong entry, until an IndexError at step 98.
        rng = random.Random(1)
        values = [
            math.nan if rng.random() < 0.05 else rng.random()
            for _ in range(500)
        ]
        buffer = InputBuffer(values, 20)
        buffer.median()
        consumed = []
        while True:
            value = buffer.next()
            if value is None:
                break
            consumed.append(value)
            assert _multiset(buffer._sorted_queue) == _multiset(buffer._queue)
            assert buffer.median() in buffer._queue or not buffer._queue
        assert len(consumed) == 500

    def test_drain_shares_the_nan_safe_removal(self):
        values = [0.5, math.nan, 0.25, math.nan, 0.75, 0.1] * 20
        buffer = InputBuffer(values, 8)
        buffer.median()
        taken = []
        while buffer.drain(taken, 0.0, 1.0, 1000) is not None:
            assert _multiset(buffer._sorted_queue) == _multiset(buffer._queue)
        assert len(taken) == 80


def _multiset(values):
    return sorted(map(repr, values))


def _next_n(buffer, low, high, limit):
    """What ``drain`` must equal: up to ``limit`` plain ``next()`` calls."""
    taken = []
    for _ in range(limit):
        value = buffer.next()
        if value is None:
            return taken, None
        if not low <= value <= high:
            return taken, value
        taken.append(value)
    return taken, LIMIT_REACHED


_KEYS = st.one_of(
    st.lists(st.integers(-20, 20), max_size=60),
    st.lists(
        st.sampled_from([-0.0, 0.0, -1.5, 1.5, 2.25, -3.0, 7.0]), max_size=60
    ),
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        max_size=60,
    ),
    # Ints past 2**53, where a sum taken in floats would round.
    st.lists(
        st.sampled_from([2**60, -(2**60), 2**53 + 1, 2**63 - 1, 1, -1, 3]),
        max_size=60,
    ),
    # int, bool and float keys in one stream: the running sum turns
    # float part way through.
    st.lists(
        st.one_of(
            st.integers(-20, 20),
            st.booleans(),
            st.sampled_from([-0.0, 0.0, 0.1, -2.25, 1e16]),
        ),
        max_size=60,
    ),
)


@settings(max_examples=600, deadline=None)
@given(
    values=_KEYS,
    capacity=st.sampled_from([0, 1, 2, 3, 5, 8]),
    before=st.integers(0, 10),
    bounds=st.tuples(st.integers(-25, 25), st.integers(0, 30)),
    limit=st.integers(0, 70),
    rounds=st.sampled_from([None, 1, 2, 3]),
    span_all=st.booleans(),
    use_mean=st.booleans(),
    use_median=st.booleans(),
)
def test_drain_equals_repeated_next(
    values, capacity, before, bounds, limit, rounds, span_all, use_mean, use_median
):
    low, width = bounds
    high = low + width
    # Float keys get a float range so -0.0/0.0 land on its edges too.
    if values and isinstance(values[0], float):
        low, high = float(low) / 4, float(high) / 4
    # A range over every key lets the drain run until its limit or the
    # end of the input; a limit of up to 3x capacity takes several rounds.
    if span_all and values:
        low, high = min(values), max(values)
    if rounds is not None:
        limit = rounds * capacity
    _assert_drain_equals_next(
        values, capacity, before, low, high, limit, use_mean, use_median
    )


@pytest.mark.parametrize("capacity", [0, 1, 4])
@pytest.mark.parametrize("use_mean", [False, True])
@pytest.mark.parametrize("use_median", [False, True])
def test_drain_reaches_the_end_over_several_rounds(capacity, use_mean, use_median):
    values = [2**60, 1, 0.5, True, -(2**60), 3, 0.25] * 3
    _assert_drain_equals_next(
        values, capacity, 2, -(2**61), 2**61, 10 * len(values), use_mean, use_median
    )


def _assert_drain_equals_next(
    values, capacity, before, low, high, limit, use_mean, use_median
):
    drained = InputBuffer(values, capacity)
    stepped = InputBuffer(values, capacity)
    for buffer in (drained, stepped):
        for _ in range(before):
            buffer.next()
        if use_mean:
            buffer.mean()
        if use_median:
            buffer.median()

    taken = []
    result = drained.drain(taken, low, high, limit)
    expected_taken, expected = _next_n(stepped, low, high, limit)

    assert len(taken) == len(expected_taken)
    assert all(a is b for a, b in zip(taken, expected_taken))
    assert result is expected
    assert drained.generation == stepped.generation
    assert drained.records_read == stepped.records_read
    assert repr(drained._queue_sum) == repr(stepped._queue_sum)
    assert repr(drained.mean()) == repr(stepped.mean())
    assert repr(drained.median()) == repr(stepped.median())
    assert drained.sample() == stepped.sample()
    assert all(a is b for a, b in zip(drained.sample(), stepped.sample()))
    if drained._sorted_queue is not None:
        assert all(
            a is b
            for a, b in zip(drained._sorted_queue, stepped._sorted_queue)
        )
    # The rest of the stream comes out identically, and at the end the
    # statistics fall back to identical shadow windows.
    while True:
        a, b = drained.next(), stepped.next()
        assert a is b
        if a is None:
            break
    assert all(a is b for a, b in zip(drained.sample(), stepped.sample()))
    assert len(drained.sample()) == len(stepped.sample())
    assert repr(drained.mean()) == repr(stepped.mean())
