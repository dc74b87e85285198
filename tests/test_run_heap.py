"""Tests for run-tagged records and heaps (Section 3.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heaps.run_heap import (
    TaggedRecord,
    TopRunHeap,
    bottom_before,
    top_before,
)


class TestTaggedRecord:
    def test_payload_ignored_by_equality(self):
        assert TaggedRecord(0, 5, "a") == TaggedRecord(0, 5, "b")

    def test_is_frozen(self):
        import pytest

        with pytest.raises(Exception):
            TaggedRecord(0, 5).key = 7


class TestOrderingPredicates:
    def test_top_orders_by_run_first(self):
        assert top_before(TaggedRecord(0, 100), TaggedRecord(1, 1))
        assert not top_before(TaggedRecord(1, 1), TaggedRecord(0, 100))

    def test_top_orders_by_key_within_run(self):
        assert top_before(TaggedRecord(0, 1), TaggedRecord(0, 2))

    def test_bottom_orders_by_run_first(self):
        # Next-run records sink below current ones even with large keys.
        assert bottom_before(TaggedRecord(0, 1), TaggedRecord(1, 100))

    def test_bottom_orders_descending_within_run(self):
        assert bottom_before(TaggedRecord(0, 9), TaggedRecord(0, 3))


class TestTopRunHeap:
    def test_current_run_pops_ascending(self):
        heap = TopRunHeap(TaggedRecord(0, k) for k in (5, 1, 3))
        assert [heap.pop().key for _ in range(3)] == [1, 3, 5]

    def test_next_run_stays_below(self):
        heap = TopRunHeap()
        heap.push(TaggedRecord(1, 0))  # next run, tiny key
        heap.push(TaggedRecord(0, 1000))  # current run, large key
        assert heap.pop() == TaggedRecord(0, 1000)
        assert heap.pop() == TaggedRecord(1, 0)

    def test_top_of_next_run_means_memory_flushed(self):
        # Section 3.3's argument: if the top belongs to the next run,
        # every record does.
        heap = TopRunHeap()
        for key in (4, 7, 2):
            heap.push(TaggedRecord(1, key))
        assert heap.peek().run == 1
        assert all(r.run == 1 for r in heap)


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(-1000, 1000)), min_size=1
    )
)
def test_top_run_heap_total_order(pairs):
    heap = TopRunHeap(TaggedRecord(r, k) for r, k in pairs)
    popped = [heap.pop() for _ in range(len(pairs))]
    assert popped == sorted(popped, key=lambda t: (t.run, t.key))

