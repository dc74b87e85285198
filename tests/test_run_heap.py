"""Tests for run-tagged heap entries (Section 3.3).

During run generation every record in memory is tagged with the run it
belongs to, and records of the *next* run must sink below all records of
the *current* run.  RS and the 2WRS TopHeap keep ``(run, key)`` entries
in a ``heapq`` min-heap list; the 2WRS BottomHeap keeps ``(-run, key)``
entries in a max-heap list, so plain tuple order is the run-tagged
order on both sides.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heaps import _push_max, _textbook_pop_max, _textbook_pop_min


def top_heap(entries):
    heap = []
    for entry in entries:
        heappush(heap, entry)
    return heap


def bottom_heap(entries):
    heap = []
    for run, key in entries:
        _push_max(heap, (-run, key))
    return heap


class TestOrderingPredicates:
    def test_top_orders_by_run_first(self):
        heap = top_heap([(1, 1), (0, 100)])
        assert _textbook_pop_min(heap) == (0, 100)

    def test_top_orders_by_key_within_run(self):
        heap = top_heap([(0, 2), (0, 1)])
        assert _textbook_pop_min(heap) == (0, 1)

    def test_bottom_orders_by_run_first(self):
        # Next-run records sink below current ones even with large keys.
        heap = bottom_heap([(1, 100), (0, 1)])
        assert _textbook_pop_max(heap) == (0, 1)

    def test_bottom_orders_descending_within_run(self):
        heap = bottom_heap([(0, 3), (0, 9)])
        assert _textbook_pop_max(heap) == (0, 9)


class TestTopRunHeap:
    def test_current_run_pops_ascending(self):
        heap = top_heap((0, k) for k in (5, 1, 3))
        assert [_textbook_pop_min(heap)[1] for _ in range(3)] == [1, 3, 5]

    def test_next_run_stays_below(self):
        heap = top_heap([(1, 0), (0, 1000)])  # next run tiny, current large
        assert _textbook_pop_min(heap) == (0, 1000)
        assert _textbook_pop_min(heap) == (1, 0)

    def test_top_of_next_run_means_memory_flushed(self):
        # Section 3.3's argument: if the top belongs to the next run,
        # every record does.
        heap = top_heap([(1, 4), (1, 7), (1, 2)])
        assert heap[0][0] == 1
        assert all(run == 1 for run, _key in heap)


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(-1000, 1000)), min_size=1
    )
)
def test_top_run_heap_total_order(pairs):
    for pop in (_textbook_pop_min, heappop):
        heap = top_heap(pairs)
        assert [pop(heap) for _ in range(len(pairs))] == sorted(pairs)
