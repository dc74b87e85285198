"""Unit and property tests for the binary heaps kept as ``heapq`` lists.

The C ``heapq`` functions are the stdlib's; these tests pin the
textbook pops and replace of :mod:`repro.heaps` (the paper's
sift-down, Section 3.1.1) and the max-heap shims, alone and mixed with
the C functions over the same lists.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import FloatRecord
from repro.heaps import (
    _c_pop_max,
    _push_max,
    _textbook_pop_max,
    _textbook_pop_min,
    _textbook_replace_min,
)


def min_heap(values):
    heap = []
    for value in values:
        heappush(heap, value)
    return heap


def max_heap(values):
    heap = []
    for value in values:
        _push_max(heap, value)
    return heap


def is_min_heap(heap):
    return all(not heap[i] < heap[(i - 1) // 2] for i in range(1, len(heap)))


def is_max_heap(heap):
    return all(not heap[i] > heap[(i - 1) // 2] for i in range(1, len(heap)))


def drain(heap, pop):
    return [pop(heap) for _ in range(len(heap))]


class TestMinHeapBasics:
    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _textbook_pop_min([])

    def test_replace_empty_raises(self):
        with pytest.raises(IndexError):
            _textbook_replace_min([], 1)

    def test_pop_returns_ascending(self):
        heap = min_heap([5, 1, 4, 2, 3])
        assert drain(heap, _textbook_pop_min) == [1, 2, 3, 4, 5]

    def test_replace_pops_old_top(self):
        heap = min_heap([1, 5, 10])
        assert _textbook_replace_min(heap, 7) == 1
        assert sorted(heap) == [5, 7, 10]
        assert is_min_heap(heap)

    def test_duplicates_preserved(self):
        heap = min_heap([2, 2, 1, 1])
        assert drain(heap, _textbook_pop_min) == [1, 1, 2, 2]

    def test_equal_children_never_rise_above_the_sifted_entry(self):
        # The paper's sift-down stops at the first child that is not
        # strictly smaller; C heappop sifts the hole to a leaf first and
        # so releases equal entries in another order.
        a, b, c = (FloatRecord(v, t) for v, t in ((0.0, "a"), (-0.0, "b"), (0.0, "c")))
        textbook = [a, b, c]
        assert [r.text for r in drain(textbook, _textbook_pop_min)] == ["a", "c", "b"]
        c_heap = [a, b, c]
        assert [r.text for r in drain(c_heap, heappop)] == ["a", "b", "c"]


class TestMaxHeap:
    def test_pop_returns_descending(self):
        for pop in (_textbook_pop_max, _c_pop_max):
            heap = max_heap([5, 1, 4, 2, 3])
            assert drain(heap, pop) == [5, 4, 3, 2, 1]

    def test_paper_figure_3_3_insert(self):
        # Figure 3.3: adding 91 to the example max heap; 91 sifts to
        # position 1 (child of the root 93).
        heap = [93, 88, 82, 66, 20, 42, 7]
        assert is_max_heap(heap)
        _push_max(heap, 91)
        assert heap == [93, 91, 82, 88, 20, 42, 7, 66]

    def test_paper_figure_3_4_delete(self):
        # Figure 3.4: deleting the top of the Figure 3.3(c) heap yields
        # 91 at the root and a valid heap.
        heap = [93, 91, 82, 88, 20, 42, 7, 66]
        assert _textbook_pop_max(heap) == 93
        assert heap[0] == 91
        assert is_max_heap(heap)


@settings(max_examples=200)
@given(st.lists(st.integers()))
def test_minheap_pop_order_is_sorted(values):
    assert drain(min_heap(values), _textbook_pop_min) == sorted(values)


@settings(max_examples=200)
@given(st.lists(st.integers()))
def test_maxheap_pop_order_is_reverse_sorted(values):
    want = sorted(values, reverse=True)
    assert drain(max_heap(values), _textbook_pop_max) == want
    assert drain(max_heap(values), _c_pop_max) == want


@settings(max_examples=100)
@given(
    st.lists(st.integers(), min_size=1),
    st.lists(st.integers(), min_size=1, max_size=20),
)
def test_interleaved_push_pop_keeps_invariant(initial, pushes):
    low, high = min_heap(initial), max_heap(initial)
    for value in pushes:
        heappush(low, value)
        _textbook_pop_min(low)
        _push_max(high, value)
        _textbook_pop_max(high)
        assert is_min_heap(low)
        assert is_max_heap(high)


@settings(max_examples=100)
@given(st.lists(st.integers(), min_size=1), st.integers())
def test_replace_equals_pop_then_push(values, new):
    a = min_heap(values)
    b = min_heap(values)
    popped_a = _textbook_replace_min(a, new)
    popped_b = _textbook_pop_min(b)
    heappush(b, new)
    assert popped_a == popped_b
    assert sorted(a) == sorted(b)
    assert is_min_heap(a)
