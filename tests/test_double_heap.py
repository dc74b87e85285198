"""Tests for the shared-array DoubleHeap (Section 4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heaps.binary_heap import HeapEmptyError, HeapFullError
from repro.heaps.double_heap import DoubleHeap
from repro.heaps.run_heap import TaggedRecord, bottom_before, top_before


def make(capacity=16):
    """Bottom = max-heap, top = min-heap: the 2WRS arrangement."""
    return DoubleHeap(capacity)


class TestBasics:
    def test_empty(self):
        heaps = make()
        assert len(heaps) == 0
        assert not heaps
        assert heaps.free == 16

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            make(capacity=-1)

    def test_push_both_sides(self):
        heaps = make()
        heaps.bottom.push(3)
        heaps.top.push(7)
        assert len(heaps) == 2
        assert len(heaps.bottom) == 1
        assert len(heaps.top) == 1

    def test_bottom_pops_max(self):
        heaps = make()
        for v in (3, 9, 1, 7):
            heaps.bottom.push(v)
        assert [heaps.bottom.pop() for _ in range(4)] == [9, 7, 3, 1]

    def test_top_pops_min(self):
        heaps = make()
        for v in (3, 9, 1, 7):
            heaps.top.push(v)
        assert [heaps.top.pop() for _ in range(4)] == [1, 3, 7, 9]

    def test_pop_empty_side_raises(self):
        heaps = make()
        heaps.top.push(1)
        with pytest.raises(HeapEmptyError):
            heaps.bottom.pop()

    def test_peek_empty_side_raises(self):
        with pytest.raises(HeapEmptyError):
            make().top.peek()

    def test_replace(self):
        heaps = make()
        heaps.top.push(5)
        heaps.top.push(9)
        assert heaps.top.replace(7) == 5
        assert heaps.top.peek() == 7


class TestSharedCapacity:
    def test_one_side_can_use_all_capacity(self):
        heaps = make(capacity=8)
        for i in range(8):
            heaps.top.push(i)
        assert heaps.is_full
        with pytest.raises(HeapFullError):
            heaps.bottom.push(0)

    def test_sides_share_capacity(self):
        heaps = make(capacity=4)
        heaps.bottom.push(1)
        heaps.bottom.push(2)
        heaps.top.push(3)
        heaps.top.push(4)
        assert heaps.is_full
        with pytest.raises(HeapFullError):
            heaps.top.push(5)

    def test_growing_at_the_others_expense(self):
        # Figures 4.4-4.5: popping one side frees a slot the other may use.
        heaps = make(capacity=4)
        for v in (33, 28, 32, 16)[:2]:
            heaps.bottom.push(v)
        heaps.top.push(52)
        heaps.top.push(54)
        assert heaps.is_full
        heaps.bottom.pop()
        assert heaps.free == 1
        heaps.top.push(53)
        assert len(heaps.top) == 3
        assert len(heaps.bottom) == 1

    def test_zero_capacity(self):
        heaps = make(capacity=0)
        with pytest.raises(HeapFullError):
            heaps.top.push(1)


class TestArrayLayout:
    def test_figure_4_3_layout(self):
        # Figure 4.3: BottomHeap from index 0 upward, TopHeap stored in
        # reverse level order from the end of the array.
        heaps = make(capacity=14)
        for v in (33, 28, 32, 16, 20, 22, 4):
            heaps.bottom.push(v)
        for v in (52, 54, 72, 75, 64, 81, 77):
            heaps.top.push(v)
        array = heaps.as_array()
        assert array[0] == 33  # bottom root at index 0
        assert array[13] == 52  # top root at the last index
        assert heaps.check_invariant()

    def test_as_list_level_order(self):
        heaps = make()
        for v in (5, 2, 8):
            heaps.top.push(v)
        assert heaps.top.as_list()[0] == 2


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.sampled_from(["top", "bottom"]), st.integers()),
        max_size=60,
    )
)
def test_double_heap_matches_independent_heaps(operations):
    """The shared array must behave like two independent heaps."""
    import heapq

    heaps = make(capacity=100)
    reference_top = []
    reference_bottom = []
    for side, value in operations:
        if side == "top":
            heaps.top.push(value)
            heapq.heappush(reference_top, value)
        else:
            heaps.bottom.push(value)
            heapq.heappush(reference_bottom, -value)
    assert heaps.check_invariant()
    got_top = [heaps.top.pop() for _ in range(len(heaps.top))]
    got_bottom = [heaps.bottom.pop() for _ in range(len(heaps.bottom))]
    want_top = [heapq.heappop(reference_top) for _ in range(len(reference_top))]
    want_bottom = [
        -heapq.heappop(reference_bottom) for _ in range(len(reference_bottom))
    ]
    assert got_top == want_top
    assert got_bottom == want_bottom


@settings(max_examples=100)
@given(st.data())
def test_interleaved_push_pop_invariant(data):
    heaps = make(capacity=32)
    for _ in range(40):
        action = data.draw(st.sampled_from(["push_t", "push_b", "pop_t", "pop_b"]))
        if action == "push_t" and not heaps.is_full:
            heaps.top.push(data.draw(st.integers(0, 100)))
        elif action == "push_b" and not heaps.is_full:
            heaps.bottom.push(data.draw(st.integers(0, 100)))
        elif action == "pop_t" and heaps.top:
            heaps.top.pop()
        elif action == "pop_b" and heaps.bottom:
            heaps.bottom.pop()
        assert heaps.check_invariant()


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["top", "bottom"]),
            st.integers(0, 2),
            st.integers(-50, 50),
        ),
        max_size=60,
    )
)
def test_run_tagged_entries_pop_in_run_order(operations):
    """2WRS entries: ``(run, key)`` on top, ``(-run, key)`` at the bottom.

    On both sides every entry of an earlier run pops before any entry of
    a later one (next-run entries sink below current-run ones); within a
    run the top releases ascending and the bottom descending keys.
    """
    heaps = make(capacity=100)
    tops, bottoms = [], []
    for side, run, key in operations:
        if side == "top":
            heaps.top.push((run, key))
            tops.append((run, key))
        else:
            heaps.bottom.push((-run, key))
            bottoms.append((run, key))
    assert heaps.check_invariant()
    got_top = [heaps.top.pop() for _ in range(len(heaps.top))]
    got_bottom = [heaps.bottom.pop() for _ in range(len(heaps.bottom))]
    assert got_top == sorted(tops)
    assert [(-tag, key) for tag, key in got_bottom] == sorted(
        bottoms, key=lambda entry: (entry[0], -entry[1])
    )


_KEYS = [-1.0, -0.0, 0.0, 1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("run_a", [0, 1])
@pytest.mark.parametrize("run_b", [0, 1])
def test_tuple_order_is_the_run_tagged_predicate_order(run_a, run_b):
    """Plain tuple comparison of the entries decides exactly as the
    ``top_before`` / ``bottom_before`` predicates, ties and NaN too."""
    for key_a in _KEYS:
        for key_b in _KEYS + [key_a]:  # the same NaN object as well
            a, b = TaggedRecord(run_a, key_a), TaggedRecord(run_b, key_b)
            assert ((run_a, key_a) < (run_b, key_b)) == top_before(a, b)
            assert ((-run_a, key_a) > (-run_b, key_b)) == bottom_before(a, b)
