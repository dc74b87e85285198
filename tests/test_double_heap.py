"""Tests for the 2WRS double heap (Section 4.1).

The paper keeps the BottomHeap (a max-heap) and the TopHeap (a min-heap)
in one array, so together they never hold more than the heap capacity
and either may grow at the other's expense.  2WRS keeps them as two
``heapq`` lists of a ``_RunState`` under that one combined bound: the
TopHeap holds ``(run, key)`` entries and the BottomHeap ``(-run, key)``
entries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TwoWayConfig
from repro.core.heuristics import Side
from repro.core.two_way import TwoWayReplacementSelection, _RunState
from repro.heaps import HeapFullError


def make(capacity=16, textbook=False):
    """A generation state whose heaps hold ``capacity`` entries together."""
    algo = TwoWayReplacementSelection(capacity, TwoWayConfig(buffer_fraction=0.0))
    state = _RunState(algo, [])
    assert state.capacity == capacity
    if textbook:
        state.use_textbook_pops()
    return state


def size(state):
    return len(state.top) + len(state.bottom)


def pop_top(state):
    return state.pop_top(state.top)


def pop_bottom(state):
    return state.pop_bottom(state.bottom)


def is_min_heap(heap):
    return all(not heap[i] < heap[(i - 1) // 2] for i in range(1, len(heap)))


def is_max_heap(heap):
    return all(not heap[i] > heap[(i - 1) // 2] for i in range(1, len(heap)))


class TestBasics:
    def test_empty(self):
        state = make()
        assert size(state) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TwoWayReplacementSelection(-1)

    def test_push_both_sides(self):
        state = make()
        state.push(Side.BOTTOM, 0, 3)
        state.push(Side.TOP, 0, 7)
        assert size(state) == 2
        assert len(state.bottom) == 1
        assert len(state.top) == 1

    def test_bottom_pops_max(self):
        for textbook in (False, True):
            state = make(textbook=textbook)
            for v in (3, 9, 1, 7):
                state.push(Side.BOTTOM, 0, v)
            assert [pop_bottom(state)[1] for _ in range(4)] == [9, 7, 3, 1]

    def test_top_pops_min(self):
        for textbook in (False, True):
            state = make(textbook=textbook)
            for v in (3, 9, 1, 7):
                state.push(Side.TOP, 0, v)
            assert [pop_top(state)[1] for _ in range(4)] == [1, 3, 7, 9]

    def test_pop_empty_side_raises(self):
        for textbook in (False, True):
            state = make(textbook=textbook)
            state.push(Side.TOP, 0, 1)
            with pytest.raises(IndexError):
                pop_bottom(state)


class TestSharedCapacity:
    def test_one_side_can_use_all_capacity(self):
        state = make(capacity=8)
        for i in range(8):
            state.push(Side.TOP, 0, i)
        with pytest.raises(HeapFullError):
            state.push(Side.BOTTOM, 0, 0)

    def test_sides_share_capacity(self):
        state = make(capacity=4)
        state.push(Side.BOTTOM, 0, 1)
        state.push(Side.BOTTOM, 0, 2)
        state.push(Side.TOP, 0, 3)
        state.push(Side.TOP, 0, 4)
        with pytest.raises(HeapFullError):
            state.push(Side.TOP, 0, 5)

    def test_growing_at_the_others_expense(self):
        # Figures 4.4-4.5: popping one side frees a slot the other may use.
        state = make(capacity=4)
        for v in (33, 28):
            state.push(Side.BOTTOM, 0, v)
        state.push(Side.TOP, 0, 52)
        state.push(Side.TOP, 0, 54)
        pop_bottom(state)
        state.push(Side.TOP, 0, 53)
        assert len(state.top) == 3
        assert len(state.bottom) == 1

    def test_zero_capacity(self):
        with pytest.raises(ValueError):
            TwoWayReplacementSelection(0)


@settings(max_examples=150)
@given(
    st.lists(
        st.sampled_from(["push_t", "push_b", "pop_t", "pop_b"]), max_size=80
    ),
    st.data(),
    st.booleans(),
)
def test_interleaved_push_pop_invariant(actions, data, textbook):
    state = make(capacity=32, textbook=textbook)
    for action in actions:
        full = size(state) >= state.capacity
        if action == "push_t" and not full:
            state.push(Side.TOP, 0, data.draw(st.integers(0, 100)))
        elif action == "push_b" and not full:
            state.push(Side.BOTTOM, 0, data.draw(st.integers(0, 100)))
        elif action == "pop_t" and state.top:
            pop_top(state)
        elif action == "pop_b" and state.bottom:
            pop_bottom(state)
        assert is_min_heap(state.top)
        assert is_max_heap(state.bottom)
        assert size(state) <= state.capacity


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([Side.TOP, Side.BOTTOM]),
            st.integers(0, 2),
            st.integers(-50, 50),
        ),
        max_size=60,
    ),
    st.booleans(),
)
def test_run_tagged_entries_pop_in_run_order(operations, textbook):
    """On both sides every entry of an earlier run pops before any entry
    of a later one (next-run entries sink below current-run ones); within
    a run the top releases ascending and the bottom descending keys."""
    state = make(capacity=100, textbook=textbook)
    tops, bottoms = [], []
    for side, run, key in operations:
        state.push(side, run, key)
        (tops if side is Side.TOP else bottoms).append((run, key))
    got_top = [pop_top(state) for _ in range(len(tops))]
    got_bottom = [pop_bottom(state) for _ in range(len(bottoms))]
    assert got_top == sorted(tops)
    assert [(-tag, key) for tag, key in got_bottom] == sorted(
        bottoms, key=lambda entry: (entry[0], -entry[1])
    )


def top_before(a, b):
    """The paper's TopHeap order: current run first, then ascending keys."""
    return a[0] < b[0] if a[0] != b[0] else a[1] < b[1]


def bottom_before(a, b):
    """The paper's BottomHeap order: current run first, then descending."""
    return a[0] < b[0] if a[0] != b[0] else a[1] > b[1]


_KEYS = [-1.0, -0.0, 0.0, 1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("run_a", [0, 1])
@pytest.mark.parametrize("run_b", [0, 1])
def test_tuple_order_is_the_run_tagged_predicate_order(run_a, run_b):
    """Plain tuple comparison of the entries decides exactly as the
    paper's run-tagged predicates, ties and NaN too."""
    for key_a in _KEYS:
        for key_b in _KEYS + [key_a]:  # the same NaN object as well
            a, b = (run_a, key_a), (run_b, key_b)
            assert ((run_a, key_a) < (run_b, key_b)) == top_before(a, b)
            assert ((-run_a, key_a) > (-run_b, key_b)) == bottom_before(a, b)
