"""Ablation: the paper's shared-array heap vs two heaps under one bound.

The paper keeps the 2WRS heaps in one array (Section 4.1, Figure 4.3)
so that either heap grows at the other's expense.  Two growable lists
whose combined size is bounded enforce the same rule; 2WRS itself now
runs on two C ``heapq`` lists (DESIGN.md §4.1).  This bench measures
three layouts under the 2WRS access pattern (interleaved pushes and
pops on both sides) and verifies they compute identical results:

* ``DoubleHeap``, the paper's one-array layout (the reference);
* ``MinHeap`` / ``MaxHeap``, two Python-sift heaps;
* the two ``heapq`` lists and max-heap helpers ``core.two_way`` uses.
"""

import random
from heapq import heappop, heappush

from repro.core.two_way import _c_pop_max, _push_max
from repro.heaps.binary_heap import MaxHeap, MinHeap
from repro.heaps.double_heap import DoubleHeap

OPS = 20_000
CAPACITY = 2_048


def _workload(seed: int):
    rng = random.Random(seed)
    return [rng.random() for _ in range(OPS)]


def _run_double_heap(values) -> float:
    heaps: DoubleHeap[float] = DoubleHeap(CAPACITY)
    total = 0.0
    for i, value in enumerate(values):
        side = heaps.bottom if value < 0.5 else heaps.top
        if heaps.is_full:
            victim = heaps.bottom if len(heaps.bottom) else heaps.top
            total += victim.pop()
        side.push(value)
        if i % 3 == 0 and len(heaps.top):
            total += heaps.top.pop()
    return total


def _run_two_heaps(values) -> float:
    bottom: MaxHeap[float] = MaxHeap()
    top: MinHeap[float] = MinHeap()
    total = 0.0
    for i, value in enumerate(values):
        side = bottom if value < 0.5 else top
        if len(bottom) + len(top) >= CAPACITY:
            victim = bottom if len(bottom) else top
            total += victim.pop()
        side.push(value)
        if i % 3 == 0 and len(top):
            total += top.pop()
    return total


def _run_heapq_lists(values) -> float:
    bottom: list = []
    top: list = []
    total = 0.0
    for i, value in enumerate(values):
        if len(bottom) + len(top) >= CAPACITY:
            total += _c_pop_max(bottom) if bottom else heappop(top)
        if value < 0.5:
            _push_max(bottom, value)
        else:
            heappush(top, value)
        if i % 3 == 0 and top:
            total += heappop(top)
    return total


def test_bench_double_heap_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_double_heap, values)
    assert result == _run_two_heaps(values) == _run_heapq_lists(values)


def test_bench_two_heap_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_two_heaps, values)
    assert result == _run_double_heap(values) == _run_heapq_lists(values)


def test_bench_heapq_list_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_heapq_lists, values)
    assert result == _run_double_heap(values) == _run_two_heaps(values)
