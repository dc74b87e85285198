"""Ablation: the shared-array DoubleHeap vs two independent heaps.

DESIGN.md calls out the single-array layout (Section 4.1, Figure 4.3)
as a design choice: it lets either heap grow at the other's expense
without dynamic allocation.  This bench measures the Python-level
throughput of the two layouts under the 2WRS access pattern (interleaved
pushes and pops on both sides) to document the layout's overhead, and
verifies they compute identical results.
"""

import random

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


def test_bench_double_heap_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_double_heap, values)
    assert result == _run_two_heaps(values)


def test_bench_two_heap_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_two_heaps, values)
    assert result == _run_double_heap(values)
