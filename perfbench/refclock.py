"""A reference clock: how fast the CPU running a measured program is.

The machine the benchmark was sized on shares its CPUs with other
tenants, and the speed a process gets from its CPU drifts by 20-40%
within seconds and between minutes.  A wall time measured in one run
is then mostly a reading of that drift.  The reference clock measures
the drift where it happens: a fixed unit of pure-Python work (heap
pushes and pops, like the sort's own inner loop) is timed again and
again on the same CPU, interleaved with the program's work, and a
measured duration is rescaled by ``REF_NOMINAL_S / mean(unit times)``.
The result is the duration the work would have taken at the nominal
speed; its unit is still seconds.

Where the samples are taken matters.  Timed before and after a 2 s
sort, the reference explained almost none of the sort's variation
(correlation 0.15); running on the other CPU during the sort, none
either (0.19); sampled inside the sort's process but unpinned, little
(0.37).  Sampled every 20 ms inside the program's own process, pinned
to the program's CPU, it tracked the sort closely (0.89-0.98), and the
rescaled sort times varied 3-6% where the raw ones varied 6-18%.

A change that makes the program faster or slower moves the rescaled
time by the same factor as the wall time: the reference unit runs none
of the program's code.
"""

from __future__ import annotations

import heapq
import os
import random
import threading
import time
from typing import List, Sequence, Tuple

#: About the mean duration of one reference unit sampled inside a sort
#: process on the 2-CPU machine the benchmark was sized on (in a loop
#: of its own, with its data in cache, a unit takes ~0.16 ms).  A
#: constant: rescaled times are comparable across runs and commits.
REF_NOMINAL_S = 0.00022
#: Sampling period of :class:`Sampler`.
SAMPLE_EVERY_S = 0.02

_VALUES = [random.Random(1).getrandbits(30) for _ in range(600)]


def pin_to_one_cpu() -> None:
    """Run this process on one CPU only, so the reference samples the
    CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_unit() -> float:
    """Run one unit of reference work; return its duration in seconds."""
    started = time.perf_counter()
    heap: List[int] = []
    for value in _VALUES:
        heapq.heappush(heap, value)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - started


def speed_factor(samples: Sequence[float]) -> float:
    """Multiply a duration measured alongside ``samples`` by this to get
    the duration at the nominal speed."""
    return REF_NOMINAL_S * len(samples) / sum(samples)


class Interleaved:
    """Rescales the durations of operations the benchmark times in its
    own loop: each by the reference units run just before and just
    after it (the speed can flip within a tenth of a second, so wider
    windows rescale single operations worse)."""

    def __init__(self) -> None:
        self._before = reference_unit()

    def scale(self, duration: float) -> float:
        """Run the reference unit after an operation that took
        ``duration`` seconds; return its duration at the nominal speed."""
        after = reference_unit()
        factor = speed_factor((self._before, after))
        self._before = after
        return duration * factor


def speed_factor_within(samples: Sequence[Sequence[float]], start: float,
                        end: float) -> float:
    """:func:`speed_factor` of the ``(time, duration)`` samples taken
    between ``start`` and ``end`` (``time.perf_counter`` readings, which
    every process on the machine shares); all samples if none fall
    inside."""
    inside = [d for t, d in samples if start <= t <= end]
    return speed_factor(inside or [d for _, d in samples])


class Sampler:
    """A daemon thread that times one reference unit every
    ``SAMPLE_EVERY_S`` while the process's main thread runs the
    program (for programs whose loop the benchmark does not own).
    ``samples`` holds ``(time, duration)`` pairs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                         name="perfbench-refclock")

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample()

    def _sample(self) -> None:
        duration = reference_unit()
        self.samples.append((time.perf_counter(), duration))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> List[Tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            # A run shorter than one period: sample once now.
            self._sample()
        return self.samples
