"""Input and output heuristics of 2WRS (Section 4.2).

When a record could be routed to either heap, an *input heuristic*
decides which heap stores it; when both heaps can release a record of
the current run, an *output heuristic* decides which heap pops.  The
paper studies six input and five output heuristics (30 combinations,
analysed in Chapter 5); all are implemented here and registered by the
paper's names.

Heuristics see the algorithm through the attributes documented on
:class:`HeuristicContext`, so they stay decoupled from the 2WRS
internals.  The run loop passes one reusable context that reads its live
state (``core.two_way._LiveContext``); :class:`HeuristicContext` is the
same view as a fixed snapshot, for tests and direct callers.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Dict, Optional, Type

#: Sentinel distinguishing "not provided" from an explicit None.
_UNSET = object()


class Side(Enum):
    """Which of the two heaps a decision targets."""

    TOP = "top"
    BOTTOM = "bottom"

    @property
    def other(self) -> "Side":
        return Side.BOTTOM if self is Side.TOP else Side.TOP


class HeuristicContext:
    """What a heuristic may observe about the running algorithm.

    A snapshot: the sizes, counters and heads are fixed at construction.
    The distribution statistics (``input_mean`` / ``input_median`` /
    ``input_sample``) are *lazy*: when a ``stats`` provider is given
    (any object with ``mean()`` / ``median()`` / ``sample()``, normally
    the :class:`~repro.core.input_buffer.InputBuffer`), each statistic
    is fetched on first attribute access and cached for the lifetime of
    the snapshot, so heuristics that never look at a statistic never pay
    for it.  Passing the statistics as explicit keyword values still
    works and takes precedence over the provider.

    Attributes
    ----------
    rng:
        Seeded random generator shared by all stochastic heuristics.
    top_size / bottom_size:
        Current record counts of the two heaps.
    top_outputs / bottom_outputs:
        Records released by each heap during the current run.
    top_head / bottom_head:
        Keys at the top of each heap (None when empty).
    input_mean / input_median:
        Statistics over the input buffer sample (None when unavailable).
    first_output:
        First record released in the current run (None before it).
    """

    __slots__ = (
        "rng",
        "top_size",
        "bottom_size",
        "top_outputs",
        "bottom_outputs",
        "top_head",
        "bottom_head",
        "first_output",
        "_stats",
        "_input_mean",
        "_input_median",
        "_input_sample",
    )

    def __init__(
        self,
        rng: random.Random,
        top_size: int = 0,
        bottom_size: int = 0,
        top_outputs: int = 0,
        bottom_outputs: int = 0,
        top_head: Optional[Any] = None,
        bottom_head: Optional[Any] = None,
        input_mean: Any = _UNSET,
        input_median: Any = _UNSET,
        input_sample: Any = _UNSET,
        first_output: Optional[Any] = None,
        stats: Optional[Any] = None,
    ) -> None:
        self.rng = rng
        self.top_size = top_size
        self.bottom_size = bottom_size
        self.top_outputs = top_outputs
        self.bottom_outputs = bottom_outputs
        self.top_head = top_head
        self.bottom_head = bottom_head
        self.first_output = first_output
        self._stats = stats
        self._input_mean = input_mean
        self._input_median = input_median
        self._input_sample = input_sample

    @property
    def input_mean(self) -> Optional[float]:
        if self._input_mean is _UNSET:
            self._input_mean = (
                self._stats.mean() if self._stats is not None else None
            )
        return self._input_mean

    @property
    def input_median(self) -> Optional[Any]:
        if self._input_median is _UNSET:
            self._input_median = (
                self._stats.median() if self._stats is not None else None
            )
        return self._input_median

    @property
    def input_sample(self) -> Optional[list]:
        if self._input_sample is _UNSET:
            self._input_sample = (
                self._stats.sample() if self._stats is not None else None
            )
        return self._input_sample

    def usefulness(self, side: Side) -> float:
        """Records output by a heap divided by its size (Section 4.2)."""
        if side is Side.TOP:
            return self.top_outputs / max(1, self.top_size)
        return self.bottom_outputs / max(1, self.bottom_size)


class InputHeuristic(ABC):
    """Chooses the heap that stores an incoming record."""

    name: str = "input-base"

    @abstractmethod
    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        """Return the side that should store ``value``."""

    def on_run_start(self) -> None:
        """Hook called at every run boundary (stateful heuristics)."""

    @property
    def wants_rebalance(self) -> bool:
        """True when heap contents should be equalised at run starts."""
        return False


class OutputHeuristic(ABC):
    """Chooses the heap that releases the next record."""

    name: str = "output-base"

    @abstractmethod
    def choose(self, ctx: HeuristicContext) -> Side:
        """Return the side that should pop (both sides are poppable)."""

    def on_run_start(self) -> None:
        """Hook called at every run boundary (stateful heuristics)."""


# -- input heuristics ------------------------------------------------------------


class RandomInput(InputHeuristic):
    """Level k=0: a fair coin decides the heap."""

    name = "random"

    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM


class AlternateInput(InputHeuristic):
    """Level k=1: strict alternation between the heaps."""

    name = "alternate"

    def __init__(self) -> None:
        self._last = Side.TOP

    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        self._last = self._last.other
        return self._last


class MeanInput(InputHeuristic):
    """Level k=2: above the input-buffer mean goes to the TopHeap."""

    name = "mean"

    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        mean = ctx.input_mean
        if mean is None:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if value > mean else Side.BOTTOM


class MedianInput(InputHeuristic):
    """Level k=3: above the input-buffer median goes to the TopHeap."""

    name = "median"

    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        median = ctx.input_median
        if median is None:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if value > median else Side.BOTTOM


class UsefulInput(InputHeuristic):
    """Level k=4: feed the heap that has been releasing more per record."""

    name = "useful"

    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        top_u = ctx.usefulness(Side.TOP)
        bottom_u = ctx.usefulness(Side.BOTTOM)
        if top_u == bottom_u:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if top_u > bottom_u else Side.BOTTOM


class BalancingInput(InputHeuristic):
    """Level k=5: feed the smaller heap; equalise sizes at run starts."""

    name = "balancing"

    def choose(self, value: Any, ctx: HeuristicContext) -> Side:
        if ctx.top_size == ctx.bottom_size:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if ctx.top_size < ctx.bottom_size else Side.BOTTOM

    @property
    def wants_rebalance(self) -> bool:
        return True


# -- output heuristics ---------------------------------------------------------------


class RandomOutput(OutputHeuristic):
    """Level l=0: a fair coin decides the heap (the paper's pick)."""

    name = "random"

    def choose(self, ctx: HeuristicContext) -> Side:
        return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM


class AlternateOutput(OutputHeuristic):
    """Level l=1: BottomHeap first, then strict alternation."""

    name = "alternate"

    def __init__(self) -> None:
        self._last = Side.TOP

    def choose(self, ctx: HeuristicContext) -> Side:
        self._last = self._last.other
        return self._last

    def on_run_start(self) -> None:
        self._last = Side.TOP  # so the first pop of a run is BOTTOM


class UsefulOutput(OutputHeuristic):
    """Level l=2: pop from the more useful heap."""

    name = "useful"

    def choose(self, ctx: HeuristicContext) -> Side:
        top_u = ctx.usefulness(Side.TOP)
        bottom_u = ctx.usefulness(Side.BOTTOM)
        if top_u == bottom_u:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if top_u > bottom_u else Side.BOTTOM


class BalancingOutput(OutputHeuristic):
    """Level l=3: pop from the larger heap, keeping sizes even."""

    name = "balancing"

    def choose(self, ctx: HeuristicContext) -> Side:
        if ctx.top_size == ctx.bottom_size:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if ctx.top_size > ctx.bottom_size else Side.BOTTOM


class MinDistanceOutput(OutputHeuristic):
    """Level l=4: pop the head closer (absolute value) to the run's first output.

    Keys without subtraction (strings, csv tuples, binary key bytes) have
    no distance; the heuristic then flips its coin, as the Mean input
    heuristic does for keys without a mean.
    """

    name = "min_distance"

    def choose(self, ctx: HeuristicContext) -> Side:
        first = ctx.first_output
        top_head = ctx.top_head
        bottom_head = ctx.bottom_head
        if first is None or top_head is None or bottom_head is None:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        try:
            top_distance = abs(top_head - first)
            bottom_distance = abs(bottom_head - first)
        except TypeError:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        if top_distance == bottom_distance:
            return Side.TOP if ctx.rng.random() < 0.5 else Side.BOTTOM
        return Side.TOP if top_distance < bottom_distance else Side.BOTTOM


#: Paper name -> class, input heuristics (factor k levels 0..5).
INPUT_HEURISTICS: Dict[str, Type[InputHeuristic]] = {
    cls.name: cls
    for cls in (
        RandomInput,
        AlternateInput,
        MeanInput,
        MedianInput,
        UsefulInput,
        BalancingInput,
    )
}

#: Paper name -> class, output heuristics (factor l levels 0..4).
OUTPUT_HEURISTICS: Dict[str, Type[OutputHeuristic]] = {
    cls.name: cls
    for cls in (
        RandomOutput,
        AlternateOutput,
        UsefulOutput,
        BalancingOutput,
        MinDistanceOutput,
    )
}


def make_input_heuristic(name: str) -> InputHeuristic:
    """Instantiate an input heuristic by its paper name."""
    return _make(INPUT_HEURISTICS, name, "input")


def make_output_heuristic(name: str) -> OutputHeuristic:
    """Instantiate an output heuristic by its paper name."""
    return _make(OUTPUT_HEURISTICS, name, "output")


def _make(registry: Dict[str, type], name: str, kind: str):
    try:
        cls = registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown {kind} heuristic {name!r}; known: {known}") from None
    return cls()


# The Section 7.1 adaptive heuristic belongs in INPUT_HEURISTICS like
# the paper's six.  Its module builds on the classes above and registers
# it on import, so it is imported here, last: every caller of the
# registry (the CLI's choices, make_input_heuristic) sees it.
import repro.core.adaptive  # noqa: E402,F401
