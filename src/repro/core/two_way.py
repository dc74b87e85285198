"""Two-way replacement selection (Chapter 4, Algorithm 2).

2WRS generalises replacement selection with a second heap so the
algorithm captures decreasing trends as well as increasing ones:

* the **TopHeap** (a min-heap) releases an increasing stream, exactly
  like classic RS;
* the **BottomHeap** (a max-heap) releases a decreasing stream, turning
  reverse-sorted input from RS's worst case into a single run;
* the two heaps together never hold more than the heap capacity, so
  either may grow at the other's expense (the paper keeps them in one
  array; here they are two ``heapq`` lists under one combined bound);
* an **input buffer** samples the input for the routing heuristics;
* a **victim buffer** captures records that fall in the value gap
  between the two released streams and would otherwise be pushed to the
  next run.

Each run leaves the algorithm as four non-overlapping streams
(:class:`~repro.core.streams.RunStreams`); their 4‖3‖2‖1 concatenation
is the ascending run.

Cross-stream correctness
------------------------
The four streams of a run must keep pairwise disjoint ranges (Section
4.1), but the routing heuristics are free — the Random heuristic may
well put large records in the BottomHeap.  We therefore maintain two
per-run frontiers:

* ``bottom_ceiling`` — the smallest value already committed to streams
  1, 2 or 3; a BottomHeap release must stay at or below it;
* ``top_floor`` — the largest value committed to streams 2, 3 or 4; a
  TopHeap release must stay at or above it.

A popped record that would violate its frontier is *migrated* to the
other heap when that side can still release it, stored in the victim
buffer when it falls inside the current gap, and otherwise demoted to
the next run — which is precisely the accounting behind the paper's
run-length theorems (e.g. Theorem 6: each monotone section of the
alternating dataset becomes its own run because the opposite stream's
frontier blocks the turn-around records).

Heaps and ties
--------------
The TopHeap is a ``heapq`` min-heap list of ``(run, key)`` entries and
the BottomHeap a max-heap list of ``(-run, key)`` entries popped with
C ``_heappop_max``.  A push past their combined bound raises
:class:`~repro.heaps.HeapFullError`, exactly like the paper's shared
array.  The tie rule is the one RS, batched RS and top-k share
(:mod:`repro.heaps`): C pops while every key is tie-blind, and on the
first key of another type (a float, whose ``-0.0`` and ``0.0`` compare
equal, or a record object) the generation switches, one way, to
textbook pops over the same lists, so its streams stay exactly those of
the paper's heap.

The class implements the common :class:`~repro.runs.base.RunGenerator`
interface; :meth:`generate_run_streams` additionally exposes the four
per-run streams for pipelines that persist decreasing streams in the
Appendix A backwards file format.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import TwoWayConfig
from repro.core.heuristics import (
    HeuristicContext,
    Side,
    make_input_heuristic,
    make_output_heuristic,
)
from repro.core.input_buffer import LIMIT_REACHED, InputBuffer
from repro.core.streams import RunStreams
from repro.core.victim_buffer import VictimBuffer, VictimPhase
from repro.heaps import (
    TIE_BLIND_TYPES,
    HeapFullError,
    _c_pop_max,
    _push_max,
    _textbook_pop_max,
    _textbook_pop_min,
)
from repro.runs.base import RunGenerator

#: A heap entry: ``(run, key)`` in the TopHeap, ``(-run, key)`` in the
#: BottomHeap.  Plain tuple order is then exactly the paper's run-tagged
#: order: on both sides a current-run entry pops before every next-run
#: entry, and within a run the min-heap top releases ascending keys
#: while the max-heap bottom releases descending ones.
Entry = Tuple[int, Any]


class TwoWayReplacementSelection(RunGenerator):
    """The 2WRS run generator.

    Parameters
    ----------
    memory_capacity:
        Total working memory in records, covering the two heaps *and*
        both buffers (partitioned by the configuration).
    config:
        A :class:`~repro.core.config.TwoWayConfig`; defaults to the
        paper's recommended configuration (Section 5.3).
    """

    name = "2WRS"

    def __init__(
        self, memory_capacity: int, config: Optional[TwoWayConfig] = None
    ) -> None:
        super().__init__(memory_capacity)
        self.config = config if config is not None else TwoWayConfig()
        heap, input_buf, victim_buf = self.config.partition_memory(memory_capacity)
        if heap < 1:
            raise ValueError(
                f"memory_capacity {memory_capacity} leaves no room for the heaps"
            )
        self.heap_capacity = heap
        self.input_buffer_capacity = input_buf
        self.victim_buffer_capacity = victim_buf
        self.last_input_buffer: Optional[InputBuffer] = None

    # -- public API ---------------------------------------------------------------

    def generate_runs(self, records: Iterable[Any]) -> Iterator[List[Any]]:
        """Yield each run as one ascending list (4‖3‖2‖1 assembly)."""
        for streams in self.generate_run_streams(records):
            yield streams.assemble()

    def generate_run_streams(self, records: Iterable[Any]) -> Iterator[RunStreams]:
        """Yield each run as its four constituent streams."""
        self.stats.reset()
        state = _RunState(self, records)
        #: The live InputBuffer of the most recent generation, exposed so
        #: callers can inspect its statistics counters (e.g. how many
        #: mean/median computations the configured heuristics triggered).
        self.last_input_buffer = state.source
        yield from state.run()


class _LiveContext:
    """The heuristics' view of a running generation (Section 4.2).

    One instance serves every routing decision of a ``_RunState``: each
    attribute reads the live state when a heuristic asks for it, so a
    decision costs no allocation and heuristics that ignore a field
    never compute it.  The distribution statistics come from the input
    buffer, which memoizes them per generation.  It offers the same
    attributes as :class:`~repro.core.heuristics.HeuristicContext`.
    """

    __slots__ = ("rng", "_state")

    def __init__(self, state: "_RunState") -> None:
        self.rng = state.rng
        self._state = state

    @property
    def top_size(self) -> int:
        return len(self._state.top)

    @property
    def bottom_size(self) -> int:
        return len(self._state.bottom)

    @property
    def top_outputs(self) -> int:
        return self._state.outputs_top

    @property
    def bottom_outputs(self) -> int:
        return self._state.outputs_bottom

    @property
    def top_head(self) -> Optional[Any]:
        top = self._state.top
        return top[0][1] if top else None

    @property
    def bottom_head(self) -> Optional[Any]:
        bottom = self._state.bottom
        return bottom[0][1] if bottom else None

    @property
    def first_output(self) -> Optional[Any]:
        return self._state.first_output

    @property
    def input_mean(self) -> Optional[float]:
        return self._state.source.mean()

    @property
    def input_median(self) -> Optional[Any]:
        return self._state.source.median()

    @property
    def input_sample(self) -> Optional[list]:
        return self._state.source.sample()

    usefulness = HeuristicContext.usefulness


class _RunState:
    """Mutable execution state of one ``generate_run_streams`` call.

    ``top`` and ``bottom`` are the two heap lists; together they hold at
    most ``capacity`` entries.  ``pop_top`` / ``pop_bottom`` are the C
    pops until a key whose ties show arrives (:meth:`see_key_type`).
    Every heap operation is charged ``runs.base.log_cost`` of the heap
    size, computed inline as the exact integer ``(n - 1).bit_length()``
    (at least 1).
    """

    def __init__(
        self, algo: TwoWayReplacementSelection, records: Iterable[Any]
    ) -> None:
        self.algo = algo
        self.stats = algo.stats
        self.rng = random.Random(algo.config.seed)
        self.input_heuristic = make_input_heuristic(algo.config.input_heuristic)
        self.output_heuristic = make_output_heuristic(algo.config.output_heuristic)
        self.source = InputBuffer(records, algo.input_buffer_capacity)
        self.victim = VictimBuffer(algo.victim_buffer_capacity)
        self.capacity = algo.heap_capacity
        self.top: List[Entry] = []
        self.bottom: List[Entry] = []
        self.pop_top: Callable[[List[Entry]], Entry] = heappop
        self.pop_bottom: Callable[[List[Entry]], Entry] = _c_pop_max
        #: Key types already read; a new one may switch the pops.
        self.key_types = set(TIE_BLIND_TYPES)
        self.context = _LiveContext(self)
        self.current_run = 0
        self.streams = RunStreams(0)
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self.last_top: Optional[Any] = None
        self.last_bottom: Optional[Any] = None
        self.first_output: Optional[Any] = None
        self.outputs_top = 0
        self.outputs_bottom = 0
        self.bottom_ceiling: Optional[Any] = None  # None = +inf
        self.top_floor: Optional[Any] = None  # None = -inf
        # Range trackers for records already routed to the *next* run:
        # keeping next-run bottom records below next-run top records is
        # what lets the following run start from a clean frontier.
        self.next_bottom_max: Optional[Any] = None
        self.next_top_min: Optional[Any] = None

    # -- helpers ---------------------------------------------------------------

    def see_key_type(self, value: Any) -> None:
        """Note the type of a key about to enter a heap.

        The first key that is not tie-blind switches both heaps to the
        textbook pops for the rest of the generation.
        """
        self.key_types.add(type(value))
        self.use_textbook_pops()

    def use_textbook_pops(self) -> None:
        """Pop both heaps with the paper's sift-down from now on.

        The lists are valid heaps for either pop, so nothing is copied.
        """
        self.pop_top = _textbook_pop_min
        self.pop_bottom = _textbook_pop_max

    def push(self, side: Side, run: int, value: Any) -> None:
        """Store ``value`` for run ``run`` in the heap on ``side``."""
        top, bottom = self.top, self.bottom
        if len(top) + len(bottom) >= self.capacity:
            raise HeapFullError(f"2WRS heaps are at capacity {self.capacity}")
        if side is Side.TOP:
            self.stats.cpu_ops += len(top).bit_length() or 1
            heappush(top, (run, value))
        else:
            self.stats.cpu_ops += len(bottom).bit_length() or 1
            _push_max(bottom, (-run, value))

    def rebalance(self) -> None:
        """Equalise heap sizes at a run boundary (Balancing heuristic).

        At a boundary every record in memory belongs to the incoming
        run, so records can migrate between the heaps freely; negating
        the tag converts an entry between the two sides' forms.
        """
        top, bottom = self.top, self.bottom
        while abs(len(top) - len(bottom)) > 1:
            if len(top) > len(bottom):
                src, pop, dst, push = top, self.pop_top, bottom, _push_max
            else:
                src, pop, dst, push = bottom, self.pop_bottom, top, heappush
            self.stats.cpu_ops += (len(src) - 1).bit_length() or 1
            self.stats.cpu_ops += len(dst).bit_length() or 1
            tag, value = pop(src)
            push(dst, (-tag, value))

    def top_releasable(self, value: Any) -> bool:
        """Can ``value`` legally extend stream 1 right now?"""
        if self.last_top is not None and value < self.last_top:
            return False
        return self.top_floor is None or value >= self.top_floor

    def bottom_releasable(self, value: Any) -> bool:
        """Can ``value`` legally extend stream 4 right now?"""
        if self.last_bottom is not None and value > self.last_bottom:
            return False
        return self.bottom_ceiling is None or value <= self.bottom_ceiling

    def _commit_middle(self, to3: List[Any], to2: List[Any]) -> None:
        """Route a victim flush to streams 3 and 2, updating frontiers."""
        self.streams.stream3.extend(to3)
        self.streams.stream2.extend(to2)
        committed = to3 + to2
        if not committed:
            return
        low = min(committed)
        high = max(committed)
        if self.bottom_ceiling is None or low < self.bottom_ceiling:
            self.bottom_ceiling = low
        if self.top_floor is None or high > self.top_floor:
            self.top_floor = high
        self.stats.cpu_ops += self.victim.cpu_ops
        self.victim.cpu_ops = 0

    def release_top(self, value: Any) -> None:
        self.streams.stream1.append(value)
        self.last_top = value
        self.outputs_top += 1
        if self.bottom_ceiling is None or value < self.bottom_ceiling:
            self.bottom_ceiling = value

    def release_bottom(self, value: Any) -> None:
        self.streams.stream4.append(value)
        self.last_bottom = value
        self.outputs_bottom += 1
        if self.top_floor is None or value > self.top_floor:
            self.top_floor = value

    # -- main loop --------------------------------------------------------------

    def run(self) -> Iterator[RunStreams]:
        self._fill_heaps()
        # From here on the trackers describe run 1 (the next run); the
        # fill used them for run 0's contents.
        self.next_bottom_max = None
        self.next_top_min = None
        top, bottom = self.top, self.bottom
        while top or bottom:
            run = self.current_run
            top_ready = bool(top) and top[0][0] == run
            bottom_ready = bool(bottom) and bottom[0][0] == -run

            if not top_ready and not bottom_ready:
                # doubleHeap.nextRun: everything in memory belongs to the
                # next run; close out the current one.
                finished = self._finish_run()
                if finished is not None:
                    yield finished
                continue

            released = self._output_step(top_ready, bottom_ready)
            if released:
                self._read_step()

        finished = self._finish_run(final=True)
        if finished is not None:
            yield finished

    def _route_disjoint(self, value: Any) -> Side:
        """Pick a heap for a record without an output-order constraint.

        Used while filling the heaps and when demoting records to the
        next run.  A record may be placed in either heap only while that
        keeps the BottomHeap's range below the TopHeap's (Section 4.1:
        the four stream ranges "do not overlap pairwise"); the input
        heuristic decides inside the gap between the heaps, exactly the
        "can be inserted into both heaps" case of Section 4.2.
        """
        can_bottom = self.next_top_min is None or value <= self.next_top_min
        can_top = self.next_bottom_max is None or value >= self.next_bottom_max
        if can_bottom and can_top:
            side = self.input_heuristic.choose(value, self.context)
        elif can_bottom:
            side = Side.BOTTOM
        else:
            side = Side.TOP
        if side is Side.BOTTOM:
            if self.next_bottom_max is None or value > self.next_bottom_max:
                self.next_bottom_max = value
        else:
            if self.next_top_min is None or value < self.next_top_min:
                self.next_top_min = value
        return side

    def _fill_heaps(self) -> None:
        """doubleHeap.fill: route the first records through the heuristic."""
        top, bottom = self.top, self.bottom
        while len(top) + len(bottom) < self.capacity:
            value = self.source.next()
            if value is None:
                break
            self.stats.records_in += 1
            if type(value) not in self.key_types:
                self.see_key_type(value)
            self.push(self._route_disjoint(value), 0, value)

    def _finish_run(self, final: bool = False) -> Optional[RunStreams]:
        """Flush the victim, emit the run, and reset per-run state."""
        leftovers = self.victim.flush_run_end()
        self.streams.stream3.extend(leftovers)
        self.stats.cpu_ops += self.victim.cpu_ops
        self.victim.cpu_ops = 0
        finished: Optional[RunStreams] = None
        if len(self.streams) > 0:
            self.stats.note_run(len(self.streams))
            finished = self.streams
        if final:
            return finished
        self.current_run += 1
        self.streams = RunStreams(self.current_run)
        self._reset_run_state()
        self.victim.start_run()
        self.input_heuristic.on_run_start()
        self.output_heuristic.on_run_start()
        if self.input_heuristic.wants_rebalance:
            self.rebalance()
        return finished

    def _output_step(self, top_ready: bool, bottom_ready: bool) -> bool:
        """Pop one record and place it somewhere.

        Returns True when the pop freed memory (stream release, victim
        initial fill, or victim capture) so the caller reads one input
        record; False when the record merely moved between heaps
        (migration or demotion).
        """
        if top_ready and bottom_ready:
            out_side = self.output_heuristic.choose(self.context)
        elif top_ready:
            out_side = Side.TOP
        else:
            out_side = Side.BOTTOM
        if out_side is Side.TOP:
            heap, pop = self.top, self.pop_top
        else:
            heap, pop = self.bottom, self.pop_bottom
        self.stats.cpu_ops += (len(heap) - 1).bit_length() or 1
        value = pop(heap)[1]
        if self.first_output is None:
            self.first_output = value

        if self.victim.phase is VictimPhase.INITIAL_FILL:
            # The run's first outputs establish the victim's range; any
            # record is welcome here because the flush sorts and splits.
            if out_side is Side.TOP:
                self.last_top = value
                self.outputs_top += 1
            else:
                self.last_bottom = value
                self.outputs_bottom += 1
            self.victim.add_initial(value)
            if len(self.victim) >= self.victim.capacity:
                to3, to2 = self.victim.flush_initial()
                self._commit_middle(to3, to2)
            return True

        if out_side is Side.TOP and self.top_releasable(value):
            self.release_top(value)
            return True
        if out_side is Side.BOTTOM and self.bottom_releasable(value):
            self.release_bottom(value)
            return True

        # The record cannot extend its own stream: migrate it to the
        # other heap when that side can still release it...
        other = out_side.other
        other_ok = (
            self.top_releasable(value)
            if other is Side.TOP
            else self.bottom_releasable(value)
        )
        if other_ok:
            self.push(other, self.current_run, value)
            return False
        # ...or capture it in the victim's gap...
        if self.victim.fits(value):
            self.victim.add(value)
            if self.victim.is_full:
                to3, to2 = self.victim.flush_full()
                self._commit_middle(to3, to2)
            return True
        # ...or concede it to the next run.
        self.push(self._route_disjoint(value), self.current_run + 1, value)
        return False

    def _read_step(self) -> None:
        """Read one input record, letting the victim drink its fill.

        The first record is tested against the victim's range inline;
        only once one fits does the input buffer drain the following
        in-range records straight into the victim, a block at a time
        (``InputBuffer.drain``, exactly equivalent to reading them one
        by one).  On random input the victim rarely takes a record, so
        the common path costs one range test.
        """
        source, victim, stats = self.source, self.victim, self.stats
        value = source.next()
        if value is None:
            return
        stats.records_in += 1
        bounds = victim.valid_range
        while bounds is not None and bounds[0] <= value <= bounds[1]:
            held = victim.held
            held.append(value)
            before = len(held)
            value = source.drain(
                held, bounds[0], bounds[1], victim.capacity - before
            )
            stats.records_in += len(held) - before
            if value is LIMIT_REACHED:
                self._commit_middle(*victim.flush_full())
                bounds = victim.valid_range
                value = source.next()
            if value is None:
                return
            stats.records_in += 1

        if type(value) not in self.key_types:
            self.see_key_type(value)
        top_eligible = self.top_releasable(value)
        bottom_eligible = self.bottom_releasable(value)
        if top_eligible and bottom_eligible:
            in_side = self.input_heuristic.choose(value, self.context)
            run = self.current_run
        elif top_eligible:
            in_side = Side.TOP
            run = self.current_run
        elif bottom_eligible:
            in_side = Side.BOTTOM
            run = self.current_run
        else:
            # Fits neither heap nor victim: next run.
            in_side = self._route_disjoint(value)
            run = self.current_run + 1
        # self.push, inlined (one call less on every record read).
        top, bottom = self.top, self.bottom
        if len(top) + len(bottom) >= self.capacity:
            raise HeapFullError(f"2WRS heaps are at capacity {self.capacity}")
        if in_side is Side.TOP:
            stats.cpu_ops += len(top).bit_length() or 1
            heappush(top, (run, value))
        else:
            stats.cpu_ops += len(bottom).bit_length() or 1
            _push_max(bottom, (-run, value))
