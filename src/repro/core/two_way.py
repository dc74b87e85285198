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
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import TwoWayConfig
from repro.core.heuristics import (
    HeuristicContext,
    Side,
    make_input_heuristic,
    make_output_heuristic,
)
from repro.core.input_buffer import LIMIT_REACHED, InputBuffer, _discard
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
    attribute reads the state when a heuristic asks for it, so a
    decision costs no allocation and heuristics that ignore a field
    never compute it.  Heap sizes and heads come straight from the heap
    lists; the output counters, the first output and the input buffer's
    position are what :meth:`_RunState.run` stored before the decision.
    The distribution statistics come from the input buffer, which
    memoizes them per generation.  It offers the same attributes as
    :class:`~repro.core.heuristics.HeuristicContext`.
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

    While :meth:`run` loops, the per-run state lives in its locals; the
    attributes here hold what a heuristic can read through the context
    (``outputs_top``, ``outputs_bottom``, ``first_output``), which the
    loop stores before every decision.
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
        self.first_output: Optional[Any] = None
        self.outputs_top = 0
        self.outputs_bottom = 0

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

    def _fill_heaps(self) -> None:
        """doubleHeap.fill: route the first records through the heuristic.

        A record may go to either heap only while that keeps the
        BottomHeap's range below the TopHeap's (Section 4.1: the four
        stream ranges "do not overlap pairwise"); the input heuristic
        decides inside the gap between the heaps, exactly the "can be
        inserted into both heaps" case of Section 4.2.  :meth:`run`
        routes records it demotes to the next run by the same rule.
        """
        top, bottom, source = self.top, self.bottom, self.source
        choose = self.input_heuristic.choose
        bottom_max: Optional[Any] = None
        top_min: Optional[Any] = None
        while len(top) + len(bottom) < self.capacity:
            value = source.next()
            if value is None:
                break
            self.stats.records_in += 1
            if type(value) not in self.key_types:
                self.see_key_type(value)
            can_bottom = top_min is None or value <= top_min
            can_top = bottom_max is None or value >= bottom_max
            if can_bottom and can_top:
                side = choose(value, self.context)
            elif can_bottom:
                side = Side.BOTTOM
            else:
                side = Side.TOP
            if side is Side.BOTTOM:
                if bottom_max is None or value > bottom_max:
                    bottom_max = value
            elif top_min is None or value < top_min:
                top_min = value
            self.push(side, 0, value)

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

    # -- main loop --------------------------------------------------------------

    def run(self) -> Iterator[RunStreams]:
        """Algorithm 2: pop a heap, place the record, read one, route it.

        Each turn of the loop pops the current-run record of one heap
        (the output heuristic picks when both hold one) and places it:

        * during the victim's initial fill, into the victim;
        * on its own heap's stream when it extends it;
        * into the other heap when that side can still release it
          (a migration: nothing is freed, so nothing is read);
        * into the victim when it falls inside the victim's gap;
        * otherwise into the next run (a demotion, which reads nothing
          either).

        Whenever the pop freed memory, one input record is read: the
        victim takes it, and the block of in-range records behind it
        (``InputBuffer.drain``), when it falls inside the gap; the
        current run takes it in a heap that can release it, the input
        heuristic choosing when both can; otherwise it is demoted.

        "Releasable" is judged against the frontiers of the module
        docstring (``bottom_ceiling``, ``top_floor``) and the stream's
        last release.  ``next_bottom_max`` / ``next_top_min`` track the
        records already demoted, keeping the next run's bottom records
        below its top records so it starts from a clean frontier.

        All of this state, the input buffer's included, lives in locals;
        the queue advances exactly as ``InputBuffer.next`` would advance
        it.  Before each heuristic decision the loop stores what the
        context reads (the output counters, the first output, the input
        buffer's generation and running sum) and afterwards reloads what
        the statistics may have started (the running sum and the sorted
        mirror).  The rare events -- a victim flush, the drain and a run
        end -- store the locals they touch and reload them after.
        """
        self._fill_heaps()
        top, bottom = self.top, self.bottom
        pop_top, pop_bottom = self.pop_top, self.pop_bottom
        key_types = self.key_types
        stats, source, victim = self.stats, self.source, self.victim
        context = self.context
        choose_input = self.input_heuristic.choose
        choose_output = self.output_heuristic.choose
        TOP = Side.TOP
        cpu_ops, records_in = stats.cpu_ops, stats.records_in

        queue = source._queue
        popleft, enqueue = queue.popleft, queue.append
        pull = source._stream.__next__
        remember = source._shadow.append
        mirror, total = source._sorted_queue, source._queue_sum
        generation, read = source.generation, source.records_read
        exhausted = source._exhausted

        victim_capacity = victim.capacity
        held = victim.held
        filling = victim.phase is VictimPhase.INITIAL_FILL
        flush = False
        bounds = victim.valid_range
        low = high = None

        run = self.current_run
        streams = self.streams
        stream1, stream2 = streams.stream1, streams.stream2
        stream3, stream4 = streams.stream3, streams.stream4
        last_top: Optional[Any] = None
        last_bottom: Optional[Any] = None
        first_output: Optional[Any] = None
        outputs_top = outputs_bottom = 0
        bottom_ceiling: Optional[Any] = None
        top_floor: Optional[Any] = None
        next_bottom_max: Optional[Any] = None
        next_top_min: Optional[Any] = None
        demoted = False

        while True:
            # -- output step: pop a current-run record.
            if top and top[0][0] == run:
                if bottom and bottom[0][0] == -run:
                    self.outputs_top, self.outputs_bottom = outputs_top, outputs_bottom
                    self.first_output = first_output
                    source.generation, source._queue_sum = generation, total
                    out_top = choose_output(context) is TOP
                    mirror, total = source._sorted_queue, source._queue_sum
                else:
                    out_top = True
            elif bottom and bottom[0][0] == -run:
                out_top = False
            elif top or bottom:
                # doubleHeap.nextRun: everything in memory belongs to
                # the next run; close out the current one.
                stats.cpu_ops, stats.records_in = cpu_ops, records_in
                source.generation, source.records_read = generation, read
                source._queue_sum, source._exhausted = total, exhausted
                finished = self._finish_run()
                cpu_ops = stats.cpu_ops
                run = self.current_run
                streams = self.streams
                stream1, stream2 = streams.stream1, streams.stream2
                stream3, stream4 = streams.stream3, streams.stream4
                held = victim.held
                filling = victim.phase is VictimPhase.INITIAL_FILL
                bounds = victim.valid_range
                last_top = last_bottom = first_output = None
                outputs_top = outputs_bottom = 0
                bottom_ceiling = top_floor = None
                next_bottom_max = next_top_min = None
                if finished is not None:
                    yield finished
                continue
            else:
                break
            if out_top:
                cpu_ops += (len(top) - 1).bit_length() or 1
                value = pop_top(top)[1]
            else:
                cpu_ops += (len(bottom) - 1).bit_length() or 1
                value = pop_bottom(bottom)[1]
            if first_output is None:
                first_output = value

            # -- place the popped record.
            if filling:
                # The run's first outputs establish the victim's range;
                # any record is welcome here because the flush sorts
                # and splits.
                if out_top:
                    last_top = value
                    outputs_top += 1
                else:
                    last_bottom = value
                    outputs_bottom += 1
                held.append(value)
                flush = len(held) >= victim_capacity
            elif (
                out_top
                and (last_top is None or not value < last_top)
                and (top_floor is None or value >= top_floor)
            ):
                stream1.append(value)
                last_top = value
                outputs_top += 1
                if bottom_ceiling is None or value < bottom_ceiling:
                    bottom_ceiling = value
            elif (
                not out_top
                and (last_bottom is None or not value > last_bottom)
                and (bottom_ceiling is None or value <= bottom_ceiling)
            ):
                stream4.append(value)
                last_bottom = value
                outputs_bottom += 1
                if top_floor is None or value > top_floor:
                    top_floor = value
            # The record cannot extend its own stream: migrate it to the
            # other heap when that side can still release it...
            elif out_top and (
                (last_bottom is None or not value > last_bottom)
                and (bottom_ceiling is None or value <= bottom_ceiling)
            ):
                cpu_ops += len(bottom).bit_length() or 1
                _push_max(bottom, (-run, value))
                continue
            elif not out_top and (
                (last_top is None or not value < last_top)
                and (top_floor is None or value >= top_floor)
            ):
                cpu_ops += len(top).bit_length() or 1
                heappush(top, (run, value))
                continue
            # ...or capture it in the victim's gap...
            elif bounds is not None and low <= value <= high:
                held.append(value)
                flush = len(held) >= victim_capacity
            # ...or concede it to the next run.  A migration or a
            # demotion frees no memory, so neither reads a record.
            else:
                demoted = True

            if not demoted:
                # -- read step: the victim flushes first when full, then
                # takes the record read and the in-range records behind
                # it; the first record it does not take is routed.
                while True:
                    if flush:
                        flush = False
                        if filling:
                            filling = False
                            to3, to2 = victim.flush_initial()
                        else:
                            to3, to2 = victim.flush_full()
                        stream3.extend(to3)
                        stream2.extend(to2)
                        if to3:
                            # to3 ascends and to2 descends from the top,
                            # so the extremes sit at their ends.
                            least = to3[0]
                            most = to2[0] if to2 else to3[-1]
                            if bottom_ceiling is None or least < bottom_ceiling:
                                bottom_ceiling = least
                            if top_floor is None or most > top_floor:
                                top_floor = most
                            cpu_ops += victim.cpu_ops
                            victim.cpu_ops = 0
                        held = victim.held
                        bounds = victim.valid_range
                        if bounds is not None:
                            low, high = bounds
                    # InputBuffer.next
                    if queue:
                        value = popleft()
                        if mirror is not None:
                            _discard(mirror, value)
                        if total is not None:
                            total -= value
                        if exhausted:
                            generation += 1
                        else:
                            try:
                                refill = pull()
                            except StopIteration:
                                exhausted = True
                                generation += 1
                            else:
                                read += 1
                                remember(refill)
                                generation += 2
                                enqueue(refill)
                                if mirror is not None:
                                    insort(mirror, refill)
                                if total is not None:
                                    total += refill
                    elif exhausted:
                        value = None
                        break
                    else:
                        try:
                            value = pull()
                        except StopIteration:
                            exhausted = True
                            value = None
                            break
                        read += 1
                        remember(value)
                        generation += 1
                    records_in += 1
                    if bounds is not None and low <= value <= high:
                        held.append(value)
                        before = len(held)
                        source.generation, source.records_read = generation, read
                        source._queue_sum, source._exhausted = total, exhausted
                        value = source.drain(
                            held, low, high, victim_capacity - before
                        )
                        generation, read = source.generation, source.records_read
                        total, exhausted = source._queue_sum, source._exhausted
                        records_in += len(held) - before
                        if value is LIMIT_REACHED:
                            flush = True
                            continue
                        if value is not None:
                            records_in += 1
                    break
                if value is None:
                    continue

                if type(value) not in key_types:
                    self.see_key_type(value)
                    pop_top, pop_bottom = self.pop_top, self.pop_bottom
                to_top = (last_top is None or not value < last_top) and (
                    top_floor is None or value >= top_floor
                )
                to_bottom = (last_bottom is None or not value > last_bottom) and (
                    bottom_ceiling is None or value <= bottom_ceiling
                )
                if to_top or to_bottom:
                    if to_top and to_bottom:
                        self.outputs_top = outputs_top
                        self.outputs_bottom = outputs_bottom
                        self.first_output = first_output
                        source.generation, source._queue_sum = generation, total
                        to_top = choose_input(value, context) is TOP
                        mirror, total = source._sorted_queue, source._queue_sum
                    if to_top:
                        cpu_ops += len(top).bit_length() or 1
                        heappush(top, (run, value))
                    else:
                        cpu_ops += len(bottom).bit_length() or 1
                        _push_max(bottom, (-run, value))
                    continue
                # Fits neither heap nor victim: next run.

            # -- demotion: route the record to the next run (the rule of
            # _fill_heaps), from the output step or the read step.
            demoted = False
            can_bottom = next_top_min is None or value <= next_top_min
            can_top = next_bottom_max is None or value >= next_bottom_max
            if can_bottom and can_top:
                self.outputs_top, self.outputs_bottom = outputs_top, outputs_bottom
                self.first_output = first_output
                source.generation, source._queue_sum = generation, total
                to_top = choose_input(value, context) is TOP
                mirror, total = source._sorted_queue, source._queue_sum
            else:
                to_top = not can_bottom
            if to_top:
                if next_top_min is None or value < next_top_min:
                    next_top_min = value
                cpu_ops += len(top).bit_length() or 1
                heappush(top, (run + 1, value))
            else:
                if next_bottom_max is None or value > next_bottom_max:
                    next_bottom_max = value
                cpu_ops += len(bottom).bit_length() or 1
                _push_max(bottom, (-run - 1, value))

        stats.cpu_ops, stats.records_in = cpu_ops, records_in
        source.generation, source.records_read = generation, read
        source._queue_sum, source._exhausted = total, exhausted
        finished = self._finish_run(final=True)
        if finished is not None:
            yield finished
