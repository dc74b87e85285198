"""Tests for two-way replacement selection (Chapter 4, Theorems 2, 4, 6, 7)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import heaps
from repro.core.config import TABLE_5_13_CONFIGS, TwoWayConfig
from repro.core.heuristics import INPUT_HEURISTICS, OUTPUT_HEURISTICS
from repro.core.two_way import TwoWayReplacementSelection
from repro.runs.batched import BatchedReplacementSelection
from repro.runs.replacement_selection import ReplacementSelection
from repro.workloads.generators import (
    alternating_input,
    make_input,
    mixed_balanced_input,
    mixed_imbalanced_input,
    random_input,
    reverse_sorted_input,
    sorted_input,
)


def runs_of(memory, records, config=None):
    return list(TwoWayReplacementSelection(memory, config).generate_runs(records))


class TestBasics:
    def test_empty_input(self):
        assert runs_of(10, []) == []

    def test_input_smaller_than_memory(self):
        assert runs_of(100, [3, 1, 2]) == [[1, 2, 3]]

    def test_single_record(self):
        assert runs_of(10, [42]) == [[42]]

    def test_duplicate_heavy_input(self):
        data = [5] * 100 + [3] * 100 + [7] * 100
        runs = runs_of(20, data)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_runs_are_sorted(self):
        runs = runs_of(8, random_input(500, seed=1))
        for run in runs:
            assert run == sorted(run)

    def test_multiset_preserved(self):
        data = list(random_input(2_000, seed=2))
        runs = runs_of(50, data)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_stats_track_runs(self):
        algo = TwoWayReplacementSelection(50)
        runs = list(algo.generate_runs(random_input(1_000, seed=1)))
        assert algo.stats.runs_out == len(runs)
        assert algo.stats.records_in == 1_000
        assert sum(algo.stats.run_lengths) == 1_000

    def test_records_in_counts_victim_drained_records(self):
        # At memory 500 the victim buffer drains most of this input in
        # blocks; every record read must still be counted once.
        algo = TwoWayReplacementSelection(500)
        runs = list(algo.generate_runs(mixed_balanced_input(1_000, seed=1)))
        assert algo.stats.records_in == 1_000
        assert sum(map(len, runs)) == 1_000

    def test_memory_too_small_for_heaps(self):
        config = TwoWayConfig(buffer_fraction=0.0)
        algo = TwoWayReplacementSelection(1, config)  # 1-record heap
        assert list(algo.generate_runs([2, 1])) in ([[1, 2]], [[2], [1]])

    def test_memory_partition_sums_to_total(self):
        for name, config in TABLE_5_13_CONFIGS.items():
            algo = TwoWayReplacementSelection(1_000, config)
            total = (
                algo.heap_capacity
                + algo.input_buffer_capacity
                + algo.victim_buffer_capacity
            )
            assert total == 1_000, name


class TestTheorems:
    def test_theorem_2_sorted_input_single_run(self):
        data = list(sorted_input(5_000))
        runs = runs_of(100, data)
        assert len(runs) == 1
        assert runs[0] == data

    def test_theorem_4_reverse_input_single_run(self):
        """2WRS turns RS's worst case into a single run."""
        data = list(reverse_sorted_input(5_000))
        runs = runs_of(100, data)
        assert len(runs) == 1
        assert runs[0] == sorted(data)

    def test_theorem_6_alternating_one_run_per_section(self):
        """k >> m: each monotone section becomes one run."""
        sections = 8
        data = list(alternating_input(16_000, sections=sections, seed=1, noise=100))
        runs = runs_of(200, data)
        assert len(runs) == sections

    def test_theorem_7_2wrs_not_worse_than_rs_on_reverse(self):
        data = list(reverse_sorted_input(3_000, seed=1, noise=10))
        rs_runs = ReplacementSelection(100).count_runs(data)
        twrs_runs = TwoWayReplacementSelection(100).count_runs(data)
        assert twrs_runs <= rs_runs

    def test_random_input_roughly_double_memory(self):
        memory = 250
        data = list(random_input(50_000, seed=3))
        runs = runs_of(memory, data)
        average = len(data) / len(runs)
        assert 1.6 * memory <= average <= 2.4 * memory

    def test_mixed_balanced_collapses_to_few_runs(self):
        """The victim buffer collapses mixed data (paper: 2 runs; a
        small startup/tail run may appear at reduced scale)."""
        data = list(mixed_balanced_input(20_000, seed=1, noise=1000))
        runs = runs_of(500, data, TABLE_5_13_CONFIGS["cfg3"])
        assert len(runs) <= 3
        assert max(len(r) for r in runs) > 0.9 * len(data)

    def test_mixed_imbalanced_collapses_to_few_runs(self):
        data = list(mixed_imbalanced_input(20_000, seed=1, noise=1000))
        runs = runs_of(500, data, TABLE_5_13_CONFIGS["cfg3"])
        assert len(runs) <= 3
        assert max(len(r) for r in runs) > 0.8 * len(data)


class TestStreams:
    def test_stream_invariants_per_run(self):
        algo = TwoWayReplacementSelection(100)
        for streams in algo.generate_run_streams(random_input(3_000, seed=5)):
            assert streams.check_invariants()

    def test_stream_totals_match_run_length(self):
        algo = TwoWayReplacementSelection(100)
        for streams in algo.generate_run_streams(random_input(2_000, seed=5)):
            assert len(streams.assemble()) == len(streams)

    def test_reverse_input_uses_bottom_stream(self):
        algo = TwoWayReplacementSelection(100)
        streams = list(algo.generate_run_streams(reverse_sorted_input(2_000)))[0]
        # Nearly everything should leave through stream 4 (BottomHeap).
        assert len(streams.stream4) > 0.8 * len(streams)

    def test_sorted_input_uses_top_stream(self):
        algo = TwoWayReplacementSelection(100)
        streams = list(algo.generate_run_streams(sorted_input(2_000)))[0]
        assert len(streams.stream1) > 0.8 * len(streams)

    def test_mixed_input_uses_victim_streams(self):
        config = TwoWayConfig(buffer_setup="both", buffer_fraction=0.05)
        algo = TwoWayReplacementSelection(500, config)
        data = mixed_balanced_input(10_000, seed=1, noise=1000)
        streams = next(iter(algo.generate_run_streams(data)))
        assert len(streams.stream2) + len(streams.stream3) > 0


class TestAllHeuristicCombinations:
    @pytest.mark.parametrize("input_h", sorted(INPUT_HEURISTICS))
    @pytest.mark.parametrize("output_h", sorted(OUTPUT_HEURISTICS))
    def test_correctness_on_random(self, input_h, output_h):
        config = TwoWayConfig(
            buffer_setup="both",
            buffer_fraction=0.02,
            input_heuristic=input_h,
            output_heuristic=output_h,
            seed=13,
        )
        data = list(random_input(2_000, seed=9))
        runs = runs_of(100, data, config)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    @pytest.mark.parametrize("input_h", sorted(INPUT_HEURISTICS))
    def test_correctness_on_mixed(self, input_h):
        config = TwoWayConfig(
            buffer_setup="both", buffer_fraction=0.02, input_heuristic=input_h
        )
        data = list(mixed_balanced_input(2_000, seed=9, noise=100))
        runs = runs_of(100, data, config)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)


class TestBufferSetups:
    @pytest.mark.parametrize("setup", ["input", "both", "victim"])
    @pytest.mark.parametrize("fraction", [0.0002, 0.02, 0.2])
    def test_every_setup_correct(self, setup, fraction):
        config = TwoWayConfig(buffer_setup=setup, buffer_fraction=fraction)
        data = list(make_input("mixed_imbalanced", 3_000, seed=4))
        runs = runs_of(200, data, config)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_no_buffers_at_all(self):
        config = TwoWayConfig(buffer_setup="both", buffer_fraction=0.0)
        data = list(random_input(1_000, seed=4))
        runs = runs_of(100, data, config)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_victim_helps_on_mixed(self):
        data = list(mixed_balanced_input(20_000, seed=1, noise=1000))
        with_victim = TwoWayConfig(buffer_setup="both", buffer_fraction=0.02)
        without = TwoWayConfig(buffer_setup="input", buffer_fraction=0.02)
        runs_with = TwoWayReplacementSelection(500, with_victim).count_runs(data)
        runs_without = TwoWayReplacementSelection(500, without).count_runs(data)
        assert runs_with < runs_without


class TestGeneratorReuse:
    def test_second_invocation_resets_stats(self):
        algo = TwoWayReplacementSelection(100)
        list(algo.generate_runs(random_input(1_000, seed=1)))
        first = algo.stats.runs_out
        list(algo.generate_runs(random_input(1_000, seed=1)))
        assert algo.stats.runs_out == first

    def test_deterministic_given_seed(self):
        a = runs_of(100, random_input(1_000, seed=1))
        b = runs_of(100, random_input(1_000, seed=1))
        assert a == b


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-10_000, 10_000), max_size=300),
    st.integers(2, 40),
)
def test_2wrs_runs_sorted_and_complete(data, memory):
    runs = runs_of(memory, data)
    for run in runs:
        assert run == sorted(run)
    assert sorted(itertools.chain(*runs)) == sorted(data)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), max_size=200),
    st.integers(2, 30),
    st.sampled_from(sorted(INPUT_HEURISTICS)),
    st.sampled_from(sorted(OUTPUT_HEURISTICS)),
    st.sampled_from(["input", "both", "victim"]),
)
def test_2wrs_correct_for_any_configuration(data, memory, input_h, output_h, setup):
    config = TwoWayConfig(
        buffer_setup=setup,
        buffer_fraction=0.1,
        input_heuristic=input_h,
        output_heuristic=output_h,
        seed=3,
    )
    runs = runs_of(memory, data, config)
    for run in runs:
        assert run == sorted(run)
    assert sorted(itertools.chain(*runs)) == sorted(data)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(3, 30))
def test_2wrs_matches_rs_on_sorted_prefixes(seed, memory):
    """Sorted input: both algorithms produce the identical single run."""
    data = list(sorted_input(500, seed=seed))
    rs = list(ReplacementSelection(memory).generate_runs(data))
    twrs = runs_of(memory, data)
    assert rs == twrs == [data]


class TestLazyStatistics:
    """The acceptance property: heuristics that ignore the distribution
    statistics trigger zero mean/median computations end-to-end."""

    @staticmethod
    def _run(input_heuristic, output_heuristic="random"):
        config = TwoWayConfig(
            buffer_setup="both",
            buffer_fraction=0.1,
            input_heuristic=input_heuristic,
            output_heuristic=output_heuristic,
            seed=11,
        )
        algo = TwoWayReplacementSelection(100, config)
        algo.count_runs(random_input(3_000, seed=11))
        return algo.last_input_buffer

    @pytest.mark.parametrize(
        "input_heuristic", ["random", "alternate", "useful", "balancing"]
    )
    def test_stat_blind_heuristics_compute_nothing(self, input_heuristic):
        buffer = self._run(input_heuristic)
        assert buffer.mean_computations == 0
        assert buffer.median_computations == 0

    def test_mean_heuristic_computes_only_means(self):
        buffer = self._run("mean")
        assert buffer.mean_computations > 0
        assert buffer.median_computations == 0
        # Memoization bound: at most one computation per mutation, far
        # fewer than one per routing decision.
        assert buffer.mean_computations <= 2 * buffer.records_read + 2

    def test_median_heuristic_computes_only_medians(self):
        buffer = self._run("median")
        assert buffer.median_computations > 0
        assert buffer.mean_computations == 0

    def test_laziness_preserves_results(self):
        """Lazy statistics must not change what the algorithm produces."""
        config = TwoWayConfig(
            buffer_setup="both",
            buffer_fraction=0.1,
            input_heuristic="mean",
            output_heuristic="random",
            seed=4,
        )
        data = list(mixed_balanced_input(5_000, seed=4))
        runs = list(
            TwoWayReplacementSelection(200, config).generate_runs(iter(data))
        )
        flat = sorted(record for run in runs for record in run)
        assert flat == sorted(data)
        for run in runs:
            assert run == sorted(run)


class TestLiveContext:
    """Every routing decision of a generation reads one context object
    whose attributes are the running state at the time of the read."""

    def test_one_context_reads_the_running_state(self):
        from repro.core.heuristics import HeuristicContext, InputHeuristic, Side
        from repro.core.two_way import _RunState

        class Spy(InputHeuristic):
            def __init__(self):
                self.contexts = set()
                self.decisions = 0

            def choose(self, value, ctx):
                top, bottom = state.top, state.bottom
                snapshot = HeuristicContext(
                    rng=state.rng,
                    top_size=len(top),
                    bottom_size=len(bottom),
                    top_outputs=state.outputs_top,
                    bottom_outputs=state.outputs_bottom,
                    top_head=top[0][1] if top else None,
                    bottom_head=bottom[0][1] if bottom else None,
                    first_output=state.first_output,
                    stats=state.source,
                )
                for name in (
                    "rng", "top_size", "bottom_size", "top_outputs",
                    "bottom_outputs", "top_head", "bottom_head",
                    "first_output", "input_mean", "input_median",
                    "input_sample",
                ):
                    assert getattr(ctx, name) == getattr(snapshot, name), name
                for side in Side:
                    assert ctx.usefulness(side) == snapshot.usefulness(side)
                self.contexts.add(id(ctx))
                self.decisions += 1
                return Side.TOP if value > ctx.input_mean else Side.BOTTOM

        algo = TwoWayReplacementSelection(100, TwoWayConfig(buffer_fraction=0.1))
        state = _RunState(algo, mixed_balanced_input(2_000, seed=9))
        state.input_heuristic = spy = Spy()
        runs = [streams.assemble() for streams in state.run()]
        assert sorted(r for run in runs for r in run) == sorted(
            mixed_balanced_input(2_000, seed=9)
        )
        assert spy.decisions > 100
        assert spy.contexts == {id(state.context)}


def _generate(memory, records, config, textbook):
    """Run one generation through ``_RunState``, optionally forcing the
    textbook pops from the start; return (runs, cpu_ops, state)."""
    from repro.core.two_way import _RunState

    algo = TwoWayReplacementSelection(memory, config)
    state = _RunState(algo, records)
    if textbook:
        state.use_textbook_pops()
    return list(state.run()), algo.stats.cpu_ops, state


def _four_streams(runs):
    return [(s.stream1, s.stream2, s.stream3, s.stream4) for s in runs]


def _generate_rs(memory, records, textbook):
    """Run RS, optionally with no key type counted tie-blind so the
    textbook pop and replace serve from the first key; return
    (runs, cpu_ops)."""
    from unittest import mock

    from repro.runs import replacement_selection

    algo = ReplacementSelection(memory)
    blind = frozenset() if textbook else heaps.TIE_BLIND_TYPES
    with mock.patch.object(replacement_selection, "TIE_BLIND_TYPES", blind):
        runs = list(algo.generate_runs(records))
    return runs, algo.stats.cpu_ops


class TestHeapqPops:
    """The heaps pop with C ``heapq`` while every key is tie-blind and
    with the paper's sift-down once a key's ties could show, in 2WRS and
    RS alike."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 30), max_size=150),
            st.lists(st.text("abc", max_size=3), max_size=150),
            st.lists(st.binary(max_size=2), max_size=150),
        ),
        st.integers(2, 30),
    )
    def test_c_and_textbook_pops_agree_on_tie_blind_keys(self, data, memory):
        import heapq

        for input_h, output_h in itertools.product(
            sorted(INPUT_HEURISTICS), sorted(OUTPUT_HEURISTICS)
        ):
            config = TwoWayConfig(
                buffer_fraction=0.2,
                input_heuristic=input_h,
                output_heuristic=output_h,
                seed=5,
            )
            c_runs, c_ops, c_state = _generate(memory, data, config, False)
            t_runs, t_ops, _ = _generate(memory, data, config, True)
            assert c_state.pop_top is heapq.heappop
            assert _four_streams(c_runs) == _four_streams(t_runs), (
                input_h, output_h)
            assert list(map(len, c_runs)) == list(map(len, t_runs))
            assert c_ops == t_ops, (input_h, output_h)
        c_runs, c_ops = _generate_rs(memory, data, False)
        t_runs, t_ops = _generate_rs(memory, data, True)
        assert c_runs == t_runs
        assert c_ops == t_ops

    def test_batched_rs_cost_shows_the_tie_order(self):
        """Why batched RS keeps the textbook sift for tie-blind keys too:
        once the input ends, the order equal minirun heads pop in
        decides which minirun runs dry first, and with it the heap size
        later outputs are charged at."""
        from heapq import heappop, heapreplace
        from unittest import mock

        from repro.runs import batched

        def generate():
            algo = BatchedReplacementSelection(9, minirun_length=3)
            return list(algo.generate_runs([0] * 7)), algo.stats.cpu_ops

        t_runs, t_ops = generate()
        with mock.patch.multiple(
            batched, _textbook_pop_min=heappop, _textbook_replace_min=heapreplace
        ):
            c_runs, c_ops = generate()
        assert c_runs == t_runs == [[0] * 7]
        assert c_ops != t_ops

    def test_ints_turning_to_float_records_keep_every_spelling(self):
        import random

        from repro.core.records import FloatRecord
        from repro.core.two_way import _textbook_pop_min

        rng = random.Random(4)
        spellings = ["-0.0", "0.0", "0", "-0", "0e0", "1e3", "1000.0", "1000"]
        ints = [rng.randrange(-2000, 2000) for _ in range(3_000)]
        floats = [
            FloatRecord(float(text), text)
            for text in (rng.choice(spellings) for _ in range(3_000))
        ]
        generated, _, state = _generate(200, ints + floats, TwoWayConfig(), False)
        assert state.pop_top is _textbook_pop_min
        runs = [streams.assemble() for streams in generated]
        for run in runs:
            assert run == sorted(run)
        out = [r for run in runs for r in run]
        assert sorted(map(repr, ints)) == sorted(
            repr(r) for r in out if type(r) is int
        )
        assert sorted(r.text for r in floats) == sorted(
            r.text for r in out if isinstance(r, FloatRecord)
        )

    def test_push_past_the_combined_bound_raises(self):
        from repro.core.heuristics import Side
        from repro.core.two_way import _RunState
        from repro.heaps import HeapFullError

        algo = TwoWayReplacementSelection(10, TwoWayConfig(buffer_fraction=0.0))
        state = _RunState(algo, [])
        assert state.capacity == 10
        for i in range(6):
            state.push(Side.TOP, 0, i)
        for i in range(4):
            state.push(Side.BOTTOM, 0, -i)
        for side in Side:
            with pytest.raises(HeapFullError):
                state.push(side, 0, 99)
        assert len(state.top) + len(state.bottom) == 10


@pytest.mark.parametrize(
    "make_key", [str, lambda s: s.encode(), lambda s: (s, len(s))],
    ids=["str", "bytes", "tuple"],
)
def test_keys_without_subtraction_take_the_degenerate_victim_flush(make_key):
    """The victim cannot measure gaps between such keys; its flushes fall
    back to no valid range instead of raising TypeError."""
    import random

    rng = random.Random(2)
    records = [
        make_key("".join(rng.choice("abcdefgh") for _ in range(5)))
        for _ in range(25_000)
    ]
    runs = list(TwoWayReplacementSelection(10_000).generate_runs(records))
    for run in runs:
        assert run == sorted(run)
    assert sorted(itertools.chain(*runs)) == sorted(records)
