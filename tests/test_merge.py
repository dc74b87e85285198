"""Tests for k-way merge, polyphase merge, and the merge tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosim.disk import DiskGeometry, DiskModel
from repro.iosim.files import SimulatedFileSystem
from repro.merge.kway import (
    MIN_GALLOP,
    MergeCounter,
    kway_merge,
    merge_blocks,
    merge_runs,
)
from repro.merge.merge_tree import MergeTree, merge_files
from repro.merge.polyphase import polyphase_merge, polyphase_schedule
from repro.runs.base import log_cost


class TestKwayMerge:
    def test_paper_example_figures_2_1_to_2_3(self):
        runs = [[3, 13, 14], [2, 8, 12, 16], [1, 7, 9, 17, 18]]
        assert merge_runs(runs) == [1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18]

    def test_empty_streams(self):
        assert merge_runs([]) == []
        assert merge_runs([[], []]) == []

    def test_single_stream(self):
        assert merge_runs([[1, 2, 3]]) == [1, 2, 3]

    def test_duplicates_across_streams(self):
        assert merge_runs([[1, 3], [1, 3], [2]]) == [1, 1, 2, 3, 3]

    def test_lazy(self):
        stream = kway_merge([iter([2, 4]), iter([1, 3])])
        assert next(stream) == 1
        assert next(stream) == 2

    def test_counter(self):
        counter = MergeCounter()
        list(kway_merge([[1, 2], [3, 4]], counter))
        assert counter.records == 4
        assert counter.cpu_ops > 0


class TestPolyphaseSchedule:
    def test_table_2_1(self):
        steps = polyphase_schedule((8, 10, 3, 0, 8, 11))
        counts = [s.counts for s in steps]
        assert counts == [
            (8, 10, 3, 0, 8, 11),
            (5, 7, 0, 3, 5, 8),
            (2, 4, 3, 0, 2, 5),
            (0, 2, 1, 2, 0, 3),
            (1, 1, 0, 1, 0, 2),
            (0, 0, 1, 0, 0, 1),
            (1, 0, 0, 0, 0, 0),
        ]

    def test_requires_exactly_one_empty_tape(self):
        with pytest.raises(ValueError):
            polyphase_schedule((1, 2, 3))
        with pytest.raises(ValueError):
            polyphase_schedule((0, 0, 3))

    def test_requires_three_tapes(self):
        with pytest.raises(ValueError):
            polyphase_schedule((1, 0))

    def test_ends_with_single_run(self):
        steps = polyphase_schedule((2, 3, 0))
        assert sum(steps[-1].counts) == 1


class TestPolyphaseMerge:
    def test_merges_to_single_sorted_run(self):
        tapes = [
            [[1, 5], [9, 10]],
            [[2, 6], [0, 11], [3, 3]],
            [],
        ]
        flat = sorted(v for tape in tapes for run in tape for v in run)
        assert polyphase_merge(tapes) == flat

    def test_empty_everything(self):
        assert polyphase_merge([[], [[1]], []]) == [1]

    def test_single_input_tape_finishes(self):
        assert polyphase_merge([[[0], [1], [2], [3]], [], []]) == [0, 1, 2, 3]


@st.composite
def polyphase_counts(draw):
    """3-6 tapes, exactly one empty, the others holding 1-40 runs."""
    tapes = draw(st.integers(3, 6))
    counts = draw(st.lists(st.integers(1, 40), min_size=tapes, max_size=tapes))
    counts[draw(st.integers(0, tapes - 1))] = 0
    return tuple(counts)


@settings(max_examples=200, deadline=None)
@given(polyphase_counts(), st.randoms(use_true_random=False))
def test_polyphase_terminates_on_any_distribution(counts, rng):
    steps = polyphase_schedule(counts)
    assert sum(steps[-1].counts) == 1
    assert len(steps) - 1 <= sum(counts)

    tapes = [
        [sorted(rng.randrange(1000) for _ in range(rng.randrange(4)))
         for _ in range(count)]
        for count in counts
    ]
    records = [value for tape in tapes for run in tape for value in run]
    assert polyphase_merge(tapes) == sorted(records)


def small_fs(page_records=8):
    return SimulatedFileSystem(
        DiskModel(geometry=DiskGeometry(page_records=page_records))
    )


class TestMergeTree:
    def _run_files(self, fs, runs):
        return [
            fs.create_from(f"r{i}", sorted(run)) for i, run in enumerate(runs)
        ]

    def test_merges_many_runs(self):
        fs = small_fs()
        runs = [list(range(i, 100, 7)) for i in range(7)]
        files = self._run_files(fs, runs)
        out = merge_files(fs, files, fan_in=3, memory_capacity=64)
        expected = sorted(v for run in runs for v in run)
        assert out.read_all() == expected

    def test_single_run_passthrough(self):
        fs = small_fs()
        files = self._run_files(fs, [[1, 2, 3]])
        out = merge_files(fs, files, fan_in=2)
        assert out.read_all() == [1, 2, 3]

    def test_empty_sources(self):
        fs = small_fs()
        out = merge_files(fs, [], fan_in=2)
        assert out.read_all() == []

    def test_intermediate_files_deleted(self):
        fs = small_fs()
        files = self._run_files(fs, [[i] for i in range(9)])
        out = merge_files(fs, files, fan_in=3, memory_capacity=64)
        # Only the final output file should remain.
        assert fs.names() == [out.name]

    def test_invalid_fan_in(self):
        with pytest.raises(ValueError):
            MergeTree(small_fs(), fan_in=1)

    def test_higher_fan_in_fewer_passes_less_data_written(self):
        runs = [sorted(range(i, 200, 16)) for i in range(16)]
        fs_low = small_fs()
        merge_files(fs_low, self._run_files(fs_low, runs), fan_in=2, memory_capacity=64)
        pages_low = fs_low.disk.stats.pages_written
        fs_high = small_fs()
        merge_files(
            fs_high, self._run_files(fs_high, runs), fan_in=16, memory_capacity=64
        )
        pages_high = fs_high.disk.stats.pages_written
        assert pages_high < pages_low

    def test_counter_counts_all_passes(self):
        fs = small_fs()
        files = self._run_files(fs, [[i] for i in range(4)])
        tree = MergeTree(fs, fan_in=2, memory_capacity=64)
        tree.merge(files)
        # 4 records in pass one + 4 in pass two.
        assert tree.counter.records == 8


@settings(max_examples=100)
@given(st.lists(st.lists(st.integers()), max_size=8))
def test_kway_merge_equals_sorted_concat(runs):
    sorted_runs = [sorted(r) for r in runs]
    expected = sorted(v for r in runs for v in r)
    assert merge_runs(sorted_runs) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(), max_size=40), min_size=1, max_size=10),
    st.integers(2, 6),
)
def test_merge_tree_equals_sorted_concat(runs, fan_in):
    fs = small_fs(page_records=4)
    files = [
        fs.create_from(f"r{i}", sorted(run)) for i, run in enumerate(runs)
    ]
    out = merge_files(fs, files, fan_in=fan_in, memory_capacity=32)
    assert out.read_all() == sorted(v for run in runs for v in run)


# -- the galloping merge against a reference (record, index) merge ----------

def _reference_merge(streams):
    """Every record with its stream index, in ``(record, index)`` order."""
    # sorted() is stable, so records that tie within one stream keep
    # their stream order, as the merge must.
    return sorted((r, i) for i, stream in enumerate(streams) for r in stream)


def _charges(merged_pairs):
    """Per output record: ``log_cost`` of the streams still live."""
    last = {}
    for position, (_, index) in enumerate(merged_pairs):
        last[index] = position
    return [
        log_cost(sum(1 for end in last.values() if end >= position))
        for position in range(len(merged_pairs))
    ]


@st.composite
def _sorted_streams(draw):
    kind = draw(st.sampled_from(["int", "float", "tuple"]))
    record = {
        "int": st.integers(0, 4),
        "float": st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
        "tuple": st.tuples(st.integers(0, 3), st.integers(0, 2)),
    }[kind]
    count = draw(st.integers(1, 12))
    # Distinct float objects per record, so identity checks bite.
    copy = (lambda r: float(repr(r))) if kind == "float" else (lambda r: r)
    return [
        sorted(copy(r) for r in draw(st.lists(record, max_size=25)))
        for _ in range(count)
    ]


@settings(max_examples=300, deadline=None)
@given(_sorted_streams())
def test_galloping_merge_is_the_reference_merge(streams):
    expected = _reference_merge(streams)
    counter = MergeCounter()
    merged = list(kway_merge(streams, counter))
    assert len(merged) == len(expected)
    assert all(got is want for got, (want, _) in zip(merged, expected))
    assert counter.records == len(expected)
    assert counter.cpu_ops == sum(_charges(expected))


@settings(max_examples=150, deadline=None)
@given(_sorted_streams(), st.integers(1, 40))
def test_abandoned_merge_closes_every_reader_and_counts_its_prefix(
    streams, take
):
    # take >= 1: a generator that never started has nothing to close.
    closed = []

    def reader(index, records):
        try:
            yield from records
        finally:
            closed.append(index)

    counter = MergeCounter()
    merge = kway_merge(
        [reader(i, stream) for i, stream in enumerate(streams)], counter
    )
    prefix = [record for _, record in zip(range(take), merge)]
    merge.close()
    assert sorted(closed) == list(range(len(streams)))
    expected = _reference_merge(streams)
    assert all(got is want for got, (want, _) in zip(prefix, expected))
    assert counter.records == len(prefix)
    assert counter.cpu_ops == sum(_charges(expected)[: len(prefix)])


# -- the block merge against the same reference -------------------------------

def _as_blocks(stream, size):
    return [stream[start:start + size] for start in range(0, len(stream), size)]


@st.composite
def _streaky_streams(draw):
    """Streams with runs far longer than the gallop threshold: each
    stream owns whole stretches of the key space, with ties at the
    stretch edges."""
    count = draw(st.integers(1, 6))
    streams = [[] for _ in range(count)]
    key = 0
    for _ in range(draw(st.integers(0, 12))):
        owner = draw(st.integers(0, count - 1))
        length = draw(st.integers(1, 3 * MIN_GALLOP))
        streams[owner].extend(range(key, key + length))
        key += length - draw(st.integers(0, 1))
    return [sorted(stream) for stream in streams]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_sorted_streams(), _streaky_streams()),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_block_merge_is_the_reference_merge(streams, size, block_records):
    expected = _reference_merge(streams)
    counter = MergeCounter()
    lists = list(merge_blocks(
        [iter(_as_blocks(stream, size)) for stream in streams], counter,
        block_records=block_records,
    ))
    merged = [record for out in lists for record in out]
    assert len(merged) == len(expected)
    assert all(got is want for got, (want, _) in zip(merged, expected))
    assert all(0 < len(out) <= 2 * block_records for out in lists)
    assert counter.records == len(expected)
    assert counter.cpu_ops == sum(_charges(expected))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_sorted_streams(), _streaky_streams()),
    st.integers(1, 5),
    st.integers(1, 40),
)
def test_abandoned_block_merge_closes_every_reader(streams, size, take):
    closed = []

    def reader(index, blocks):
        try:
            yield from blocks
        finally:
            closed.append(index)

    readers = [
        reader(i, _as_blocks(stream, size)) for i, stream in enumerate(streams)
    ]
    counter = MergeCounter()
    merge = merge_blocks(readers, counter, block_records=size)
    taken = [out for _, out in zip(range(take), merge)]
    merge.close()
    # take >= 1: the merge has started every reader.
    assert sorted(closed) == list(range(len(streams)))
    expected = _reference_merge(streams)
    prefix = [record for out in taken for record in out]
    assert all(got is want for got, (want, _) in zip(prefix, expected))
    assert counter.records == len(prefix)
    assert counter.cpu_ops == sum(_charges(expected)[: len(prefix)])


def test_long_streak_is_emitted_in_slices():
    """One stream far ahead of the other: its blocks come out whole."""
    long_run = list(range(0, 20_000, 2))
    short_run = [5_001, 15_001]
    lists = list(merge_blocks(
        [iter(_as_blocks(long_run, 1_000)), iter([short_run])],
        block_records=1_000,
    ))
    assert [record for out in lists for record in out] == sorted(
        long_run + short_run
    )
    assert len(lists) <= 14
