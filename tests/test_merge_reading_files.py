"""Tests for the real-file merge reading strategies (satellite:
byte-identical output across naive/forecasting/double_buffering on the
six workload distributions, plus prefetch-correctness regressions)."""

import os
import threading

import pytest

from repro.core.config import GeneratorSpec
from repro.core.records import INT, STR
from repro.engine.block_io import write_sequence
from repro.engine.merge_reading import (
    READING_STRATEGIES,
    ForecastingReading,
    open_reading,
)
from repro.merge.kway import kway_merge
from repro.sort.spill import FileSpillSort, SpillSession
from repro.workloads.generators import DISTRIBUTIONS, make_input


class _Run:
    """Minimal run protocol: a path, no discard (files are kept)."""

    def __init__(self, path):
        self.path = path


def _write_runs(tmp_path, runs, block_records, fmt=INT):
    """Spill ``runs`` as RBLC files of ``block_records``-record blocks.

    RBLC blocks come back in their written size, so tests write them
    at the size the strategy under test reads, as the spill backend
    does.
    """
    paths = []
    for index, run in enumerate(runs):
        path = str(tmp_path / f"run-{index:03d}.txt")
        write_sequence(path, sorted(run), fmt, block_records)
        paths.append(_Run(path))
    return paths


def _merge_with(reading, runs, fmt=INT, buffer_records=64):
    strategy = open_reading(reading, runs, fmt, buffer_records)
    try:
        return list(kway_merge(strategy.streams())), strategy.stats
    finally:
        strategy.close()


class TestByteIdenticalAcrossStrategies:
    @pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
    def test_six_distributions(self, distribution, tmp_path):
        data = list(make_input(distribution, 3_000, seed=11))
        chunk = 400
        runs = [data[i : i + chunk] for i in range(0, len(data), chunk)]
        paths = _write_runs(tmp_path, runs, 96)
        outputs = {}
        for reading in READING_STRATEGIES:
            merged, _ = _merge_with(reading, paths, buffer_records=96)
            outputs[reading] = merged
        assert outputs["naive"] == sorted(data)
        assert outputs["forecasting"] == outputs["naive"]
        assert outputs["double_buffering"] == outputs["naive"]

    def test_string_records(self, tmp_path):
        words = [f"w{i:05d}" for i in range(900)]
        runs = [words[0::3], words[1::3], words[2::3]]
        paths = _write_runs(tmp_path, runs, 32, STR)
        for reading in READING_STRATEGIES:
            merged, _ = _merge_with(reading, paths, STR, buffer_records=32)
            assert merged == sorted(words)

    def test_through_the_spill_backend(self, tmp_path):
        """Whole FileSpillSort sorts agree across reading strategies."""
        data = list(make_input("mixed_balanced", 6_000, seed=7))
        outputs = {}
        for reading in READING_STRATEGIES:
            sorter = FileSpillSort(
                GeneratorSpec("lss", 300).build(),
                fan_in=4,
                buffer_records=128,
                tmp_dir=str(tmp_path),
                reading=reading,
            )
            outputs[reading] = list(sorter.sort(iter(data)))
            assert sorter.reading_stats.strategy == reading
        assert outputs["forecasting"] == outputs["naive"] == sorted(data)
        assert outputs["double_buffering"] == outputs["naive"]


class TestPrefetchCorrectness:
    def test_forecasting_prefetch_preserves_block_order(self, tmp_path):
        # Tiny buffers force many refills, so every prefetched block
        # that lands out of sequence would corrupt the output order.
        runs = [list(range(i, 2_000, 7)) for i in range(7)]
        paths = _write_runs(tmp_path, runs, 8)
        merged, stats = _merge_with("forecasting", paths, buffer_records=8)
        assert merged == sorted(v for run in runs for v in run)
        assert stats.prefetches > 0
        assert stats.prefetch_hits == stats.prefetches or (
            stats.prefetch_hits <= stats.prefetches
        )

    def test_forecasting_targets_the_run_that_empties_first(self, tmp_path):
        # Run 0's keys are all smaller than run 1's, so every forecast
        # must aim at run 0 until it is exhausted.
        runs = [list(range(0, 100)), list(range(1_000, 1_100))]
        paths = _write_runs(tmp_path, runs, 10)
        strategy = open_reading("forecasting", paths, INT, 10)
        targets = []
        original = ForecastingReading._forecast

        def spying_forecast(self):
            original(self)
            if self._pending is not None:
                targets.append(self._pending[0])

        strategy._forecast = spying_forecast.__get__(strategy)
        try:
            merged = list(kway_merge(strategy.streams()))
        finally:
            strategy.close()
        assert merged == sorted(runs[0] + runs[1])
        assert targets, "forecasting never prefetched"
        # While run 0 is alive its tail is always the smallest.
        assert set(targets[:5]) == {0}

    def test_double_buffering_halves_the_buffer(self, tmp_path):
        paths = _write_runs(tmp_path, [list(range(100))], 25)
        strategy = open_reading("double_buffering", paths, INT, 50)
        try:
            assert strategy.sources[0].block_records == 25
            merged = [r for s in strategy.streams() for r in s]
        finally:
            strategy.close()
        assert merged == list(range(100))

    def test_prefetched_blocks_count_toward_session_budget(self, tmp_path):
        session = SpillSession(str(tmp_path))
        runs = [list(range(i, 1_200, 3)) for i in range(3)]
        # Blocks of the half-buffer double buffering reads.
        paths = _write_runs(tmp_path, runs, 32)
        strategy = open_reading(
            "double_buffering", paths, INT, 64, session
        )
        try:
            merged = list(kway_merge(strategy.streams()))
        finally:
            strategy.close()
        assert merged == sorted(v for run in runs for v in run)
        # Both buffer halves are accounted per run — the one being
        # consumed and the in-flight refill — so the session bound
        # covers true peak memory, prefetching included.
        assert session.max_resident_records <= 3 * 64
        assert session.max_resident_records > 0
        assert session.max_open_readers <= 3
        assert session.open_readers == 0
        assert session.resident == 0

    def test_prefetch_charge_covers_written_block_size(self, tmp_path):
        """Blocks written larger than the half-buffer come back whole,
        so each run holds two of them — and the session is charged
        for both, never the smaller requested size."""
        session = SpillSession(str(tmp_path))
        runs = [list(range(i, 1_200, 3)) for i in range(3)]
        paths = _write_runs(tmp_path, runs, 64)
        strategy = open_reading(
            "double_buffering", paths, INT, 64, session
        )
        try:
            merged = list(kway_merge(strategy.streams()))
        finally:
            strategy.close()
        assert merged == sorted(v for run in runs for v in run)
        assert session.max_resident_records == 3 * 2 * 64
        assert session.resident == 0

    def test_abandoned_prefetch_charge_released_on_close(self, tmp_path):
        session = SpillSession(str(tmp_path))
        paths = _write_runs(
            tmp_path, [list(range(500)), list(range(500))], 16
        )
        strategy = open_reading("forecasting", paths, INT, 16, session)
        streams = strategy.streams()
        for _ in range(40):  # enough to trigger a prefetch, then stop
            next(streams[0])
        for stream in streams:
            stream.close()
        strategy.close()
        assert session.resident == 0

    def test_prefetch_threads_do_not_leak(self, tmp_path):
        before = threading.active_count()
        paths = _write_runs(
            tmp_path, [list(range(500)), list(range(500))], 16
        )
        for _ in range(3):
            merged, _ = _merge_with("forecasting", paths, buffer_records=16)
            assert len(merged) == 1_000
        assert threading.active_count() <= before + 1


class TestLifecycle:
    def test_discardable_runs_removed_kept_runs_survive(self, tmp_path):
        session = SpillSession(str(tmp_path))
        from repro.sort.spill import SpilledRun

        data = sorted(range(200))
        spill_path = str(tmp_path / "spill.txt")
        keep_path = str(tmp_path / "keep.txt")
        write_sequence(spill_path, data, INT)
        write_sequence(keep_path, data, INT)
        runs = [
            SpilledRun(session, spill_path, 200, INT, 32),
            SpilledRun(session, keep_path, 200, INT, 32, keep=True),
        ]
        merged, _ = _merge_with("naive", runs, buffer_records=32)
        assert len(merged) == 400
        assert not os.path.exists(spill_path)
        assert os.path.exists(keep_path)

    def test_close_mid_merge_closes_handles(self, tmp_path):
        paths = _write_runs(tmp_path, [list(range(1_000))], 10)
        strategy = open_reading("forecasting", paths, INT, 10)
        stream = strategy.streams()[0]
        for _ in range(25):
            next(stream)
        strategy.close()
        assert all(s.handle is None for s in strategy.sources)

    def test_unknown_strategy_is_a_clear_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown reading strategy"):
            open_reading("psychic", [], INT, 8)

    def test_invalid_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="block_records"):
            open_reading("naive", [], INT, 0)
