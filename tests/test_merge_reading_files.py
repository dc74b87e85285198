"""Tests for the final merge's run readers (DESIGN.md §9.3).

Every merge reads each spilled run synchronously through
``SpilledRun.records()``: the merged bytes are the same for every
``--reading`` choice (an accepted no-op), no thread is started, the
session holds at most one written block per open reader, and closing
the readers mid-merge releases handles and buffers."""

import os
import threading

import pytest

from repro.cli import main
from repro.core.config import GeneratorSpec
from repro.core.records import INT
from repro.engine.block_io import write_sequence
from repro.engine.merge_reading import open_reading
from repro.engine.planner import SortEngine
from repro.merge.kway import MergeCounter, records_of
from repro.sort.spill import SpilledRun, SpillSession, merge_spilled_blocks
from repro.workloads.generators import DISTRIBUTIONS, make_input

#: Every value ``--reading`` accepts.
READING_CHOICES = ("auto", "naive", "forecasting", "double_buffering")


def _cli_outputs(tmp_path, lines, *flags):
    """Sort ``lines`` once per ``--reading`` choice; choice -> output."""
    src = tmp_path / "input.txt"
    src.write_text("".join(f"{line}\n" for line in lines))
    outputs = {}
    for reading in READING_CHOICES:
        out = tmp_path / f"out-{reading}.txt"
        assert main(["sort", *flags, "--reading", reading, str(src),
                     "-o", str(out)]) == 0
        outputs[reading] = out.read_bytes()
    return outputs


def _spilled_runs(tmp_path, session, runs, block_records, keep=True):
    paths = []
    for index, run in enumerate(runs):
        path = str(tmp_path / f"run-{index:03d}.rblc")
        write_sequence(path, sorted(run), INT, block_records)
        paths.append(SpilledRun(
            session, path, len(run), INT, block_records, keep=keep
        ))
    return paths


class TestByteIdenticalAcrossStrategies:
    @pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
    def test_six_distributions(self, distribution, tmp_path):
        data = list(make_input(distribution, 3_000, seed=11))
        outputs = _cli_outputs(tmp_path, data, "--memory", "400")
        expected = "".join(f"{v}\n" for v in sorted(data)).encode()
        assert set(outputs.values()) == {expected}

    def test_string_records(self, tmp_path):
        words = [f"w{(i * 7919) % 900:05d}" for i in range(900)]
        outputs = _cli_outputs(
            tmp_path, words, "--format", "str", "--memory", "64"
        )
        expected = "".join(f"{w}\n" for w in sorted(words)).encode()
        assert set(outputs.values()) == {expected}

    def test_through_the_spill_backend(self, tmp_path):
        """Intermediate passes and the final merge, every choice."""
        data = list(make_input("mixed_balanced", 6_000, seed=7))
        outputs = _cli_outputs(
            tmp_path, data, "--algorithm", "lss", "--memory", "300",
            "--fan-in", "4", "--merge-buffer", "128",
        )
        expected = "".join(f"{v}\n" for v in sorted(data)).encode()
        assert set(outputs.values()) == {expected}


class TestPrefetchCorrectness:
    def test_prefetch_threads_do_not_leak(self, tmp_path):
        """No prefetching remains: the final merge starts no thread."""
        session = SpillSession(str(tmp_path))
        runs = _spilled_runs(
            tmp_path, session, [list(range(500)), list(range(500))], 16
        )
        before = threading.active_count()
        merged = records_of(merge_spilled_blocks(
            session, runs, MergeCounter(), INT, 2, 16
        ))
        for _ in range(300):
            next(merged)
        assert threading.active_count() == before
        assert sum(1 for _ in merged) == 700


class TestMemoryBound:
    def test_two_run_sort_holds_one_block_per_reader(self):
        """A default-flags 2WRS sort into two runs buffers at most one
        written block per open reader during its final merge."""
        data = list(make_input("mixed_balanced", 100_000, seed=1))
        engine = SortEngine(GeneratorSpec("2wrs", 1_000))
        assert list(engine.sort(iter(data))) == sorted(data)
        assert engine.report.runs == 2
        largest_block = min(
            engine.buffer_records, max(engine.report.run_lengths)
        )
        assert engine.max_open_readers == 2
        assert 0 < engine.max_resident_records <= 2 * largest_block


class TestLifecycle:
    def test_discardable_runs_removed_kept_runs_survive(self, tmp_path):
        session = SpillSession(str(tmp_path))
        data = sorted(range(200))
        spill_path = str(tmp_path / "spill.txt")
        keep_path = str(tmp_path / "keep.txt")
        write_sequence(spill_path, data, INT, 32)
        write_sequence(keep_path, data, INT, 32)
        runs = [
            SpilledRun(session, spill_path, 200, INT, 32),
            SpilledRun(session, keep_path, 200, INT, 32, keep=True),
        ]
        merged = list(records_of(merge_spilled_blocks(
            session, runs, MergeCounter(), INT, 2, 32
        )))
        assert len(merged) == 400
        assert not os.path.exists(spill_path)
        assert os.path.exists(keep_path)

    def test_close_mid_merge_closes_handles(self, tmp_path, monkeypatch):
        import repro.sort.spill as spill

        handles = []
        original_open_run = spill.open_run

        def recording_open_run(*args, **kwargs):
            handle = original_open_run(*args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(spill, "open_run", recording_open_run)
        session = SpillSession(str(tmp_path))
        runs = _spilled_runs(
            tmp_path, session, [list(range(1_000)), list(range(1_000))], 10
        )
        readers = open_reading(runs)
        stream = readers.streams()[0]
        for _ in range(25):
            next(stream)
        assert session.resident == 10 and session.open_readers == 1
        readers.close()
        assert handles and all(handle.closed for handle in handles)
        assert session.resident == 0 and session.open_readers == 0
        assert readers.stats.prefetches == readers.stats.prefetch_hits == 0

    def test_unknown_strategy_is_a_clear_error(self, tmp_path, capsys):
        src = tmp_path / "input.txt"
        src.write_text("2\n1\n")
        with pytest.raises(SystemExit) as exc:
            main(["sort", "--reading", "psychic", str(src)])
        assert exc.value.code == 2
        assert "invalid choice: 'psychic'" in capsys.readouterr().err

    def test_invalid_buffer_rejected(self, tmp_path):
        session = SpillSession(str(tmp_path))
        runs = _spilled_runs(tmp_path, session, [[1, 2], [3]], 8)
        with pytest.raises(ValueError, match="buffer_records"):
            list(merge_spilled_blocks(
                session, runs, MergeCounter(), INT, 2, 0
            ))
