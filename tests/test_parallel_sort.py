"""Tests for the parallel partitioned sort (DESIGN.md §8)."""

import os
import time

import pytest
from _helpers import files_under

from repro.core.config import RECOMMENDED, GeneratorSpec
from repro.core.records import CallableFormat
from repro.sort.parallel import (
    MIN_WORKER_MEMORY,
    PartitionedSort,
    hash_shard,
    range_cut_points,
    usable_cpus,
)
from repro.workloads.generators import make_input, random_input


def failing_encode(record) -> str:
    """Top-level (spawn-picklable) encoder that rejects one sentinel."""
    if record == 13:
        raise ValueError("poisoned record")
    return str(record)


def failing_decode(line: str) -> int:
    """Top-level (spawn-picklable) decoder that rejects one sentinel.

    Partitioning encodes happily; the failure only fires when a worker
    process reads its partition file back, so the error crosses the
    pool boundary.
    """
    value = int(line)
    if value == 13:
        raise ValueError("poisoned record")
    return value


class TestPartitioning:
    def test_hash_shard_deterministic_and_in_range(self):
        for value in list(range(100)) + [10**9, -5]:
            shard = hash_shard(value, 4)
            assert 0 <= shard < 4
            assert shard == hash_shard(value, 4)

    def test_hash_shard_balances_structured_keys(self):
        # Consecutive keys (the sorted dataset's structure) must spread
        # evenly, not stripe by key % workers.
        counts = [0] * 4
        for value in range(10_000):
            counts[hash_shard(value, 4)] += 1
        assert min(counts) > 1_500

    def test_hash_shard_deterministic_for_text_across_hash_seeds(self):
        # str hash() is randomised per process; text records must shard
        # via their encoded bytes so shard sizes (and the shards=[...]
        # report) are stable across invocations.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.sort.parallel import hash_shard; "
            "print([hash_shard(w, 4) for w in "
            "('apple', 'pear', 'fig', ('k', 'row,1'))])"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd=__import__("os").path.dirname(
                    __import__("os").path.dirname(__file__)
                ),
            ).stdout
            for seed in ("1", "2", "77")
        }
        assert len(outputs) == 1, outputs

    def test_range_cut_points_are_ascending_quantiles(self):
        sample = list(range(1000, 0, -1))
        cuts = range_cut_points(sample, 4)
        assert cuts == sorted(cuts)
        assert len(cuts) == 3
        assert cuts[0] < cuts[1] < cuts[2] <= 1000

    def test_range_cut_points_degenerate(self):
        assert range_cut_points([], 4) == []
        assert range_cut_points([1, 2, 3], 1) == []


class TestCorrectness:
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_matches_sorted(self, partition, tmp_path):
        data = list(random_input(20_000, seed=1))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 1_000),
            workers=2,
            partition=partition,
            tmp_dir=str(tmp_path),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sum(sorter.shard_records) == len(data)
        assert files_under(tmp_path) == []
        if partition == "range":
            # The sampled boundaries are exposed for diagnostics.
            assert sorter.cut_points == sorted(sorter.cut_points)
            assert len(sorter.cut_points) == 1  # workers - 1

    def test_2wrs_spec_roundtrip(self, tmp_path):
        data = list(make_input("mixed_balanced", 12_000, seed=2))
        sorter = PartitionedSort(
            GeneratorSpec("2wrs", 800, RECOMMENDED),
            workers=2,
            partition="range",
            tmp_dir=str(tmp_path),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        report = sorter.report
        assert report.records == len(data)
        assert report.runs == sum(r.runs for r in sorter.worker_reports)
        assert report.run_phase.cpu_ops == sum(
            r.run_phase.cpu_ops for r in sorter.worker_reports
        )
        assert report.run_phase.wall_time > 0

    def test_single_worker_fallback_is_in_process(self, tmp_path):
        data = list(random_input(5_000, seed=3))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 500), workers=1, tmp_dir=str(tmp_path)
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.shard_records == [len(data)]

    def test_empty_input(self, tmp_path):
        sorter = PartitionedSort(
            GeneratorSpec("lss", 100), workers=2, tmp_dir=str(tmp_path)
        )
        assert list(sorter.sort(iter([]))) == []
        assert sorter.report.records == 0
        assert files_under(tmp_path) == []

    def test_more_workers_than_fan_in_forces_parent_passes(self, tmp_path):
        data = list(random_input(6_000, seed=4))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 600),
            workers=3,
            fan_in=2,
            tmp_dir=str(tmp_path),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.merge_passes > 1

    def test_byte_identical_with_serial_sort(self, tmp_path):
        from repro.core.records import INT
        from repro.engine.block_io import iter_records, open_bytes
        from repro.sort.spill import FileSpillSort

        data = list(random_input(15_000, seed=5))
        serial = FileSpillSort(
            GeneratorSpec("lss", 1_000).build(), tmp_dir=str(tmp_path)
        )
        serial_path = tmp_path / "serial.txt"
        serial.sort_to_path(iter(data), str(serial_path))
        parallel = PartitionedSort(
            GeneratorSpec("lss", 1_000), workers=2, tmp_dir=str(tmp_path)
        )
        parallel_path = tmp_path / "parallel.txt"
        with open(parallel_path, "w", encoding="utf-8") as out:
            for record in parallel.sort(iter(data)):
                out.write(f"{record}\n")
        # sort_to_path leaves an RBLC shard file; compare its records
        # re-encoded as lines.
        with open_bytes(str(serial_path)) as handle:
            serial_text = INT.encode_block(list(iter_records(handle, INT)))
        assert parallel_path.read_bytes() == serial_text.encode("ascii")


class TestBrokerSharing:
    def test_workers_split_the_memory_budget(self, tmp_path):
        data = list(random_input(8_000, seed=6))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 1_000), workers=2, tmp_dir=str(tmp_path)
        )
        list(sorter.sort(iter(data)))
        assert sorter.granted_memories == [500, 500]
        assert sum(sorter.granted_memories) <= sorter.total_memory

    def test_contended_pool_serialises_but_completes(self, tmp_path):
        # 3 workers each requesting max(MIN, 4 // 3) = MIN_WORKER_MEMORY
        # records from a 4-record pool: the grants cannot all coexist,
        # so the broker queues the overflow worker until a release.
        data = list(random_input(600, seed=7))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 1_000),
            workers=3,
            total_memory=4,
            tmp_dir=str(tmp_path),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.granted_memories == [MIN_WORKER_MEMORY] * 3

    def test_total_memory_overrides_spec_budget(self, tmp_path):
        data = list(random_input(2_000, seed=8))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 100),
            workers=2,
            total_memory=800,
            tmp_dir=str(tmp_path),
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.granted_memories == [400, 400]


class TestCleanup:
    def test_abandoned_iterator_removes_work_dir(self, tmp_path):
        data = list(random_input(6_000, seed=9))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 500), workers=2, tmp_dir=str(tmp_path)
        )
        merged = sorter.sort(iter(data))
        for _ in range(10):
            next(merged)
        merged.close()
        assert files_under(tmp_path) == []
        assert os.listdir(tmp_path) == []

    def test_partition_failure_removes_work_dir(self, tmp_path):
        data = list(range(100))  # contains the poisoned record 13
        sorter = PartitionedSort(
            GeneratorSpec("lss", 50),
            workers=2,
            tmp_dir=str(tmp_path),
            record_format=CallableFormat(failing_encode, int),
        )
        with pytest.raises(ValueError, match="poisoned"):
            list(sorter.sort(iter(data)))
        assert files_under(tmp_path) == []
        assert os.listdir(tmp_path) == []

    def test_worker_failure_removes_work_dir(self, tmp_path):
        data = list(range(100))  # contains the poisoned record 13
        sorter = PartitionedSort(
            GeneratorSpec("lss", 50),
            workers=2,
            tmp_dir=str(tmp_path),
            record_format=CallableFormat(str, failing_decode),
        )
        with pytest.raises(ValueError, match="poisoned"):
            list(sorter.sort(iter(data)))
        assert files_under(tmp_path) == []
        assert os.listdir(tmp_path) == []


class TestValidation:
    def test_invalid_parameters(self):
        spec = GeneratorSpec("lss", 100)
        with pytest.raises(ValueError):
            PartitionedSort(spec, workers=0)
        with pytest.raises(ValueError):
            PartitionedSort(spec, workers=2, partition="modulo")
        with pytest.raises(ValueError):
            PartitionedSort(spec, workers=2, fan_in=1)
        with pytest.raises(ValueError):
            PartitionedSort(spec, workers=2, total_memory=1)
        with pytest.raises(ValueError):
            PartitionedSort(spec, workers=2, sample_records=0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GeneratorSpec("bogosort", 100)
        with pytest.raises(ValueError):
            GeneratorSpec("lss", 0)


class TestSpeedup:
    """The acceptance property: more workers -> proportionally faster.

    A wall-clock speedup needs real parallel hardware AND a quiet
    machine: on constrained boxes the workers serialise, and on noisy
    shared CI runners the measurement flakes near the ~2x Amdahl
    ceiling (partition + parent merge are sequential).  The assertion
    therefore runs only when explicitly requested via
    REPRO_RUN_SPEEDUP=1 on a >= 4-CPU machine;
    `benchmarks/bench_parallel_scale.py` records the honest sweep
    (including the machine's CPU count) into BENCH_parallel.json
    either way.
    """

    @pytest.mark.skipif(
        usable_cpus() < 4,
        reason=f"needs >= 4 usable CPUs for a 2x speedup, "
        f"have {usable_cpus()}",
    )
    @pytest.mark.skipif(
        not os.environ.get("REPRO_RUN_SPEEDUP"),
        reason="wall-clock speedup needs a quiet machine; "
        "opt in with REPRO_RUN_SPEEDUP=1",
    )
    def test_four_workers_twice_as_fast_as_one(self, tmp_path):
        records = int(os.environ.get("REPRO_SPEEDUP_RECORDS", "2000000"))
        data = list(random_input(records, seed=10))
        walls = {}
        outputs = {}
        for workers in (1, 4):
            sorter = PartitionedSort(
                GeneratorSpec("lss", 20_000),
                workers=workers,
                tmp_dir=str(tmp_path),
            )
            started = time.perf_counter()
            out_path = tmp_path / f"out-{workers}.txt"
            with open(out_path, "w", encoding="utf-8") as out:
                for record in sorter.sort(iter(data)):
                    out.write(f"{record}\n")
            walls[workers] = time.perf_counter() - started
            outputs[workers] = out_path
        assert outputs[4].read_bytes() == outputs[1].read_bytes()
        speedup = walls[1] / walls[4]
        assert speedup >= 2.0, (
            f"workers=4 must be >= 2x faster than workers=1 on "
            f"{records} records; measured {speedup:.2f}x "
            f"({walls[1]:.1f}s vs {walls[4]:.1f}s)"
        )
