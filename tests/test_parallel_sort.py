"""Tests for the parallel partitioned sort (DESIGN.md §8)."""

import glob
import json
import os
import signal
import subprocess
import sys
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


#: The record on which :func:`killing_decode` kills its worker.
KILL_SENTINEL = -13

#: Environment variable naming the work dir :func:`killing_decode`
#: watches for another shard's completion marker.
KILL_AFTER_MARKER_IN = "REPRO_TEST_KILL_AFTER_MARKER_IN"


def killing_decode(line: str) -> int:
    """Top-level decoder that SIGKILLs its own worker on the sentinel.

    Before dying it waits (boundedly) for another shard's ``.ok``
    completion marker, so a resumed sort has a finished shard to reuse.
    """
    value = int(line)
    if value == KILL_SENTINEL:
        pattern = os.path.join(os.environ[KILL_AFTER_MARKER_IN], "*.ok")
        deadline = time.monotonic() + 30.0
        while not glob.glob(pattern) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def run_killed_attempt(work_dir: str, data) -> None:
    """One resumed durable sort, in a child interpreter, whose shard
    worker :func:`killing_decode` kills.

    The child may end with a ``SortError`` (a pooled worker died) or be
    killed itself (the one pending shard ran in process); either way
    the attempt leaves ``work_dir`` behind.
    """
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    child = (
        "import json, sys\n"
        "from repro.core.config import GeneratorSpec\n"
        "from repro.core.records import CallableFormat\n"
        "from repro.engine.errors import SortError\n"
        "from repro.sort.parallel import PartitionedSort\n"
        "from test_parallel_sort import killing_decode\n"
        "data = json.loads(sys.stdin.read())\n"
        "sorter = PartitionedSort(\n"
        "    GeneratorSpec('lss', 200), workers=2,\n"
        "    work_dir=sys.argv[1], resume=True,\n"
        "    record_format=CallableFormat(str, killing_decode),\n"
        ")\n"
        "try:\n"
        "    list(sorter.sort(iter(data)))\n"
        "except SortError:\n"
        "    pass\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, work_dir],
        input=json.dumps(data), capture_output=True, text=True,
        timeout=120,
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src_dir, tests_dir]),
            **{KILL_AFTER_MARKER_IN: work_dir},
        ),
    )
    assert done.returncode in (0, -signal.SIGKILL), done.stderr
    assert os.path.isdir(work_dir)


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
        assert sorter.memory_per_worker == 500
        assert sorter.worker_memories == [sorter.memory_per_worker] * 2

    def test_running_shares_never_exceed_the_memory(self):
        for memory in (2, 3, 4, 5, 7, 8, 100, 1_000, 1_001):
            for workers in (1, 2, 3, 4, 5, 8, 16):
                sorter = PartitionedSort(
                    GeneratorSpec("lss", memory), workers=workers
                )
                cap = sorter.max_running_shards
                assert cap >= 1, (memory, workers)
                assert cap * sorter.memory_per_worker <= memory, (
                    memory, workers
                )

    def test_contended_pool_serialises_but_completes(
        self, tmp_path, monkeypatch
    ):
        # 3 shards of max(MIN, 4 // 3) = MIN_WORKER_MEMORY records each
        # in a 4-record budget: only two shares fit at once, so at most
        # two shards run at a time.
        from repro.sort import parallel

        pool_sizes = []
        sort_in_pool = parallel._sort_in_pool

        def recording(tasks, processes):
            pool_sizes.append(processes)
            return sort_in_pool(tasks, processes)

        monkeypatch.setattr(parallel, "_sort_in_pool", recording)
        data = list(random_input(600, seed=7))
        sorter = PartitionedSort(
            GeneratorSpec("lss", 4), workers=3, tmp_dir=str(tmp_path)
        )
        assert list(sorter.sort(iter(data))) == sorted(data)
        assert sorter.max_running_shards == 2
        assert pool_sizes == [2]
        assert sorter.worker_memories == [MIN_WORKER_MEMORY] * 3


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

    def test_killed_worker_fails_and_resume_reuses_finished_shards(
        self, tmp_path
    ):
        # A worker that dies without reporting back must fail the sort,
        # not leave it waiting.  The sort runs in a child interpreter so
        # a hang fails this test at the timeout instead of stalling the
        # suite.
        work_dir = str(tmp_path / "work")
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        data = list(random_input(4_000, seed=14)) + [KILL_SENTINEL]
        child = (
            "import json, sys\n"
            "from repro.core.config import GeneratorSpec\n"
            "from repro.core.records import CallableFormat\n"
            "from repro.engine.errors import SortError\n"
            "from repro.sort.parallel import PartitionedSort\n"
            "from test_parallel_sort import killing_decode\n"
            "data = json.loads(sys.stdin.read())\n"
            "sorter = PartitionedSort(\n"
            "    GeneratorSpec('lss', 200), workers=2,\n"
            "    work_dir=sys.argv[1],\n"
            "    record_format=CallableFormat(str, killing_decode),\n"
            ")\n"
            "try:\n"
            "    list(sorter.sort(iter(data)))\n"
            "except SortError as exc:\n"
            "    print(json.dumps(['SortError', str(exc)]))\n"
            "else:\n"
            "    print(json.dumps(['completed', '']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, work_dir],
            input=json.dumps(data), capture_output=True, text=True,
            timeout=120,
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([src_dir, tests_dir]),
                **{KILL_AFTER_MARKER_IN: work_dir},
            ),
        )
        assert done.returncode == 0, done.stderr
        kind, message = json.loads(done.stdout.splitlines()[-1])
        assert kind == "SortError", message
        assert "did not finish" in message
        assert os.path.isdir(work_dir)  # durable work is kept

        resumed = PartitionedSort(
            GeneratorSpec("lss", 200),
            workers=2,
            work_dir=work_dir,
            resume=True,
            record_format=CallableFormat(str, int),
        )
        assert list(resumed.sort(iter(data))) == sorted(data)
        assert resumed.shards_reused >= 1

    def test_resumed_attempt_removes_killed_workers_spill_dirs(
        self, tmp_path
    ):
        # A killed worker's private spill directory is journaled by
        # nothing; the next resumed attempt must remove it instead of
        # letting every killed attempt leave one more behind.
        work_dir = str(tmp_path / "work")
        data = list(random_input(4_000, seed=14)) + [KILL_SENTINEL]
        spill_dirs = os.path.join(work_dir, "repro-sort-*")
        run_killed_attempt(work_dir, data)
        first = set(glob.glob(spill_dirs))
        assert first  # the killed worker's spill directory
        run_killed_attempt(work_dir, data)
        assert not first & set(glob.glob(spill_dirs))

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
            PartitionedSort(GeneratorSpec("lss", 1), workers=2)
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
