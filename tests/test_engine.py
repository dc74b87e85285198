"""Tests for the unified SortEngine facade and its planner (DESIGN.md §9)."""

import io

import pytest

from repro.core.config import GeneratorSpec, RECOMMENDED, TwoWayConfig
from repro.core.records import FLOAT, INT, STR, DelimitedFormat
from repro.engine.block_io import write_sequence
from repro.engine.job import OpRun, OpSpec
from repro.engine.planner import (
    SortEngine,
    plan_sort,
    spec_for_format,
)
from repro.merge.kway import kway_merge, validate_merge_params
from repro.workloads.generators import make_input, random_input


class TestPlanner:
    def test_parallel_wins_over_everything(self):
        plan = plan_sort(memory=1_000, workers=4, input_records=10)
        assert plan.mode == "parallel"
        assert plan.workers == 4

    def test_small_inputs_stay_in_memory(self):
        plan = plan_sort(memory=1_000, input_records=1_000)
        assert plan.mode == "in_memory"

    def test_single_pass_spill_reads_naively(self):
        plan = plan_sort(memory=1_000, input_records=5_000, fan_in=10)
        assert plan.mode == "spill"

    def test_large_spill_forecasts(self):
        plan = plan_sort(memory=1_000, input_records=1_000_000, fan_in=10)
        assert plan.mode == "spill"

    def test_unknown_size_forecasts(self):
        plan = plan_sort(memory=1_000)
        assert plan.mode == "spill"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            plan_sort(memory=0)
        with pytest.raises(ValueError):
            plan_sort(memory=10, workers=0)
        with pytest.raises(ValueError):
            plan_sort(memory=10, fan_in=1)
        with pytest.raises(ValueError):
            plan_sort(memory=10, buffer_records=0)


class TestSpecForFormat:
    def test_numeric_formats_left_alone(self):
        spec = GeneratorSpec("2wrs", 100, RECOMMENDED)
        assert spec_for_format(spec, INT) is spec
        assert spec_for_format(spec, FLOAT) is spec

    def test_non_2wrs_left_alone(self):
        spec = GeneratorSpec("lss", 100)
        assert spec_for_format(spec, STR) is spec

    def test_victim_buffer_stripped_for_non_numeric(self):
        spec = GeneratorSpec("2wrs", 100, RECOMMENDED)
        adjusted = spec_for_format(spec, STR)
        assert adjusted.two_way.buffer_setup == "input"
        # Everything else survives.
        assert adjusted.two_way.input_heuristic == RECOMMENDED.input_heuristic

    def test_input_only_setup_kept(self):
        config = TwoWayConfig(buffer_setup="input")
        spec = GeneratorSpec("2wrs", 100, config)
        assert spec_for_format(spec, STR).two_way is config


class TestEngineModes:
    def test_in_memory_mode(self, tmp_path):
        data = list(random_input(500, seed=1))
        engine = SortEngine(GeneratorSpec("lss", 1_000), tmp_dir=str(tmp_path))
        got = list(engine.sort(iter(data)))
        assert got == sorted(data)
        assert engine.plan.mode == "in_memory"
        assert engine.backend is None
        assert engine.report.records == 500
        assert engine.report.runs == 1
        assert engine.report.run_phase.cpu_ops > 0

    def test_spill_mode(self, tmp_path):
        data = list(random_input(5_000, seed=2))
        engine = SortEngine(GeneratorSpec("lss", 300), tmp_dir=str(tmp_path))
        got = list(engine.sort(iter(data)))
        assert got == sorted(data)
        assert engine.plan.mode == "spill"
        assert engine.report.runs > 1

    def test_parallel_mode(self, tmp_path):
        data = list(random_input(4_000, seed=3))
        engine = SortEngine(
            GeneratorSpec("lss", 400), workers=2, tmp_dir=str(tmp_path)
        )
        got = list(engine.sort(iter(data)))
        assert got == sorted(data)
        assert engine.plan.mode == "parallel"
        assert engine.backend is not None
        assert len(engine.backend.worker_reports) == 2

    def test_known_input_size_skips_probing(self, tmp_path):
        data = list(random_input(2_000, seed=4))
        engine = SortEngine(GeneratorSpec("lss", 100), tmp_dir=str(tmp_path))
        got = list(engine.sort(iter(data), input_records=2_000))
        assert got == sorted(data)
        assert engine.plan.mode == "spill"
        assert "2000" in engine.plan.reason or "large" in engine.plan.reason

    def test_empty_input_every_mode(self, tmp_path):
        """Satellite: zero records must produce a sane report, no ZeroDivision."""
        for kwargs in ({}, {"workers": 2}):
            engine = SortEngine(
                GeneratorSpec("2wrs", 50), tmp_dir=str(tmp_path), **kwargs
            )
            assert list(engine.sort(iter([]))) == []
            report = engine.report
            assert report.records == 0
            assert report.average_run_length == 0.0
            assert "0 records" in report.summary()

    def test_three_backends_byte_identical(self, tmp_path):
        data = list(make_input("mixed_balanced", 4_000, seed=5))
        outputs = []
        for kwargs in (
            {},
            {"workers": 2},
            {"workers": 3, "partition": "range"},
        ):
            job = OpRun(OpSpec(algorithm="lss", memory=250), **kwargs)
            sink = io.StringIO()
            source = io.StringIO("".join(f"{v}\n" for v in data))
            assert job.run(source, sink) == len(data)
            outputs.append(sink.getvalue())
        assert len(set(outputs)) == 1

    def test_sort_stream_tolerates_blank_lines(self, tmp_path):
        job = OpRun(OpSpec(algorithm="lss", memory=100))
        sink = io.StringIO()
        assert job.run(io.StringIO("3\n\n1\n\n2\n"), sink) == 3
        assert sink.getvalue() == "1\n2\n3\n"

    def test_sort_stream_keeps_blank_str_records(self, tmp_path):
        # sort --format str must agree with sort(1), which keeps
        # whitespace-only lines.
        job = OpRun(OpSpec(fmt="str", algorithm="lss", memory=100))
        sink = io.StringIO()
        assert job.run(io.StringIO("b\n \na\n"), sink) == 3
        assert sink.getvalue() == " \na\nb\n"

    def test_abandoned_parallel_sort_still_reports_merge_stats(self, tmp_path):
        data = list(random_input(4_000, seed=6))
        engine = SortEngine(
            GeneratorSpec("lss", 400), workers=2, tmp_dir=str(tmp_path)
        )
        stream = engine.sort(iter(data))
        for _ in range(20):
            next(stream)
        stream.close()
        # Instrumentation mirrors the partial merge instead of staying
        # at its constructor zeros.
        assert engine.max_open_readers >= 1
        assert engine.merge_passes >= 1


class TestEngineFormats:
    def test_str_format_with_2wrs(self, tmp_path):
        words = sorted(f"w{i:04d}" for i in range(3_000))
        import random

        random.Random(9).shuffle(words)
        engine = SortEngine(
            GeneratorSpec("2wrs", 200),
            record_format=STR,
            tmp_dir=str(tmp_path),
        )
        assert list(engine.sort(iter(words))) == sorted(words)
        # The victim buffer's numeric gaps cannot apply to strings.
        assert engine.spec.two_way.buffer_setup == "input"

    def test_delimited_rows_sort_by_key_column(self, tmp_path):
        fmt = DelimitedFormat(",", 1)
        rows = [f"id{i:03d},{(i * 37) % 100},payload{i}" for i in range(500)]
        records = [fmt.decode(row) for row in rows]
        engine = SortEngine(
            GeneratorSpec("lss", 64), record_format=fmt, tmp_dir=str(tmp_path)
        )
        got = [fmt.encode(r) for r in engine.sort(iter(records))]
        assert got == sorted(rows, key=lambda r: (int(r.split(",")[1]), r))

    def test_float_format_round_trips(self, tmp_path):
        import random

        rng = random.Random(3)
        data = [rng.gauss(0, 1000) for _ in range(2_000)]
        job = OpRun(OpSpec(fmt="float", algorithm="rs", memory=100))
        sink = io.StringIO()
        source = io.StringIO("".join(f"{v!r}\n" for v in data))
        job.run(source, sink)
        got = [float(line) for line in sink.getvalue().splitlines()]
        assert got == sorted(data)


class TestMergeFiles:
    def test_merges_kept_files(self, tmp_path):
        import os

        paths = []
        all_values = []
        for i in range(5):
            values = sorted(range(i, 1_000, 5))
            all_values.extend(values)
            path = str(tmp_path / f"sorted-{i}.txt")
            write_sequence(path, values, INT, codec=None)
            paths.append(path)
        engine = SortEngine(GeneratorSpec("lss", 100), tmp_dir=str(tmp_path))
        got = list(engine.merge_files(paths))
        assert got == sorted(all_values)
        assert engine.report.records == len(all_values)
        assert engine.report.merge_phase.wall_time > 0
        # Inputs are the caller's files: still there.
        assert all(os.path.exists(p) for p in paths)

    def test_intermediate_passes_when_over_fan_in(self, tmp_path):
        paths = []
        for i in range(7):
            path = str(tmp_path / f"s{i}.txt")
            write_sequence(path, sorted(range(i, 700, 7)), INT, codec=None)
            paths.append(path)
        engine = SortEngine(
            GeneratorSpec("lss", 100), fan_in=3, tmp_dir=str(tmp_path)
        )
        got = list(engine.merge_files(paths))
        assert got == sorted(range(700))
        assert engine.merge_passes > 1


class TestKwayValidation:
    """Satellite: kway_merge validates fan_in and buffer_records."""

    def test_fan_in_below_two_rejected(self):
        with pytest.raises(ValueError, match="fan_in must be >= 2"):
            list(kway_merge([[1], [2]], fan_in=1))

    def test_buffer_records_below_one_rejected(self):
        with pytest.raises(ValueError, match="buffer_records must be >= 1"):
            list(kway_merge([[1]], buffer_records=0))

    def test_stream_count_must_respect_declared_fan_in(self):
        with pytest.raises(ValueError, match="exceed the declared fan_in"):
            list(kway_merge([[1], [2], [3]], fan_in=2))

    def test_valid_declarations_accepted(self):
        assert list(kway_merge([[1, 3], [2]], fan_in=2, buffer_records=8)) == [
            1,
            2,
            3,
        ]

    def test_validate_merge_params_direct(self):
        validate_merge_params(None, None)  # nothing declared, nothing raised
        validate_merge_params(2, 1)
        with pytest.raises(ValueError):
            validate_merge_params(0)
        with pytest.raises(ValueError):
            validate_merge_params(None, -5)
