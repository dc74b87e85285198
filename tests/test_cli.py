"""Tests for the command-line interface."""

import io
from collections import Counter

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def input_file(tmp_path):
    path = tmp_path / "input.txt"
    values = [5, 3, 9, 1, 7, 2, 8, 4, 6, 0] * 30
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return path, sorted(values)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort", "file.txt"])
        assert args.algorithm == "2wrs"
        assert args.memory == 10_000
        assert args.input_heuristic == "mean"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--algorithm", "bogosort"])


class TestSortCommand:
    @pytest.mark.parametrize("algorithm", ["rs", "2wrs", "lss", "brs"])
    def test_sorts_file(self, input_file, tmp_path, algorithm, capsys):
        path, expected = input_file
        out = tmp_path / "out.txt"
        code = main(
            [
                "sort",
                "--algorithm",
                algorithm,
                "--memory",
                "16",
                str(path),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        got = [int(line) for line in out.read_text().splitlines()]
        assert got == expected
        assert "runs" in capsys.readouterr().err

    def test_sort_to_stdout(self, input_file, capsys):
        path, expected = input_file
        assert main(["sort", "--memory", "16", str(path)]) == 0
        got = [int(line) for line in capsys.readouterr().out.splitlines()]
        assert got == expected

    def test_sort_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n1\n2\n"))
        assert main(["sort", "-"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "2", "3"]

    def test_sort_does_not_close_stdin(self, monkeypatch, capsys):
        # Regression: `with _open_input(None)` used to close sys.stdin.
        fake = io.StringIO("2\n1\n")
        monkeypatch.setattr("sys.stdin", fake)
        assert main(["sort"]) == 0
        assert not fake.closed
        assert capsys.readouterr().out.splitlines() == ["1", "2"]

    def test_sort_report_flag(self, input_file, capsys):
        path, expected = input_file
        assert main(["sort", "--memory", "16", "--report", str(path)]) == 0
        captured = capsys.readouterr()
        got = [int(line) for line in captured.out.splitlines()]
        assert got == expected
        assert "cpu_ops=" in captured.err
        assert "wall=" in captured.err
        assert "peak_buffered=" in captured.err

    def test_sort_custom_fan_in(self, input_file, capsys):
        path, expected = input_file
        assert main(["sort", "--memory", "16", "--fan-in", "2", str(path)]) == 0
        got = [int(line) for line in capsys.readouterr().out.splitlines()]
        assert got == expected

    def test_invalid_fan_in_rejected_cleanly(self, input_file):
        path, _ = input_file
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--fan-in", "1", str(path)])

    def test_invalid_merge_buffer_rejected_cleanly(self, input_file):
        path, _ = input_file
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--merge-buffer", "0", str(path)])


class TestRunsCommand:
    def test_reports_all_algorithms(self, input_file, capsys):
        path, _ = input_file
        assert main(["runs", "--memory", "16", str(path)]) == 0
        out = capsys.readouterr().out
        for name in ("RS", "2WRS", "LSS", "BRS"):
            assert name in out

    def test_runs_does_not_close_stdin(self, monkeypatch, capsys):
        fake = io.StringIO("3\n1\n2\n")
        monkeypatch.setattr("sys.stdin", fake)
        assert main(["runs", "--memory", "16"]) == 0
        assert not fake.closed

    def test_runs_report_adds_timings(self, input_file, capsys):
        path, _ = input_file
        assert main(["runs", "--memory", "16", "--report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run time" in out
        assert "total time" in out
        for name in ("RS", "2WRS", "LSS", "BRS"):
            assert name in out


@pytest.mark.parametrize(
    "command",
    [["sort"], ["sort", "--work-dir", "WORK"], ["sort", "--workers", "2"], ["runs"]],
    ids=["sort", "sort-work-dir", "sort-workers", "runs"],
)
@pytest.mark.parametrize(
    "fmt,bad", [("int", "abc"), ("float", "nan")], ids=["int-abc", "float-nan"]
)
def test_undecodable_line_fails_cleanly(tmp_path, capsys, command, fmt, bad):
    """An undecodable input line is a data error: a one-line message,
    exit 1 and no output file, as for merge and the operators."""
    path = tmp_path / "input.txt"
    path.write_text("".join(f"{v}\n" for v in range(40, 0, -1)) + bad + "\n7\n")
    out = tmp_path / "out.txt"
    argv = [arg.replace("WORK", str(tmp_path / "work")) for arg in command]
    argv += ["--memory", "4", "--format", fmt, str(path)]
    if argv[0] == "sort":
        argv += ["-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"repro: {argv[0]} failed: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir() if p.name != "work") == [
        "input.txt"
    ]


@pytest.mark.parametrize(
    "command,work",
    [
        (["sort", "--resume"], "out.txt.sortwork"),
        (["sort", "--work-dir", "WORK"], None),
        (["distinct", "--resume"], "out.txt.sortwork"),
        (["join", "--resume", "IN"], "out.txt.joinwork"),
    ],
    ids=["sort-resume", "sort-work-dir", "distinct-resume", "join-resume"],
)
def test_data_error_discards_durable_work(tmp_path, capsys, command, work):
    """A durable attempt stopped by an undecodable line removes what it
    wrote: the line fails every attempt, so nothing could resume it.  A
    derived work directory goes; a --work-dir is emptied, not removed."""
    path = tmp_path / "in.txt"
    path.write_text("".join(f"{v}\n" for v in range(3000, 0, -1)) + "abc\n")
    user_work = tmp_path / "work"
    user_work.mkdir()
    argv = [
        arg.replace("WORK", str(user_work)).replace("IN", str(path))
        for arg in command
    ]
    argv += ["--memory", "100", "--block-records", "256", str(path),
             "-o", str(tmp_path / "out.txt")]
    for _ in range(2):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro: {argv[0]} failed: ")
        assert "removed the work in" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "work"]
        assert list(user_work.iterdir()) == []


def test_data_error_while_probing_keeps_other_work(tmp_path, capsys):
    """An error among the records the planner probes comes before this
    attempt opens its journal, so a work directory there is left alone."""
    path = tmp_path / "in.txt"
    path.write_text("5\nabc\n" + "".join(f"{v}\n" for v in range(3000)))
    work = tmp_path / "out.txt.sortwork"
    work.mkdir()
    (work / "sort.journal").write_text("{}\n")
    argv = ["sort", "--resume", "--memory", "100", "--block-records", "256",
            str(path), "-o", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    assert "removed the work" not in capsys.readouterr().err
    assert [p.name for p in work.iterdir()] == ["sort.journal"]


class TestExperimentCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig_9_9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_polyphase_experiment(self, capsys):
        assert main(["experiment", "table_2_1_polyphase"]) == 0
        assert "Table 2.1" in capsys.readouterr().out


class TestEmptyInput:
    """Satellite: sorting zero records must exit 0 with a sane report."""

    @pytest.fixture()
    def empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        return path

    def test_sort_empty_file(self, empty_file, capsys):
        assert main(["sort", str(empty_file)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 records in 0 runs (avg 0 records)" in captured.err

    def test_sort_empty_file_with_report(self, empty_file, capsys):
        assert main(["sort", "--report", str(empty_file)]) == 0
        err = capsys.readouterr().err
        assert "0 records in 0 runs (avg 0 records)" in err
        assert "cpu_ops=0" in err

    def test_sort_empty_file_spill_path(self, empty_file, tmp_path, capsys):
        # Tiny memory would spill — but zero records must still work
        # when the probe finds nothing.
        out = tmp_path / "out.txt"
        assert main(
            ["sort", "--memory", "16", "--report", str(empty_file),
             "-o", str(out)]
        ) == 0
        assert out.read_text() == ""

    def test_sort_empty_file_parallel(self, empty_file, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert main(
            ["sort", "--workers", "2", "--report", str(empty_file),
             "-o", str(out)]
        ) == 0
        assert out.read_text() == ""
        assert "0 records in 0 runs (avg 0 records)" in capsys.readouterr().err

    def test_runs_empty_file(self, empty_file, capsys):
        assert main(["runs", "--report", str(empty_file)]) == 0
        out = capsys.readouterr().out
        for name in ("RS", "2WRS", "LSS", "BRS"):
            assert name in out

    def test_blank_lines_only(self, tmp_path, capsys):
        path = tmp_path / "blanks.txt"
        path.write_text("\n\n   \n")
        assert main(["sort", str(path)]) == 0
        assert capsys.readouterr().out == ""


class TestRecordFormats:
    """Acceptance: every --format sorts byte-identically across the
    serial spill backend, the parallel backend, and all merge reading
    strategies."""

    CASES = {
        "int": (
            [],
            lambda rng: [str(rng.randrange(-10_000, 10_000))
                         for _ in range(400)],
        ),
        "float": (
            [],
            lambda rng: [repr(rng.gauss(0, 100)) for _ in range(400)],
        ),
        "str": (
            [],
            lambda rng: [f"w{rng.randrange(100_000):06d}"
                         for _ in range(400)],
        ),
        "csv": (
            ["--key", "1"],
            lambda rng: [f"id{i:04d},{rng.randrange(500)},x{i % 3}"
                         for i in range(400)],
        ),
    }

    @pytest.mark.parametrize("fmt", sorted(CASES))
    def test_byte_identical_across_backends(self, fmt, tmp_path, capsys):
        import random

        flags, build = self.CASES[fmt]
        lines = build(random.Random(99))
        src = tmp_path / "input.txt"
        src.write_text("".join(f"{line}\n" for line in lines))
        outputs = set()
        variants = [
            ["--reading", "naive"],
            ["--reading", "forecasting"],
            ["--reading", "double_buffering"],
            ["--workers", "2"],
        ]
        for index, variant in enumerate(variants):
            out = tmp_path / f"out-{index}.txt"
            code = main(
                ["sort", "--memory", "64", "--format", fmt, *flags,
                 *variant, str(src), "-o", str(out)]
            )
            assert code == 0
            outputs.add(out.read_text())
        capsys.readouterr()
        assert len(outputs) == 1, f"{fmt} output differs across backends"
        got = outputs.pop().splitlines()
        assert len(got) == len(lines)
        assert Counter(got) == Counter(lines)

    def test_csv_sorts_by_key_column(self, tmp_path, capsys):
        src = tmp_path / "rows.csv"
        src.write_text("b,3,x\na,1,y\nc,2,z\n")
        out = tmp_path / "out.csv"
        assert main(
            ["sort", "--format", "csv", "--key", "1", str(src),
             "-o", str(out)]
        ) == 0
        assert out.read_text() == "a,1,y\nc,2,z\nb,3,x\n"

    def test_csv_tolerates_blank_separator_lines(self, tmp_path, capsys):
        src = tmp_path / "rows.csv"
        src.write_text("b,3,x\n\na,1,y\n  \nc,2,z\n")
        out = tmp_path / "out.csv"
        assert main(
            ["sort", "--format", "csv", "--key", "1", str(src),
             "-o", str(out)]
        ) == 0
        assert out.read_text() == "a,1,y\nc,2,z\nb,3,x\n"

    def test_csv_mixed_key_column_does_not_crash(self, tmp_path, capsys):
        # One numeric-looking value in a text column: numeric keys rank
        # before text keys instead of raising a str-vs-int TypeError.
        src = tmp_path / "rows.csv"
        src.write_text("a,1\nb,xyz\nc,3\n")
        out = tmp_path / "out.csv"
        assert main(
            ["sort", "--format", "csv", "--key", "1", str(src),
             "-o", str(out)]
        ) == 0
        assert out.read_text() == "a,1\nc,3\nb,xyz\n"

    def test_str_format_keeps_whitespace_records(self, tmp_path, capsys):
        src = tmp_path / "lines.txt"
        src.write_text("b\n \na\n")
        assert main(["sort", "--format", "str", str(src)]) == 0
        assert capsys.readouterr().out == " \na\nb\n"

    def test_key_without_delimited_format_rejected(self, tmp_path, capsys):
        src = tmp_path / "lines.txt"
        src.write_text("2\n1\n")
        with pytest.raises(SystemExit, match="--key only applies"):
            main(["sort", "--format", "str", "--key", "2", str(src)])

    def test_float_nan_rejected_loudly(self, tmp_path, capsys):
        src = tmp_path / "vals.txt"
        src.write_text("2.0\nnan\n1.0\n")
        assert main(["sort", "--format", "float", str(src),
                     "-o", str(tmp_path / "out.txt")]) == 1
        assert "NaN records are unorderable" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_str_format_sorts_words(self, tmp_path, capsys):
        src = tmp_path / "words.txt"
        src.write_text("pear\napple\nfig\n")
        assert main(["sort", "--format", "str", str(src)]) == 0
        assert capsys.readouterr().out == "apple\nfig\npear\n"


class TestMinDistanceNonNumericKeys:
    """``--output-heuristic min_distance`` on keys without subtraction.

    A csv key column and the binary spill's normalized key bytes have no
    distance; the heuristic falls back to its coin flip instead of
    raising a TypeError."""

    def test_csv_key_column(self, tmp_path, capsys):
        import random

        rng = random.Random(5)
        keys = rng.sample(range(100_000), 1_500)
        lines = [f"k{key:06d},{i}" for i, key in enumerate(keys)]
        src = tmp_path / "rows.csv"
        src.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "out.csv"
        assert main(
            ["sort", "--format", "csv", "--key", "0", "--memory", "100",
             "--output-heuristic", "min_distance", str(src), "-o", str(out)]
        ) == 0
        assert out.read_text().splitlines() == sorted(lines)

    def test_binary_spill(self, tmp_path, capsys):
        import random

        rng = random.Random(6)
        values = [rng.randrange(-10**6, 10**6) for _ in range(1_500)]
        src = tmp_path / "in.txt"
        src.write_text("".join(f"{value}\n" for value in values))
        out = tmp_path / "out.txt"
        assert main(
            ["sort", "--binary-spill", "--memory", "100",
             "--output-heuristic", "min_distance", str(src), "-o", str(out)]
        ) == 0
        assert [int(line) for line in out.read_text().splitlines()] == sorted(
            values
        )


class TestDatasetCommand:
    def test_emits_requested_records(self, capsys):
        assert main(["dataset", "sorted", "--records", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 25
        values = [int(v) for v in lines]
        assert values == sorted(values)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["dataset", "zipf"])


def _generator_argv(command, option, value, path):
    """argv of ``command`` with one generator option and its inputs."""
    if command == "join":
        return [command, option, value, path, path]
    if command == "topk":
        return [command, "-k", "3", option, value, path]
    return [command, option, value, path]


@pytest.mark.parametrize(
    "command", ["sort", "runs", "distinct", "agg", "topk", "join", "merge"]
)
@pytest.mark.parametrize(
    "option,value",
    [("--memory", "0"), ("--memory", "-3"),
     ("--buffer-fraction", "2"), ("--buffer-fraction", "1"),
     ("--buffer-fraction", "-0.5"), ("--buffer-fraction", "nan")],
)
def test_out_of_range_generator_option_is_a_usage_error(
    input_file, capsys, command, option, value
):
    """Exit 2 with an argparse message, as for --block-records 0, not a
    traceback out of GeneratorSpec or TwoWayConfig."""
    path, _ = input_file
    with pytest.raises(SystemExit) as info:
        main(_generator_argv(command, option, value, str(path)))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}" in err
    assert "Traceback" not in err
