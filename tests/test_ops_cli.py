"""CLI coverage for the operator subcommands (DESIGN.md §12).

distinct / agg / join / topk round-trips through ``repro.cli main``,
plus the ``merge`` subcommand (pre-sorted inputs, empty-input contract)
and the shared ``--report`` / error paths.
"""

import random

import pytest

from repro.cli import main


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# distinct
# ---------------------------------------------------------------------------


class TestDistinctCommand:
    def test_round_trip(self, tmp_path, capsys):
        source = write(tmp_path / "in.txt", ["5", "1", "5", "3", "1"])
        out = tmp_path / "out.txt"
        code, _, err = run(
            capsys, ["distinct", "--memory", "2", str(source), "-o", str(out)]
        )
        assert code == 0
        assert out.read_text() == "1\n3\n5\n"
        assert "5 rows in, 3 rows out" in err

    def test_by_key_mode(self, tmp_path, capsys):
        source = write(tmp_path / "in.csv", ["a,2", "a,1", "b,9"])
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["distinct", "--format", "csv", "--key", "0", "--by", "key",
             str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,1\nb,9\n"

    def test_report_lines(self, tmp_path, capsys):
        source = write(tmp_path / "in.txt", [str(i % 7) for i in range(50)])
        code, _, err = run(
            capsys,
            ["distinct", "--memory", "8", "--report", str(source),
             "-o", str(tmp_path / "out.txt")],
        )
        assert code == 0
        assert "  ops    rows_in=50  rows_out=7  groups=7" in err
        assert "  plan   " in err

    def test_empty_input_exits_zero(self, tmp_path, capsys):
        source = write(tmp_path / "in.txt", [])
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["distinct", str(source), "-o", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_workers_byte_identical(self, tmp_path, capsys):
        rng = random.Random(5)
        source = write(
            tmp_path / "in.txt",
            [str(rng.randint(0, 200)) for _ in range(1_000)],
        )
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert run(capsys, ["distinct", "--memory", "64", str(source),
                            "-o", str(serial)])[0] == 0
        assert run(capsys, ["distinct", "--memory", "64", "--workers", "2",
                            str(source), "-o", str(parallel)])[0] == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_resume_work_dir_round_trip(self, tmp_path, capsys):
        source = write(
            tmp_path / "in.txt", [str(i % 50) for i in range(500)]
        )
        out = tmp_path / "out.txt"
        code, _, _ = run(
            capsys,
            ["distinct", "--memory", "32", "--resume",
             str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text().splitlines() == [str(k) for k in range(50)]
        assert not (tmp_path / "out.txt.sortwork").exists()


# ---------------------------------------------------------------------------
# agg
# ---------------------------------------------------------------------------


class TestAggCommand:
    def test_round_trip(self, tmp_path, capsys):
        source = write(
            tmp_path / "ev.csv", ["b,2", "a,1", "b,3", "a,10"]
        )
        out = tmp_path / "out.csv"
        code, _, err = run(
            capsys,
            ["agg", "--format", "csv", "--key", "0", "--value", "1",
             "--agg", "count,sum,avg", str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,2,11,5.5\nb,2,5,2.5\n"
        assert "2 rows out (2 groups)" in err

    def test_default_aggregate_is_count(self, tmp_path, capsys):
        source = write(tmp_path / "in.csv", ["a,1", "a,2"])
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["agg", "--format", "csv", str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,2\n"

    def test_sum_without_value_column_fails(self, tmp_path, capsys):
        source = write(tmp_path / "in.csv", ["a,1"])
        with pytest.raises(SystemExit, match="value"):
            main(["agg", "--format", "csv", "--agg", "sum", str(source)])

    def test_text_value_under_sum_fails_cleanly(self, tmp_path, capsys):
        source = write(tmp_path / "in.csv", ["a,oops"])
        code, _, err = run(
            capsys,
            ["agg", "--format", "csv", "--agg", "sum", "--value", "1",
             str(source), "-o", str(tmp_path / "out.csv")],
        )
        assert code == 1
        assert "agg failed" in err

    def test_unknown_aggregate_rejected_by_parser(self, tmp_path):
        source = write(tmp_path / "in.csv", ["a,1"])
        with pytest.raises(SystemExit):
            main(["agg", "--format", "csv", "--agg", "median", str(source)])

    def test_scalar_format(self, tmp_path, capsys):
        source = write(tmp_path / "in.txt", ["5", "5", "2"])
        out = tmp_path / "out.txt"
        code, _, _ = run(
            capsys,
            ["agg", "--agg", "count,sum", str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "2,1,2\n5,2,10\n"


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------


class TestJoinCommand:
    def test_round_trip(self, tmp_path, capsys):
        left = write(tmp_path / "l.csv", ["a,1", "a,2", "b,9", "d,4"])
        right = write(tmp_path / "r.csv", ["a,x", "a,y", "c,z", "d,w"])
        out = tmp_path / "out.csv"
        code, _, err = run(
            capsys,
            ["join", "--format", "csv", "--key", "0",
             str(left), str(right), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,1,x\na,1,y\na,2,x\na,2,y\nd,4,w\n"
        assert "5 rows out" in err

    def test_right_key_differs(self, tmp_path, capsys):
        left = write(tmp_path / "l.csv", ["a,1"])
        right = write(tmp_path / "r.csv", ["zzz,a"])
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["join", "--format", "csv", "--key", "0", "--right-key", "1",
             str(left), str(right), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,1,zzz\n"

    def test_report_shows_both_sides(self, tmp_path, capsys):
        left = write(tmp_path / "l.csv", [f"k{i:02d},1" for i in range(50)])
        right = write(tmp_path / "r.csv", [f"k{i:02d},x" for i in range(50)])
        code, _, err = run(
            capsys,
            ["join", "--format", "csv", "--memory", "8", "--report",
             str(left), str(right), "-o", str(tmp_path / "out.csv")],
        )
        assert code == 0
        assert "matches=50" in err
        assert "  left  " in err
        assert "  right " in err

    def test_two_stdin_inputs_rejected(self):
        with pytest.raises(SystemExit, match="at most one"):
            main(["join", "--format", "csv", "-", "-"])

    def test_buffer_limit_spill_warns(self, tmp_path, capsys):
        left = write(tmp_path / "l.csv", ["k,%d" % i for i in range(3)])
        right = write(tmp_path / "r.csv", ["k,r%d" % i for i in range(40)])
        out = tmp_path / "out.csv"
        code, _, err = run(
            capsys,
            ["join", "--format", "csv", "--buffer-limit", "8",
             str(left), str(right), "-o", str(out)],
        )
        assert code == 0
        assert "spilling" in err
        assert len(out.read_text().splitlines()) == 120

    def test_missing_key_column_fails_cleanly(self, tmp_path, capsys):
        left = write(tmp_path / "l.csv", ["a,1", "bare"])
        right = write(tmp_path / "r.csv", ["a,x"])
        code, _, err = run(
            capsys,
            ["join", "--format", "csv", "--key", "1",
             str(left), str(right), "-o", str(tmp_path / "out.csv")],
        )
        assert code == 1
        assert "join failed" in err
        assert "does not exist" in err

    def test_resume_join(self, tmp_path, capsys):
        rng = random.Random(7)
        left = write(
            tmp_path / "l.csv",
            [f"k{rng.randint(0, 40)},{i}" for i in range(400)],
        )
        right = write(
            tmp_path / "r.csv",
            [f"k{rng.randint(0, 40)},r{i}" for i in range(400)],
        )
        plain = tmp_path / "plain.csv"
        durable = tmp_path / "durable.csv"
        base = ["join", "--format", "csv", "--memory", "32"]
        assert run(capsys, base + [str(left), str(right),
                                   "-o", str(plain)])[0] == 0
        assert run(
            capsys,
            base + ["--resume", str(left), str(right),
                    "-o", str(durable)],
        )[0] == 0
        assert plain.read_bytes() == durable.read_bytes()
        assert not (tmp_path / "durable.csv.joinwork").exists()

    def test_resume_join_uneven_sides_removes_work_dir(self, tmp_path, capsys):
        # One side exhausts first; the longer side's journaled work
        # dir must still be drained away, not leaked.
        left = write(tmp_path / "l.csv", ["a,1"])
        right = write(
            tmp_path / "r.csv",
            [f"k{i:04d},{i}" for i in range(800)] + ["a,x"],
        )
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["join", "--format", "csv", "--memory", "64", "--resume",
             str(left), str(right), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,1,x\n"
        assert not (tmp_path / "out.csv.joinwork").exists()


# ---------------------------------------------------------------------------
# topk
# ---------------------------------------------------------------------------


class TestTopkCommand:
    def test_csv_heap_and_sorted_paths_agree(self, tmp_path, capsys):
        """The heap scan reads csv rows as tuples, the sorted path as
        key bytes; both give ``sort -t, -k1,1 | head`` bytes."""
        rng = random.Random(5)
        rows = [f"k{rng.randint(0, 300)},{rng.randint(0, 9)}"
                for _ in range(1_000)]
        source = write(tmp_path / "in.csv", rows)
        want = sorted(rows, key=lambda row: (row.split(",")[0], row))[:20]
        for memory in ("1000", "8"):
            out = tmp_path / f"out-{memory}.csv"
            code, _, err = run(
                capsys,
                ["topk", "-k", "20", "--memory", memory, "--format", "csv",
                 "--key", "0", "--report", str(source), "-o", str(out)],
            )
            assert code == 0
            assert out.read_text().splitlines() == want
            assert ("HEAP" in err) == (memory == "1000")

    def test_heap_path(self, tmp_path, capsys):
        rng = random.Random(3)
        values = [rng.randint(0, 10_000) for _ in range(2_000)]
        source = write(tmp_path / "in.txt", [str(v) for v in values])
        out = tmp_path / "out.txt"
        code, _, err = run(
            capsys,
            ["topk", "-k", "10", "--memory", "1000",
             str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text().splitlines() == [
            str(v) for v in sorted(values)[:10]
        ]
        assert "HEAP" in err

    def test_sorted_fallback_matches_heap(self, tmp_path, capsys):
        rng = random.Random(4)
        values = [rng.randint(0, 10_000) for _ in range(2_000)]
        source = write(tmp_path / "in.txt", [str(v) for v in values])
        heap_out = tmp_path / "heap.txt"
        sort_out = tmp_path / "sort.txt"
        assert run(capsys, ["topk", "-k", "100", "--memory", "1000",
                            str(source), "-o", str(heap_out)])[0] == 0
        assert run(capsys, ["topk", "-k", "100", "--memory", "50",
                            str(source), "-o", str(sort_out)])[0] == 0
        assert heap_out.read_bytes() == sort_out.read_bytes()

    def test_report_heap_plan(self, tmp_path, capsys):
        source = write(tmp_path / "in.txt", ["3", "1", "2"])
        code, _, err = run(
            capsys,
            ["topk", "-k", "2", "--report", str(source),
             "-o", str(tmp_path / "out.txt")],
        )
        assert code == 0
        assert "plan   heap" in err

    def test_k_zero(self, tmp_path, capsys):
        source = write(tmp_path / "in.txt", ["3", "1"])
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["topk", "-k", "0", str(source),
                                  "-o", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_durable_sorted_path_removes_work_dir(self, tmp_path, capsys):
        # The truncated merge must not leak OUTPUT.sortwork on success.
        rng = random.Random(6)
        source = write(
            tmp_path / "in.txt",
            [str(rng.randint(0, 9_999)) for _ in range(2_000)],
        )
        out = tmp_path / "out.txt"
        code, _, _ = run(
            capsys,
            ["topk", "-k", "200", "--memory", "100", "--resume",
             str(source), "-o", str(out)],
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 200
        assert not (tmp_path / "out.txt.sortwork").exists()


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


class TestMergeCommand:
    def test_merges_sorted_files(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", ["1", "3", "5"])
        b = write(tmp_path / "b.txt", ["2", "4", "6"])
        out = tmp_path / "out.txt"
        code, _, err = run(
            capsys, ["merge", str(a), str(b), "-o", str(out)]
        )
        assert code == 0
        assert out.read_text() == "1\n2\n3\n4\n5\n6\n"
        assert "6 records from 2 files" in err

    def test_inputs_survive(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", ["1"])
        b = write(tmp_path / "b.txt", ["2"])
        run(capsys, ["merge", str(a), str(b), "-o", str(tmp_path / "o.txt")])
        assert a.read_text() == "1\n"
        assert b.read_text() == "2\n"

    def test_empty_input_list_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code, _, err = run(capsys, ["merge", "-o", str(out)])
        assert code == 0
        assert out.read_text() == ""
        assert "0 records from 0 files" in err

    def test_many_files_with_intermediate_passes(self, tmp_path, capsys):
        paths = []
        for index in range(7):
            paths.append(
                str(write(
                    tmp_path / f"run{index}.txt",
                    [str(v) for v in range(index, 100, 7)],
                ))
            )
        out = tmp_path / "out.txt"
        code, _, err = run(
            capsys,
            ["merge", "--fan-in", "3", "--report", *paths, "-o", str(out)],
        )
        assert code == 0
        assert out.read_text().splitlines() == sorted(
            (str(v) for v in range(100)), key=int
        )
        assert "passes=2" in err

    def test_delimited_merge(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", ["a,1", "c,3"])
        b = write(tmp_path / "b.csv", ["b,2"])
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["merge", "--format", "csv", "--key", "0",
             str(a), str(b), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,1\nb,2\nc,3\n"

    def test_intermediate_merge_reads_plain_input_files(self, tmp_path,
                                                         capsys):
        # Only the merge's own intermediate spills are RBLC block
        # streams; caller-provided inputs are plain text files.
        paths = [
            str(write(tmp_path / f"in{i}.txt",
                      [str(v) for v in range(i, 30, 3)]))
            for i in range(3)
        ]
        out = tmp_path / "out.txt"
        code, _, _ = run(
            capsys,
            ["merge", "--fan-in", "2", *paths,
             "-o", str(out)],
        )
        assert code == 0
        assert out.read_text().splitlines() == sorted(
            (str(v) for v in range(30)), key=int
        )

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["merge", str(tmp_path / "nope.txt"),
             "-o", str(tmp_path / "out.txt")],
        )
        assert code == 1
        assert "merge failed" in err

    def test_blank_separator_lines_tolerated(self, tmp_path, capsys):
        # Same input tolerance as `sort`: trailing/blank lines in
        # numeric-format files are separators, not records.
        a = write(tmp_path / "a.txt", ["1", "", "3", ""])
        b = write(tmp_path / "b.txt", ["2"])
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["merge", str(a), str(b), "-o", str(out)])
        assert code == 0
        assert out.read_text() == "1\n2\n3\n"

    def test_undecodable_record_fails_cleanly(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", ["1", "x", "3"])
        code, _, err = run(
            capsys,
            ["merge", str(bad), "-o", str(tmp_path / "out.txt")],
        )
        assert code == 1
        assert "merge failed" in err


# ---------------------------------------------------------------------------
# multi-column --key parsing
# ---------------------------------------------------------------------------


class TestMultiColumnKey:
    def test_sort_by_two_columns(self, tmp_path, capsys):
        source = write(
            tmp_path / "in.csv", ["b,2,x", "a,9,z", "a,1,y", "b,1,w"]
        )
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["sort", "--format", "csv", "--key", "0,1",
             str(source), "-o", str(out)],
        )
        assert code == 0
        assert out.read_text() == "a,1,y\na,9,z\nb,1,w\nb,2,x\n"

    def test_bad_key_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sort", "--format", "csv", "--key", "0,x",
                  str(tmp_path / "in.csv")])
