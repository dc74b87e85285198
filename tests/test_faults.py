"""Fault-injection harness tests and the fault-matrix stress sweep.

The unit half pins the harness's own contract (deterministic counting,
env-var relay, audit trail); the matrix half drives the CLI through
``fault point x backend x format`` and asserts the ISSUE-4 acceptance
property for every combination: the faulted sort fails *cleanly*
(``SortError`` semantics, exit code 1, no stray temp files in
non-durable mode), and rerunning with ``--resume`` produces output
byte-identical (SHA-256) to the fault-free run.

A small smoke subset runs in the default (tier-1) suite; the full
sweep is marked ``stress`` and runs in the dedicated CI job
(``-m "stress or slow"``).  Corpora derive from ``REPRO_STRESS_SEED``
like the property sweep does from ``REPRO_PROPERTY_SEED``.
"""

import os
import random
import re
import tempfile

import pytest

from _helpers import files_under, sha256_file, stress_case, stress_seed
from repro.cli import main
from repro.core.config import GeneratorSpec
from repro.core.records import INT
from repro.engine.block_io import open_text
from repro.engine.errors import SortError
from repro.merge.kway import kway_merge
from repro.sort.spill import FileSpillSort
from repro.testing import faults
from repro.testing.faults import (
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    FaultyFile,
    FaultyFormat,
    FaultState,
    activate,
    activate_from_env,
    deactivate,
)


# ---------------------------------------------------------------------------
# FaultPlan / FaultyFile / FaultyFormat units
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            FaultPlan(op="chmod", nth=1, kind="raise")
        with pytest.raises(ValueError):
            FaultPlan(op="write", nth=1, kind="explode")
        with pytest.raises(ValueError):
            FaultPlan(op="write", nth=0, kind="raise")

    def test_json_round_trip(self):
        plan = FaultPlan(op="read", nth=7, kind="bit_flip",
                         path_substring="shard-")
        assert FaultPlan.from_json(plan.to_json()) == plan
        with pytest.raises(ValueError):
            FaultPlan.from_json("{broken")

    def test_describe_names_everything(self):
        text = FaultPlan(op="write", nth=3, kind="raise",
                         path_substring="run-").describe()
        assert "write" in text and "#3" in text and "run-" in text


class TestFaultyFile:
    def faulty(self, tmp_path, plan, text=""):
        path = tmp_path / "f.txt"
        if text:
            path.write_text(text)
        state = FaultState(plan)
        handle = open(path, "r+" if text else "w", encoding="utf-8")
        return FaultyFile(handle, str(path), state), path, state

    def test_nth_write_raises(self, tmp_path):
        plan = FaultPlan(op="write", nth=2, kind="raise")
        f, path, state = self.faulty(tmp_path, plan)
        f.write("a\n")
        with pytest.raises(FaultInjected):
            f.write("b\n")
        f.close()
        assert path.read_text() == "a\n"
        assert state.fired

    def test_short_write_tears_payload(self, tmp_path):
        plan = FaultPlan(op="write", nth=1, kind="short_write")
        f, path, _ = self.faulty(tmp_path, plan)
        with pytest.raises(FaultInjected):
            f.write("0123456789")
        f.close()
        assert path.read_text() == "01234"

    def test_bit_flip_corrupts_silently(self, tmp_path):
        plan = FaultPlan(op="write", nth=1, kind="bit_flip")
        f, path, _ = self.faulty(tmp_path, plan)
        f.write("7\n")
        f.write("8\n")  # later writes untouched
        f.close()
        assert path.read_text() == "0\n8\n"

    def test_truncate_drops_tail_writes(self, tmp_path):
        plan = FaultPlan(op="write", nth=2, kind="truncate")
        f, path, _ = self.faulty(tmp_path, plan)
        for text in ("a\n", "b\n", "c\n"):
            f.write(text)
        f.close()
        assert path.read_text() == "a\n"

    def test_nth_read_raises(self, tmp_path):
        plan = FaultPlan(op="read", nth=3, kind="raise")
        f, _, _ = self.faulty(tmp_path, plan, text="1\n2\n3\n4\n")
        assert next(f) == "1\n"
        assert next(f) == "2\n"
        with pytest.raises(FaultInjected):
            next(f)
        f.close()

    def test_read_truncate_is_early_eof(self, tmp_path):
        plan = FaultPlan(op="read", nth=2, kind="truncate")
        f, _, _ = self.faulty(tmp_path, plan, text="1\n2\n3\n")
        assert list(f) == ["1\n"]
        f.close()

    def test_read_bit_flip_corrupts_line(self, tmp_path):
        plan = FaultPlan(op="read", nth=2, kind="bit_flip")
        f, _, _ = self.faulty(tmp_path, plan, text="11\n11\n11\n")
        assert list(f) == ["11\n", "01\n", "11\n"]
        f.close()

    def test_path_substring_filter(self, tmp_path):
        plan = FaultPlan(op="write", nth=1, kind="raise",
                         path_substring="other")
        f, path, state = self.faulty(tmp_path, plan)
        f.write("safe\n")  # path does not match; never counted
        f.close()
        assert state.calls == 0
        assert path.read_text() == "safe\n"

    def test_audit_trail_tracks_leaks(self, tmp_path):
        state = FaultState(FaultPlan(op="write", nth=99, kind="raise"))
        a = FaultyFile(open(tmp_path / "a", "w"), "a", state)
        b = FaultyFile(open(tmp_path / "b", "w"), "b", state)
        a.close()
        assert state.leaked() == ["b"]
        b.close()
        assert state.leaked() == []


class TestActivation:
    def test_activate_installs_seam_and_env(self, tmp_path):
        plan = FaultPlan(op="open", nth=1, kind="raise",
                         path_substring="victim")
        with activate(plan) as state:
            assert FaultPlan.from_json(os.environ[FAULT_PLAN_ENV]) == plan
            with open_text(str(tmp_path / "ok.txt"), "w") as handle:
                handle.write("1\n")
            with pytest.raises(FaultInjected):
                # repro: lint-waive R001 call is asserted to raise; no handle is ever created
                open_text(str(tmp_path / "victim.txt"), "w")
            assert state.fired
        assert FAULT_PLAN_ENV not in os.environ
        # Seam restored: opens are plain files again.
        with open_text(str(tmp_path / "after.txt"), "w") as handle:
            assert not isinstance(handle, FaultyFile)

    def test_activate_from_env(self, tmp_path):
        plan = FaultPlan(op="write", nth=1, kind="raise")
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
        try:
            state = activate_from_env()
            assert state is not None and state.plan == plan
            assert activate_from_env() is state  # idempotent
        finally:
            deactivate()
        assert activate_from_env() is None

    def test_disarms_even_when_fault_escapes(self, tmp_path):
        plan = FaultPlan(op="open", nth=1, kind="raise")
        with pytest.raises(FaultInjected):
            with activate(plan):
                # repro: lint-waive R001 call is asserted to raise; no handle is ever created
                open_text(str(tmp_path / "f.txt"), "w")
        assert faults._ACTIVE is None


class TestFaultyFormat:
    def test_decode_fault_at_nth_block(self):
        fmt = FaultyFormat(INT, fail_decode_at=2)
        assert fmt.decode_block(["1\n", "2\n"]) == [1, 2]
        with pytest.raises(FaultInjected):
            fmt.decode_block(["3\n"])

    def test_encode_fault_and_delegation(self):
        fmt = FaultyFormat(INT, fail_encode_at=1)
        assert fmt.numeric and fmt.blank_input_skippable
        assert fmt.decode("5") == 5 and fmt.encode(5) == "5"
        assert fmt.key(5) == 5
        with pytest.raises(FaultInjected):
            fmt.encode_block([1, 2])


# ---------------------------------------------------------------------------
# kway_merge handle-leak regression (ISSUE 4 satellite)
# ---------------------------------------------------------------------------


class TestMergeReaderLeaks:
    def test_raising_stream_closes_other_generators(self):
        closed = []

        def reader(index, data):
            try:
                yield from data
            finally:
                closed.append(index)

        def exploding():
            yield 0
            raise FaultInjected("reader died mid-merge")

        with pytest.raises(FaultInjected):
            list(kway_merge([
                reader(0, [1, 4, 7]), exploding(), reader(2, [2, 5, 8]),
            ]))
        assert sorted(closed) == [0, 2]

    def test_abandoned_merge_closes_streams(self):
        closed = []

        def reader(index, data):
            try:
                yield from data
            finally:
                closed.append(index)

        merged = kway_merge([reader(0, [1, 3]), reader(1, [2, 4])])
        assert next(merged) == 1
        merged.close()
        assert sorted(closed) == [0, 1]

    def test_spill_merge_read_fault_leaks_no_handles(self, tmp_path):
        """The FaultyFile-based regression: a reader raising mid-merge
        must not leave the other runs' file handles open, and the
        backend must still clean its temp directory."""
        data = [((i * 613) % 500) for i in range(400)]
        sorter = FileSpillSort(
            GeneratorSpec(algorithm="rs", memory=32).build(),
            fan_in=4, buffer_records=8, tmp_dir=str(tmp_path),
        )
        plan = FaultPlan(op="read", nth=90, kind="raise",
                         path_substring="run-")
        with activate(plan) as state:
            with pytest.raises(FaultInjected):
                list(sorter.sort(iter(data)))
        assert state.fired
        assert state.leaked() == []
        assert files_under(tmp_path) == []


# ---------------------------------------------------------------------------
# fault matrix: fault point x backend x format
# ---------------------------------------------------------------------------


def make_corpus(tmp_path, fmt, n, seed):
    """A deterministic corpus file for one matrix case."""
    rng = random.Random(stress_seed("fault-matrix", fmt, n, seed))
    if fmt == "int":
        lines = [str(rng.randint(-10**6, 10**6)) for _ in range(n)]
    elif fmt == "str":
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 _-"
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
            for _ in range(n)
        ]
    elif fmt == "csv":
        lines = [
            f"row{rng.randint(0, n)},{rng.randint(-500, 500)},"
            f"{rng.random():.6f}"
            for _ in range(n)
        ]
    else:  # pragma: no cover - guarded by the parametrize lists
        raise AssertionError(fmt)
    path = tmp_path / f"in-{fmt}.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def format_args(fmt):
    return ["--format", "csv", "--key", "1"] if fmt == "csv" else (
        ["--format", fmt] if fmt != "int" else []
    )


def run_matrix_case(
    tmp_path, fmt, workers, plan, records=600, memory=16, binary=False,
    codec="none",
):
    """One acceptance check: faulted run fails cleanly, resume matches."""
    case = dict(fmt=fmt, workers=workers, plan=plan.describe(),
                binary=binary, codec=codec)
    source = make_corpus(tmp_path, fmt, records, workers)
    base = ["sort", "--memory", str(memory), "--fan-in", "4",
            "--merge-buffer", "8", *format_args(fmt)]
    if workers > 1:
        base += ["--workers", str(workers)]
    if binary:
        base += ["--binary-spill"]
    if codec != "none":
        base += ["--spill-codec", codec]
    ref = tmp_path / "ref.txt"
    assert main(base + [str(source), "-o", str(ref)]) == 0, stress_case(**case)

    out = tmp_path / "out.txt"
    durable = base + ["--resume", "--checksum", str(source), "-o", str(out)]
    with activate(plan) as state:
        code = main(durable)
    # Workers count their own faults in their own processes, so the
    # parent-side state only proves firing for serial cases; for
    # parallel ones the nonzero exit below is the evidence.
    assert state.fired or workers > 1, (
        "fault never fired — dead matrix case: " + stress_case(**case)
    )
    assert code == 1, (
        "faulted sort must fail cleanly (exit 1): " + stress_case(**case)
    )
    work_dir = tmp_path / "out.txt.sortwork"
    assert work_dir.is_dir(), (
        "durable failure must keep its work dir: " + stress_case(**case)
    )

    assert main(durable) == 0, "resume failed: " + stress_case(**case)
    assert sha256_file(out) == sha256_file(ref), (
        "resumed output differs from the fault-free run: "
        + stress_case(**case)
    )
    assert not work_dir.exists(), (
        "successful resume must remove the work dir: " + stress_case(**case)
    )


SERIAL_FAULTS = [
    FaultPlan(op="write", nth=3, kind="raise", path_substring="run-"),
    FaultPlan(op="write", nth=9, kind="short_write", path_substring="run-"),
    FaultPlan(op="write", nth=2, kind="raise", path_substring="merge-"),
    FaultPlan(op="write", nth=1, kind="short_write", path_substring="merge-"),
    FaultPlan(op="write", nth=5, kind="bit_flip", path_substring="run-"),
    FaultPlan(op="write", nth=6, kind="truncate", path_substring="run-"),
    FaultPlan(op="read", nth=120, kind="raise", path_substring="run-"),
    FaultPlan(op="open", nth=4, kind="raise", path_substring="run-"),
]

PARALLEL_FAULTS = [
    FaultPlan(op="write", nth=1, kind="raise", path_substring="shard-001"),
    FaultPlan(op="write", nth=2, kind="raise", path_substring="part-"),
    FaultPlan(op="write", nth=3, kind="bit_flip", path_substring="shard-000"),
    FaultPlan(op="write", nth=2, kind="truncate", path_substring="part-001"),
    FaultPlan(op="read", nth=40, kind="raise", path_substring="shard-"),
]


class TestFaultMatrixSmoke:
    """Fast default-suite slice of the matrix (serial + one parallel)."""

    @pytest.mark.parametrize("plan", SERIAL_FAULTS[:3],
                             ids=lambda p: p.describe())
    def test_serial_int(self, tmp_path, plan):
        run_matrix_case(tmp_path, "int", 1, plan)

    def test_serial_csv_bit_flip(self, tmp_path):
        run_matrix_case(tmp_path, "csv", 1, SERIAL_FAULTS[4])

    def test_parallel_killed_worker(self, tmp_path):
        run_matrix_case(tmp_path, "int", 2, PARALLEL_FAULTS[0])

    def test_serial_binary_run_fault(self, tmp_path):
        """Binary RBLK runs recover exactly like text runs."""
        run_matrix_case(tmp_path, "int", 1, SERIAL_FAULTS[0], binary=True)

    def test_serial_binary_bit_flip(self, tmp_path):
        """A flipped byte inside an RBLK body is caught by the header
        CRC and the poisoned run is regenerated on resume."""
        run_matrix_case(tmp_path, "csv", 1, SERIAL_FAULTS[4], binary=True)

    def test_parallel_binary_shard_fault(self, tmp_path):
        run_matrix_case(tmp_path, "int", 2, PARALLEL_FAULTS[0], binary=True)


CODECS_UNDER_TEST = ["zlib", "lzma", "front", "front+zlib"]


class TestFaultMatrixCodecSmoke:
    """Faults inside *compressed* (RBLC) block bodies.

    A flipped, torn, or truncated byte inside a compressed body cannot
    be caught by parsing — zlib streams often still inflate and front
    coding happily decodes shifted prefixes — so these cases pin the
    tentpole property: the always-on RBLC header CRC turns every such
    fault into the same clean exit-1 failure, and --resume reproduces
    the fault-free bytes."""

    @pytest.mark.parametrize("codec", CODECS_UNDER_TEST)
    def test_serial_bit_flip(self, tmp_path, codec):
        run_matrix_case(tmp_path, "int", 1, SERIAL_FAULTS[4], codec=codec)

    def test_serial_truncate_zlib(self, tmp_path):
        run_matrix_case(tmp_path, "int", 1, SERIAL_FAULTS[5], codec="zlib")

    def test_serial_short_write_front_zlib(self, tmp_path):
        run_matrix_case(
            tmp_path, "csv", 1, SERIAL_FAULTS[1], codec="front+zlib"
        )

    def test_serial_binary_bit_flip_zlib(self, tmp_path):
        """Order-preserving key bytes under zlib: corrupt stored body,
        caught before any record reaches the merge."""
        run_matrix_case(
            tmp_path, "int", 1, SERIAL_FAULTS[4], binary=True, codec="zlib"
        )

    def test_parallel_shard_bit_flip_zlib(self, tmp_path):
        run_matrix_case(tmp_path, "int", 2, PARALLEL_FAULTS[2], codec="zlib")


@pytest.mark.stress
class TestFaultMatrixStress:
    """The full sweep: every fault point x backend x format."""

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "bin"])
    @pytest.mark.parametrize("fmt", ["int", "str", "csv"])
    @pytest.mark.parametrize("plan", SERIAL_FAULTS,
                             ids=lambda p: p.describe())
    def test_serial(self, tmp_path, fmt, plan, binary):
        run_matrix_case(tmp_path, fmt, 1, plan, binary=binary)

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "bin"])
    @pytest.mark.parametrize("fmt", ["int", "str", "csv"])
    @pytest.mark.parametrize("plan", PARALLEL_FAULTS,
                             ids=lambda p: p.describe())
    def test_parallel(self, tmp_path, fmt, plan, binary):
        run_matrix_case(tmp_path, fmt, 2, plan, binary=binary)


@pytest.mark.stress
class TestFaultMatrixCodecStress:
    """Every fault point x every codec, serial and parallel."""

    @pytest.mark.parametrize("codec", CODECS_UNDER_TEST)
    @pytest.mark.parametrize("binary", [False, True], ids=["text", "bin"])
    @pytest.mark.parametrize("plan", SERIAL_FAULTS,
                             ids=lambda p: p.describe())
    def test_serial(self, tmp_path, plan, binary, codec):
        run_matrix_case(tmp_path, "int", 1, plan, binary=binary, codec=codec)

    @pytest.mark.parametrize("codec", CODECS_UNDER_TEST)
    @pytest.mark.parametrize("plan", PARALLEL_FAULTS,
                             ids=lambda p: p.describe())
    def test_parallel(self, tmp_path, plan, codec):
        run_matrix_case(tmp_path, "int", 2, plan, codec=codec)


class TestCleanFailureWithoutDurability:
    """Without --resume, a fault must clean up and raise SortError."""

    @pytest.mark.parametrize("plan", [SERIAL_FAULTS[0], SERIAL_FAULTS[5]],
                             ids=lambda p: p.describe())
    def test_engine_cleans_temp_files(self, tmp_path, plan):
        data = [((i * 409) % 700) for i in range(500)]
        sorter = FileSpillSort(
            GeneratorSpec(algorithm="rs", memory=32).build(),
            fan_in=4, buffer_records=8, tmp_dir=str(tmp_path),
        )
        with activate(plan):
            with pytest.raises(SortError):
                list(sorter.sort(iter(data)))
        assert files_under(tmp_path) == []

    @pytest.mark.parametrize("fmt, workers, substring", [
        ("int", 1, "run-"),
        ("str", 1, "run-"),
        ("csv", 1, "run-"),
        ("int", 2, "shard-000"),
    ])
    def test_default_cli_sort_rejects_bit_flipped_spill(
        self, tmp_path, monkeypatch, capsys, fmt, workers, substring
    ):
        """A default sort — no --resume, no --checksum — must never
        turn a flipped spill byte into wrong output: it exits 1 with a
        located CorruptBlockError, publishes nothing, and removes its
        temp directory."""
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        source = make_corpus(tmp_path, fmt, 600, workers)
        out = tmp_path / "out.txt"
        argv = ["sort", "--memory", "16", "--fan-in", "4",
                "--merge-buffer", "8", *format_args(fmt)]
        if workers > 1:
            argv += ["--workers", str(workers)]
        plan = FaultPlan(op="write", nth=5, kind="bit_flip",
                         path_substring=substring)
        with activate(plan) as state:
            code = main(argv + [str(source), "-o", str(out)])
        assert state.fired or workers > 1
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(
            rf"corrupt spill block in '[^']*{substring}[^']*': "
            rf"block #\d+ at byte offset \d+", err
        ), err
        assert not out.exists()
        assert files_under(tmp_path) == [str(source)]
        assert list(temp_root.iterdir()) == []
