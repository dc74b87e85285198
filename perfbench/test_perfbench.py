"""The benchmark's own test: every workload in small mode, both modes.

Run with ``python -m pytest perfbench``.  Asserts the output schema the
benchmark promises, that every correctness gate passes (0 failed
operations), and that a copy of the benchmark without the program
exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in SPEC["workloads"]]
)
def test_small_run_schema_and_gates(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace and workload.startswith("sort-"):
        assert result["metrics"]["two_way.runs"]["value"] >= 1
        assert result["metrics"]["trace.unattributed_frac"]["value"] < 0.10
    if trace and workload == "service":
        # The journaled sort and the job runner write through their own
        # bindings; the traced server must still see their work.
        for name in ("block_io.spill_bytes", "block_io.spill_write_s",
                     "engine.publish_s", "service.store_open_ms",
                     "service.run_ms.sort"):
            assert result["metrics"][name]["value"] > 0, name


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sort-random", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children() -> None:
    tracer = Tracer("t")
    root = tracer.begin("root")
    with tracer.span("child"):
        with tracer.span("grandchild", record=False):
            pass
    tracer.end(root)
    child = next(s for s in tracer.spans if s[1] == "child")
    assert tracer.totals["child"][2] <= child[3] - child[2]
    assert 0 <= tracer.self_time(root.id) <= root_duration(tracer, root.id)


def test_cross_thread_children_cover_the_parent() -> None:
    tracer = Tracer("t")
    root = tracer.begin("root")

    def work() -> None:
        with_parent = tracer.begin("job", parent=root.id)
        sum(range(20000))
        tracer.end(with_parent)

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    tracer.end(root)
    job = next(s for s in tracer.spans if s[1] == "job")
    covered = job[3] - job[2]
    assert tracer.self_time(root.id) == pytest.approx(
        root_duration(tracer, root.id) - covered
    )


def root_duration(tracer: Tracer, span_id: int) -> float:
    span = next(s for s in tracer.spans if s[0] == span_id)
    return span[3] - span[2]
