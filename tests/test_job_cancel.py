"""Cancelling a real service job from another thread (DESIGN.md §16).

The op pipeline checks the job's cancel event once per decoded input
block and once per output block.  Each case holds the job thread at
one point — inside run generation, or inside the final merge once the
first output block is out — sets the event from the test thread, and
expects :class:`JobCancelled` with no result file published.
"""

import threading

import pytest

from repro.engine import block_io
from repro.service.jobs import JobSpec
from repro.service.runner import JobCancelled, run_job

RECORDS = 20_000  # five input and five output blocks of 4096 records
MEMORY = 1_000    # 20 journaled runs: an intermediate and a final merge


def _run_in_thread(spec, tmp_path, cancel):
    result = {}

    def target():
        try:
            result["outcome"] = run_job(
                spec, memory=MEMORY, work_dir=str(tmp_path / "work"),
                result_path=str(tmp_path / "OUTPUT"), cancel=cancel,
            )
        except BaseException as exc:  # handed to the test thread
            result["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    return thread, result


@pytest.fixture()
def spec(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(
        "".join(f"{(i * 7919) % RECORDS}\n" for i in range(RECORDS))
    )
    return JobSpec(op="sort", input=str(path), memory=MEMORY)


def _cancel_when_reached(reached, cancel, thread, result):
    assert reached.wait(30), "the job never reached the hold point"
    cancel.set()
    thread.join(30)
    assert not thread.is_alive()
    return result


def test_cancel_during_run_generation(tmp_path, monkeypatch, spec):
    reached, cancel = threading.Event(), threading.Event()
    original = block_io.read_blocks

    def held_read_blocks(*args, **kwargs):
        for index, block in enumerate(original(*args, **kwargs)):
            if kwargs.get("codec", "none") is None and index == 2:
                # The job's own input, two blocks into generation.
                reached.set()
                cancel.wait(30)
            yield block

    monkeypatch.setattr(block_io, "read_blocks", held_read_blocks)
    thread, result = _run_in_thread(spec, tmp_path, cancel)
    result = _cancel_when_reached(reached, cancel, thread, result)
    assert isinstance(result.get("error"), JobCancelled), result
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "work"]


def test_cancel_during_the_final_merge(tmp_path, monkeypatch, spec):
    reached, cancel = threading.Event(), threading.Event()
    original = block_io.BlockWriter.flush
    merged_blocks = []

    def held_flush(self):
        if self._codec is None and self._pending:
            # A block of the job's output: the final merge is running.
            merged_blocks.append(len(self._pending))
            reached.set()
            cancel.wait(30)
        original(self)

    monkeypatch.setattr(block_io.BlockWriter, "flush", held_flush)
    thread, result = _run_in_thread(spec, tmp_path, cancel)
    result = _cancel_when_reached(reached, cancel, thread, result)
    assert isinstance(result.get("error"), JobCancelled), result
    assert merged_blocks == [block_io.DEFAULT_BLOCK_RECORDS]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "work"]
