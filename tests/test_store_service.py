"""Store jobs on the resident service (ISSUE 10).

Three layers, mirroring ``test_service.py``: spec-level (validation
and canonical payloads), runner-level (``run_job`` called directly
with an explicit grant), and scheduler-level (jobs admitted to the
shared memory pool like any sort).  Plus the pin promised in ``repro/cli.py``: the
submit parser's ``--op`` choices are a literal to keep the CLI import
cheap, and this test holds that literal equal to
``service.jobs.JOB_OPS``.
"""

import json
import os
import threading
import time

import pytest

from repro.cli import build_parser
from repro.service.jobs import (
    JOB_OPS,
    STORE_OPS,
    JobSpec,
    job_id_for,
)
from repro.service.runner import run_job
from repro.service.scheduler import TERMINAL_STATES, JobScheduler
from repro.store import Store
from repro.store.oplog import parse_op_line


def write_oplog(path, puts=200, deletes=50):
    lines = []
    for index in range(puts):
        lines.append(f"put\tk{index:05d}\tv{index}\n")
    for index in range(deletes):
        lines.append(f"del\tk{index:05d}\n")
    path.write_text("".join(lines))
    return puts, deletes


def _wait(scheduler, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = scheduler.status(job_id)
        assert payload is not None
        if payload["status"] in TERMINAL_STATES:
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished: {payload}")


# ---------------------------------------------------------------------------
# spec-level
# ---------------------------------------------------------------------------


class TestStoreJobSpec:
    def test_store_ops_are_job_ops(self):
        assert set(STORE_OPS) <= set(JOB_OPS)

    def test_ingest_requires_input_and_store(self):
        with pytest.raises(ValueError, match="store directory"):
            JobSpec(op="store_ingest", input="/tmp/ops.tsv").validate()
        with pytest.raises(ValueError, match="input"):
            JobSpec(op="store_ingest", input="", store="/tmp/db").validate()
        JobSpec(
            op="store_ingest", input="/tmp/ops.tsv", store="/tmp/db"
        ).validate()

    @pytest.mark.parametrize("op", ["store_scan", "store_compact"])
    def test_scan_and_compact_are_inputless(self, op):
        JobSpec(op=op, input="", store="/tmp/db").validate()
        with pytest.raises(ValueError, match="store directory"):
            JobSpec(op=op, input="").validate()

    def test_store_rejected_on_non_store_ops(self):
        with pytest.raises(ValueError, match="store only applies"):
            JobSpec(op="sort", input="/tmp/in.txt", store="/tmp/db").validate()

    def test_payload_round_trip(self):
        spec = JobSpec.from_payload(
            {
                "op": "store_ingest",
                "input": "ops.tsv",
                "store": "db",
                "memory": 64,
                "spill_codec": "zlib",
            }
        )
        assert spec.store == os.path.abspath("db")
        again = JobSpec.from_payload(spec.to_payload())
        assert again == spec
        assert job_id_for(again) == job_id_for(spec)

    def test_inputless_payload_keeps_empty_input(self):
        spec = JobSpec.from_payload({"op": "store_scan", "store": "db"})
        assert spec.input == ""  # not abspath("") == cwd

    def test_ids_distinguish_store_jobs(self):
        scan = JobSpec(op="store_scan", input="", store="/tmp/db")
        compact = JobSpec(op="store_compact", input="", store="/tmp/db")
        elsewhere = JobSpec(op="store_scan", input="", store="/tmp/other")
        ids = {job_id_for(scan), job_id_for(compact), job_id_for(elsewhere)}
        assert len(ids) == 3

    def test_submit_parser_choices_pin_job_ops(self):
        # cli.py keeps the submit --op choices as a literal so the CLI
        # never imports the service package; this is the pin that keeps
        # the literal honest.
        parser = build_parser()
        for action in parser._subparsers._group_actions:
            submit = action.choices.get("submit")
            if submit is None:
                continue
            for option in submit._actions:
                if "--op" in getattr(option, "option_strings", ()):
                    assert tuple(option.choices) == JOB_OPS
                    return
        raise AssertionError("submit --op not found in parser")


# ---------------------------------------------------------------------------
# runner-level
# ---------------------------------------------------------------------------


class TestRunStoreJobs:
    def run(self, spec, tmp_path, memory=100):
        result = str(tmp_path / f"result-{spec.op}.out")
        outcome = run_job(
            spec,
            memory=memory,
            work_dir=str(tmp_path / "work"),
            result_path=result,
            cancel=threading.Event(),
            job_id="t",
        )
        return outcome, result

    def test_ingest_scan_compact_pipeline(self, tmp_path):
        puts, deletes = write_oplog(tmp_path / "ops.tsv", 300, 80)
        db = str(tmp_path / "db")
        ingest = JobSpec(
            op="store_ingest", input=str(tmp_path / "ops.tsv"),
            store=db, memory=32,
        )
        outcome, result = self.run(ingest, tmp_path, memory=32)
        assert outcome.records_out == puts + deletes
        report = json.loads(open(result).read())
        assert report["applied"] == puts + deletes
        # memory=32 is the job's grant *and* the memtable budget —
        # the ingest must have spilled tables, not ballooned in RAM.
        assert report["flushed_tables"] > 0

        scan = JobSpec(op="store_scan", input="", store=db)
        outcome, result = self.run(scan, tmp_path)
        assert outcome.records_out == puts - deletes
        lines = open(result).read().splitlines()
        assert len(lines) == puts - deletes
        parsed = [
            parse_op_line("put\t" + line + "\n", i)
            for i, line in enumerate(lines, start=1)
        ]
        keys = [key for _, key, _ in parsed]
        assert keys == sorted(keys)
        assert keys[0] == b"k%05d" % deletes

        compact = JobSpec(op="store_compact", input="", store=db)
        outcome, result = self.run(compact, tmp_path)
        assert outcome.records_out == puts - deletes
        summary = json.loads(open(result).read())
        assert summary["tables"] == 1
        assert summary["table_records"] == puts - deletes

        # The job closed the store cleanly: it reopens lock-free and
        # serves exactly the ingested state.
        with Store(db, sync=False) as store:
            assert store.get(b"k%05d" % (deletes + 1)) is not None
            assert store.get(b"k00000") is None

    def test_ingest_bad_line_fails_cleanly(self, tmp_path):
        (tmp_path / "ops.tsv").write_text("put\tk\tv\nnonsense\n")
        db = str(tmp_path / "db")
        spec = JobSpec(
            op="store_ingest", input=str(tmp_path / "ops.tsv"), store=db
        )
        with pytest.raises(ValueError, match="line 2"):
            self.run(spec, tmp_path)
        # The failed job released the store lock on its way out.
        with Store(db, sync=False):
            pass


# ---------------------------------------------------------------------------
# scheduler-level
# ---------------------------------------------------------------------------


class TestStoreThroughScheduler:
    def test_store_jobs_share_the_broker_pool(self, tmp_path):
        write_oplog(tmp_path / "ops.tsv", 400, 100)
        db = str(tmp_path / "db")
        scheduler = JobScheduler(
            str(tmp_path / "spool"), total_memory=100, job_workers=2
        )
        try:
            ingest = JobSpec(
                op="store_ingest", input=str(tmp_path / "ops.tsv"),
                store=db, memory=64,
            )
            payload = _wait(scheduler, scheduler.submit(ingest).job_id)
            assert payload["status"] == "done", payload["error"]
            assert payload["granted"] == 64
            assert payload["records_out"] == 500
            assert scheduler.pool_used == 0

            scan = JobSpec(op="store_scan", input="", store=db, memory=16)
            payload = _wait(scheduler, scheduler.submit(scan).job_id)
            assert payload["status"] == "done", payload["error"]
            assert payload["records_out"] == 300

            compact = JobSpec(
                op="store_compact", input="", store=db, memory=16
            )
            payload = _wait(scheduler, scheduler.submit(compact).job_id)
            assert payload["status"] == "done", payload["error"]
            assert payload["report"]["tables"] == 1
        finally:
            scheduler.shutdown()

    def test_failed_store_job_reports_not_crashes(self, tmp_path):
        (tmp_path / "ops.tsv").write_text("garbage line\n")
        scheduler = JobScheduler(
            str(tmp_path / "spool"), total_memory=100
        )
        try:
            spec = JobSpec(
                op="store_ingest", input=str(tmp_path / "ops.tsv"),
                store=str(tmp_path / "db"), memory=10,
            )
            payload = _wait(scheduler, scheduler.submit(spec).job_id)
            assert payload["status"] == "failed"
            assert "line 1" in payload["error"]
            assert scheduler.pool_used == 0
        finally:
            scheduler.shutdown()
