"""End-to-end tests for the resident sort service (DESIGN.md §16).

Three layers, cheapest first:

* scheduler-level — :class:`~repro.service.scheduler.JobScheduler`
  driven directly (quotas, cancellation, idempotent submit);
* in-process server — a real asyncio listener in a thread, talked to
  through :class:`~repro.service.client.ServiceClient` (concurrency,
  result streaming, sha256 identity with serial runs);
* subprocess server — ``python -m repro.cli serve`` killed with
  ``SIGKILL`` mid-spill and restarted, proving a job re-attached by id
  resumes from its §11 journal (``runs_reused > 0``) and produces
  byte-identical output; plus ``REPRO_FAULT_PLAN`` injection through
  the whole service path.
"""

import asyncio
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.service.client import ServiceClient, read_endpoint
from repro.service.jobs import JobSpec, job_id_for
from repro.service.runner import JobCancelled
from repro.service.scheduler import JobScheduler, TERMINAL_STATES
from repro.service.server import SortService

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _write_input(path, n, stride=7):
    values = [(stride * i) % n for i in range(n)]
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return values


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wait_scheduler(scheduler, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = scheduler.status(job_id)
        assert payload is not None
        if payload["status"] in TERMINAL_STATES:
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished: {payload}")


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------


class TestJobSpecPayload:
    def test_checksum_field_accepted_and_ignored(self, tmp_path):
        """Spill blocks are always checksummed: the old ``checksum``
        submit field still parses but changes neither the spec nor
        the job id."""
        base = {"op": "sort", "input": str(tmp_path / "in.txt")}
        plain = JobSpec.from_payload(base)
        flagged = JobSpec.from_payload({**base, "checksum": True})
        assert flagged == plain
        assert "checksum" not in flagged.to_payload()
        assert job_id_for(flagged) == job_id_for(plain)


    @pytest.mark.parametrize("field, value, message", [
        ("spill_codec", "bogus", "unknown spill codec 'bogus'"),
        ("spill_codec", "front", "unknown spill codec 'front'"),
        ("algorithm", "bogus", "algorithm must be one of"),
        ("format", "bogus", "unknown record format 'bogus'"),
    ])
    def test_unrunnable_fields_fail_validation(self, tmp_path, field, value,
                                               message):
        base = {"op": "sort", "input": str(tmp_path / "in.txt")}
        with pytest.raises(ValueError, match=message):
            JobSpec.from_payload({**base, field: value})

    def test_auto_codec_is_kept_as_spelled(self, tmp_path):
        """``auto`` is a valid spelling (it runs as ``none``); the spec
        and so the job id keep it, like any persisted job.json."""
        spec = JobSpec.from_payload({
            "op": "sort", "input": str(tmp_path / "in.txt"),
            "spill_codec": "auto",
        })
        assert spec.to_payload()["spill_codec"] == "auto"


# ---------------------------------------------------------------------------
# scheduler-level
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_submit_is_idempotent_by_id(self, tmp_path):
        _write_input(tmp_path / "in.txt", 500)
        spec = JobSpec(op="sort", input=str(tmp_path / "in.txt"), memory=64)
        scheduler = JobScheduler(str(tmp_path / "spool"), total_memory=1000)
        try:
            first = scheduler.submit(spec)
            second = scheduler.submit(spec)
            assert first.job_id == second.job_id == job_id_for(spec)
            payload = _wait_scheduler(scheduler, first.job_id)
            assert payload["status"] == "done"
            assert payload["records_out"] == 500
            # Resubmitting a done job returns it, without a re-run.
            third = scheduler.submit(spec)
            assert third.attempt == first.attempt
        finally:
            scheduler.shutdown()

    def test_tenant_quota_clamps_grant_without_starvation(self, tmp_path):
        _write_input(tmp_path / "in.txt", 2000)
        scheduler = JobScheduler(
            str(tmp_path / "spool"),
            total_memory=1000,
            job_workers=4,
            tenant_quotas={"small": 50},
        )
        try:
            greedy = [
                JobSpec(
                    op="sort", input=str(tmp_path / "in.txt"),
                    memory=800, tenant="small", fan_in=4 + i,
                )
                for i in range(3)
            ]
            big = JobSpec(
                op="sort", input=str(tmp_path / "in.txt"), memory=1000
            )
            states = [scheduler.submit(spec) for spec in greedy]
            big_state = scheduler.submit(big)
            for state in states:
                payload = _wait_scheduler(scheduler, state.job_id)
                assert payload["status"] == "done", payload["error"]
                # The quota clamped the ask; the job still completed.
                assert 0 < payload["granted"] <= 50
            payload = _wait_scheduler(scheduler, big_state.job_id)
            assert payload["status"] == "done", payload["error"]
            # The unquota'd tenant was not starved by the greedy one —
            # it got its full ask once the pool drained.
            assert payload["granted"] == 1000
            assert scheduler.broker.free == 1000
        finally:
            scheduler.shutdown()

    def test_cancel_releases_memory_for_waiters(self, tmp_path, monkeypatch):
        """A cancelled job's grant must come back to the pool."""
        from repro.service import scheduler as scheduler_module

        release = threading.Event()

        def blocking_run_job(spec, *, memory, work_dir, result_path,
                             cancel=None, job_id=""):
            while not cancel.is_set():
                if release.wait(0.01):
                    break
            if cancel.is_set():
                raise JobCancelled(f"job {job_id} cancelled")
            from repro.service.runner import JobOutcome

            return JobOutcome(records_out=0)

        monkeypatch.setattr(scheduler_module, "run_job", blocking_run_job)
        _write_input(tmp_path / "in.txt", 10)
        scheduler = JobScheduler(
            str(tmp_path / "spool"), total_memory=100, job_workers=2
        )
        try:
            hog = JobSpec(
                op="sort", input=str(tmp_path / "in.txt"), memory=100
            )
            hog_state = scheduler.submit(hog)
            deadline = time.monotonic() + 10.0
            while scheduler.status(hog_state.job_id)["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # The whole pool is held; a second full-pool job must wait.
            waiter = JobSpec(
                op="sort", input=str(tmp_path / "in.txt"),
                memory=100, fan_in=4,
            )
            waiter_state = scheduler.submit(waiter)
            assert scheduler.cancel(hog_state.job_id)
            payload = _wait_scheduler(scheduler, hog_state.job_id)
            assert payload["status"] == "cancelled"
            release.set()
            payload = _wait_scheduler(scheduler, waiter_state.job_id)
            assert payload["status"] == "done"
            assert payload["granted"] == 100
            assert scheduler.broker.free == 100
        finally:
            release.set()
            scheduler.shutdown()

    @pytest.mark.parametrize("ending", ["done", "failed", "cancelled"])
    def test_memory_is_back_when_the_status_turns_terminal(
        self, tmp_path, monkeypatch, ending
    ):
        """A client that sees a terminal status sees the grant returned."""
        from repro.service import scheduler as scheduler_module
        from repro.service.runner import JobOutcome

        def quick_run_job(spec, *, memory, work_dir, result_path,
                          cancel=None, job_id=""):
            if ending == "failed":
                raise ValueError("bad input")
            if ending == "cancelled":
                raise JobCancelled(f"job {job_id} cancelled")
            return JobOutcome(records_out=0)

        monkeypatch.setattr(scheduler_module, "run_job", quick_run_job)
        _write_input(tmp_path / "in.txt", 10)
        scheduler = JobScheduler(
            str(tmp_path / "spool"), total_memory=100,
            tenant_quotas={"t": 80},
        )
        seen = []
        finish = scheduler._finish

        def observed_finish(state, status):
            seen.append(
                (status, scheduler.broker.free,
                 scheduler._tenant_used.get("t", 0))
            )
            finish(state, status)

        scheduler._finish = observed_finish
        try:
            spec = JobSpec(
                op="sort", input=str(tmp_path / "in.txt"), memory=64,
                tenant="t",
            )
            payload = _wait_scheduler(scheduler, scheduler.submit(spec).job_id)
            assert payload["status"] == ending
            assert payload["granted"] == 64
            assert seen == [(ending, 100, 0)]
        finally:
            scheduler.shutdown()


# ---------------------------------------------------------------------------
# in-process server
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_server(tmp_path):
    service = SortService(
        str(tmp_path / "spool"), total_memory=2000, job_workers=4
    )
    endpoint = tmp_path / "endpoint.json"

    def serve():
        asyncio.run(service.run(endpoint_file=str(endpoint)))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = ServiceClient(read_endpoint(str(endpoint), timeout=30.0))
    yield client, tmp_path
    try:
        client.shutdown()
    except (ConnectionError, OSError):
        pass
    thread.join(timeout=30.0)
    assert not thread.is_alive()


class TestLiveServer:
    def test_concurrent_jobs_match_serial_sha256(self, live_server):
        client, tmp_path = live_server
        jobs = []
        for index in range(5):
            n = 1500 + 137 * index
            path = tmp_path / f"in-{index}.txt"
            values = _write_input(path, n, stride=7 + 2 * index)
            expected = "\n".join(str(v) for v in sorted(values)) + "\n"
            payload = client.submit(
                {"op": "sort", "input": str(path), "memory": 150}
            )
            jobs.append((payload["id"], expected))
        for job_id, expected in jobs:
            payload = client.wait(job_id)
            assert payload["status"] == "done", payload["error"]
            assert payload["report"]["runs"] > 1  # really spilled
            sink = io.StringIO()
            client.result(job_id, sink)
            assert _sha256(sink.getvalue()) == _sha256(expected)

    def test_operator_jobs_through_the_service(self, live_server):
        client, tmp_path = live_server
        path = tmp_path / "dup.txt"
        path.write_text("\n".join(["4", "2", "4", "9", "2", "2"]) + "\n")
        cases = [
            ({"op": "distinct", "input": str(path), "memory": 64},
             "2\n4\n9\n"),
            ({"op": "topk", "input": str(path), "k": 2, "memory": 64},
             "2\n2\n"),
            ({"op": "agg", "input": str(path), "memory": 64},
             "2,3\n4,2\n9,1\n"),
        ]
        for job, expected in cases:
            payload = client.wait(client.submit(job)["id"])
            assert payload["status"] == "done", payload["error"]
            sink = io.StringIO()
            client.result(job_id=payload["id"], sink=sink)
            assert sink.getvalue() == expected, job["op"]

    def test_unrunnable_job_is_refused_at_submit(self, live_server):
        """A spec the runner could never execute gets an error frame
        from ``submit``: no job directory, no memory grant."""
        client, tmp_path = live_server
        from repro.service.client import ServiceError

        path = tmp_path / "in.txt"
        _write_input(path, 50)
        for field, value in [("spill_codec", "bogus"),
                             ("spill_codec", "front+zlib"),
                             ("algorithm", "bogus"), ("format", "bogus")]:
            with pytest.raises(ServiceError, match="bogus|front"):
                client.submit({"op": "sort", "input": str(path),
                               field: value})
        assert os.listdir(tmp_path / "spool" / "jobs") == []
        payload = client.wait(client.submit(
            {"op": "sort", "input": str(path), "spill_codec": "auto"}
        )["id"])
        assert payload["status"] == "done", payload["error"]

    def test_result_refused_until_done(self, live_server):
        client, tmp_path = live_server
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError, match="unknown job id"):
            client.status("no-such-job")
        with pytest.raises(ServiceError, match="unknown job id"):
            sink = io.StringIO()
            client.result("no-such-job", sink)


# ---------------------------------------------------------------------------
# subprocess server: crash, re-attach, fault injection
# ---------------------------------------------------------------------------


def _spawn_server(tmp_path, *extra_args, env_extra=None, endpoint="ep.json"):
    endpoint_path = tmp_path / endpoint
    if endpoint_path.exists():
        endpoint_path.unlink()  # never read a dead server's address
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    log = open(tmp_path / "serve.log", "ab")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spool", str(tmp_path / "spool"),
            "--endpoint-file", str(endpoint_path),
            "--memory", "2000",
        ]
        + list(extra_args),
        stdout=log, stderr=log, env=env,
    )
    try:
        address = read_endpoint(str(endpoint_path), timeout=30.0)
    except TimeoutError:
        process.kill()
        raise
    finally:
        log.close()
    return process, ServiceClient(address)


def _work_files(spool, job_id):
    work = os.path.join(str(spool), "jobs", job_id, "work")
    found = []
    for dirpath, _, filenames in os.walk(work):
        found.extend(os.path.join(dirpath, f) for f in filenames)
    return found


class TestCrashReattach:
    def test_kill9_mid_spill_then_reattach_is_identical(self, tmp_path):
        values = _write_input(tmp_path / "in.txt", 120_000, stride=31)
        expected = "\n".join(str(v) for v in sorted(values)) + "\n"
        job = {
            "op": "sort", "input": str(tmp_path / "in.txt"), "memory": 300,
        }
        process, client = _spawn_server(tmp_path)
        try:
            job_id = client.submit(job)["id"]
            # Wait until the job has durably spilled some runs, then
            # kill the server the hard way — no cleanup, no goodbye.
            deadline = time.monotonic() + 60.0
            while len(_work_files(tmp_path / "spool", job_id)) < 3:
                assert time.monotonic() < deadline, "job never spilled"
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)
        except BaseException:
            process.kill()
            raise
        # Restart over the same spool; the job must come back as
        # interrupted and be re-attachable by its id alone.
        process, client = _spawn_server(tmp_path)
        try:
            listed = client.jobs()["jobs"]
            assert [j["id"] for j in listed] == [job_id]
            assert listed[0]["status"] == "interrupted"
            resubmitted = client.submit_id(job_id)
            assert resubmitted["id"] == job_id
            payload = client.wait(job_id, timeout=120.0)
            assert payload["status"] == "done", payload["error"]
            # The §11 journal made the resume real, not a re-run.
            assert payload["resume"]["runs_reused"] > 0
            assert payload["attempt"] >= 1
            sink = io.StringIO()
            client.result(job_id, sink)
            assert _sha256(sink.getvalue()) == _sha256(expected)
            client.shutdown()
            process.wait(timeout=30.0)
        except BaseException:
            process.kill()
            raise


class TestServiceFaultInjection:
    def _run_faulted(self, tmp_path, plan):
        _write_input(tmp_path / "in.txt", 20_000, stride=13)
        job = {
            "op": "sort", "input": str(tmp_path / "in.txt"), "memory": 200,
            "output": str(tmp_path / "OUTPUT"),
        }
        process, client = _spawn_server(
            tmp_path, env_extra={"REPRO_FAULT_PLAN": json.dumps(plan)}
        )
        try:
            payload = client.wait(
                client.submit(job)["id"], timeout=60.0
            )
            client.shutdown()
            process.wait(timeout=30.0)
        except BaseException:
            process.kill()
            raise
        return payload

    def test_spill_write_fault_fails_job_cleanly(self, tmp_path):
        payload = self._run_faulted(
            tmp_path,
            {"op": "write", "nth": 3, "kind": "raise",
             "path_substring": "run-"},
        )
        assert payload["status"] == "failed"
        assert "fault" in payload["error"].lower()
        assert not os.path.exists(tmp_path / "OUTPUT")

    def test_publish_write_fault_leaves_no_partial_output(self, tmp_path):
        payload = self._run_faulted(
            tmp_path,
            {"op": "write", "nth": 1, "kind": "raise",
             "path_substring": "OUTPUT.tmp"},
        )
        assert payload["status"] == "failed"
        assert not os.path.exists(tmp_path / "OUTPUT")
        assert not os.path.exists(str(tmp_path / "OUTPUT") + ".tmp")
