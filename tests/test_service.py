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
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.service.client import ServiceClient, read_endpoint
from repro.merge.kway import DEFAULT_FAN_IN
from repro.service.jobs import JobSpec, job_id_for
from repro.service.runner import JobCancelled
from repro.service.scheduler import JobScheduler, TERMINAL_STATES
from repro.service.server import SortService

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
GNU_SORT = shutil.which("sort")


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


def _wait_status(scheduler, job_id, status, timeout=30.0):
    deadline = time.monotonic() + timeout
    while scheduler.status(job_id)["status"] != status:
        assert time.monotonic() < deadline, f"job {job_id} never {status}"
        time.sleep(0.01)


def _wait_until(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _gated_run_job(gate):
    """A stand-in for ``run_job`` that runs until ``gate`` is set."""
    from repro.service.runner import JobOutcome

    def run_job(spec, *, memory, work_dir, result_path, cancel=None,
                job_id=""):
        while not gate.wait(0.01):
            if cancel.is_set():
                raise JobCancelled(f"job {job_id} cancelled")
        return JobOutcome(records_out=0)

    return run_job


class _PerJobGates:
    """A ``run_job`` stand-in holding each job until its own gate opens.

    ``ran`` lists the ids of the jobs that reached ``run_job``.
    """

    def __init__(self):
        self.gates = {}
        self.ran = []

    def open(self, job_id):
        self.gates.setdefault(job_id, threading.Event()).set()

    def __call__(self, spec, *, memory, work_dir, result_path, cancel=None,
                 job_id=""):
        from repro.service.runner import JobOutcome

        self.ran.append(job_id)
        gate = self.gates.setdefault(job_id, threading.Event())
        while not gate.wait(0.01):
            if cancel.is_set():
                raise JobCancelled(f"job {job_id} cancelled")
        return JobOutcome(records_out=0)


def _gated_scheduler(tmp_path, monkeypatch, **kwargs):
    """A scheduler whose jobs run under :class:`_PerJobGates`, plus a
    factory of distinct sort specs over one tiny input."""
    from repro.service import scheduler as scheduler_module

    gates = _PerJobGates()
    monkeypatch.setattr(scheduler_module, "run_job", gates)
    _write_input(tmp_path / "in.txt", 10)
    scheduler = JobScheduler(str(tmp_path / "spool"), **kwargs)
    fan_ins = itertools.count(2)  # a fresh fan-in per spec keeps ids apart

    def spec(memory, tenant="default"):
        return JobSpec(
            op="sort", input=str(tmp_path / "in.txt"), memory=memory,
            tenant=tenant, fan_in=next(fan_ins),
        )

    return scheduler, gates, spec


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------


class TestJobSpecPayload:
    @pytest.mark.parametrize("field", ["checksum", "binary_spill"])
    def test_retired_fields_are_unknown(self, tmp_path, field):
        """Spill blocks are always checksummed and csv/tsv rows always
        spill as key bytes, so neither field is part of a job."""
        with pytest.raises(ValueError, match=f"unknown job fields: {field}"):
            JobSpec.from_payload({
                "op": "sort", "input": str(tmp_path / "in.txt"), field: True,
            })

    @pytest.mark.parametrize("field, value, message", [
        ("spill_codec", "bogus", "unknown spill codec 'bogus'"),
        ("spill_codec", "front", "unknown spill codec 'front'"),
        ("spill_codec", "auto", "unknown spill codec 'auto'"),
        ("algorithm", "bogus", "algorithm must be one of"),
        ("format", "bogus", "unknown record format 'bogus'"),
    ])
    def test_unrunnable_fields_fail_validation(self, tmp_path, field, value,
                                               message):
        base = {"op": "sort", "input": str(tmp_path / "in.txt")}
        with pytest.raises(ValueError, match=message):
            JobSpec.from_payload({**base, field: value})

    def test_absent_fields_take_the_shared_defaults(self, tmp_path):
        """A submit that names only the op and input runs under the
        same defaults as the CLI (fan-in included)."""
        spec = JobSpec.from_payload(
            {"op": "sort", "input": str(tmp_path / "in.txt")}
        )
        assert spec.fan_in == DEFAULT_FAN_IN
        assert spec == JobSpec(op="sort", input=str(tmp_path / "in.txt"))


# ---------------------------------------------------------------------------
# scheduler-level
# ---------------------------------------------------------------------------


class TestSpoolReload:
    """A restarted scheduler reloads every job its spool still holds."""

    def _finished_job(self, tmp_path):
        _write_input(tmp_path / "in.txt", 300)
        spec = JobSpec(op="sort", input=str(tmp_path / "in.txt"), memory=64)
        spool = str(tmp_path / "spool")
        scheduler = JobScheduler(spool, total_memory=1000)
        try:
            job_id = scheduler.submit(spec).job_id
            assert _wait_scheduler(scheduler, job_id)["status"] == "done"
        finally:
            scheduler.shutdown()
        return spool, job_id

    def _edit_job_json(self, spool, job_id, **fields):
        path = os.path.join(spool, "jobs", job_id, "job.json")
        with open(path, encoding="utf-8") as handle:
            marker = json.load(handle)
        marker["job"].update(fields)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(marker, handle)

    def test_job_that_no_longer_validates_is_dropped_loudly(
        self, tmp_path, capsys
    ):
        spool, job_id = self._finished_job(tmp_path)
        self._edit_job_json(spool, job_id, spill_codec="front")
        capsys.readouterr()
        scheduler = JobScheduler(spool, total_memory=1000)
        try:
            assert scheduler.status(job_id) is None
        finally:
            scheduler.shutdown()
        assert not os.path.exists(os.path.join(spool, "jobs", job_id))
        err = capsys.readouterr().err
        assert job_id in err
        assert "unknown spill codec 'front'" in err

    def test_job_json_with_binary_spill_is_dropped_loudly(
        self, tmp_path, capsys
    ):
        spool, job_id = self._finished_job(tmp_path)
        self._edit_job_json(spool, job_id, binary_spill=True)
        capsys.readouterr()
        scheduler = JobScheduler(spool, total_memory=1000)
        try:
            assert scheduler.status(job_id) is None
        finally:
            scheduler.shutdown()
        assert not os.path.exists(os.path.join(spool, "jobs", job_id))
        assert "unknown job fields: binary_spill" in capsys.readouterr().err



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
            assert scheduler.pool_used == 0
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
            assert scheduler.pool_used == 0
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
                (status, scheduler.pool_used,
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
            assert seen == [(ending, 0, 0)]
        finally:
            scheduler.shutdown()

    def test_waiter_over_its_quota_does_not_block_a_job_that_fits(
        self, tmp_path, monkeypatch
    ):
        """A waiter its tenant's quota holds back takes no pool memory,
        so another tenant's job that fits runs past it."""
        scheduler, gates, spec = _gated_scheduler(
            tmp_path, monkeypatch, total_memory=100, job_workers=4,
            tenant_quotas={"a": 50},
        )
        try:
            x = scheduler.submit(spec(60, tenant="b"))
            _wait_status(scheduler, x.job_id, "running")
            a = scheduler.submit(spec(50, tenant="a"))
            _wait_status(scheduler, a.job_id, "waiting")
            time.sleep(0.1)  # let A queue for the pool before C arrives
            c = scheduler.submit(spec(40, tenant="a"))
            _wait_status(scheduler, c.job_id, "running")
            gates.open(x.job_id)
            assert _wait_scheduler(scheduler, x.job_id)["status"] == "done"
            # The pool could hold A now, but tenant a is at 40 of 50.
            d = scheduler.submit(spec(20, tenant="b"))
            _wait_status(scheduler, d.job_id, "running", timeout=5.0)
            assert scheduler.status(a.job_id)["status"] == "waiting"
            assert scheduler.status(a.job_id)["granted"] == 0
            assert scheduler.pool_used == 40 + 20
            gates.open(c.job_id)
            _wait_status(scheduler, a.job_id, "running")
            for job in (a, d):
                gates.open(job.job_id)
                assert _wait_scheduler(scheduler, job.job_id)["status"] == "done"
            assert scheduler.pool_used == 0
        finally:
            for gate in list(gates.gates.values()):
                gate.set()
            scheduler.shutdown()

    def test_job_cancelled_while_waiting_never_runs(
        self, tmp_path, monkeypatch
    ):
        scheduler, gates, spec = _gated_scheduler(
            tmp_path, monkeypatch, total_memory=100, job_workers=3,
        )
        try:
            holder = scheduler.submit(spec(100))
            _wait_status(scheduler, holder.job_id, "running")
            victim = scheduler.submit(spec(100))
            _wait_status(scheduler, victim.job_id, "waiting")
            assert scheduler.cancel(victim.job_id)
            payload = _wait_scheduler(scheduler, victim.job_id)
            assert payload["status"] == "cancelled"
            assert payload["granted"] == 0
            patient = scheduler.submit(spec(100))
            _wait_status(scheduler, patient.job_id, "waiting")
            gates.open(holder.job_id)
            gates.open(patient.job_id)
            payload = _wait_scheduler(scheduler, patient.job_id)
            assert payload["status"] == "done"
            assert payload["granted"] == 100
            assert victim.job_id not in gates.ran
            assert scheduler.pool_used == 0
        finally:
            for gate in list(gates.gates.values()):
                gate.set()
            scheduler.shutdown()

    @pytest.mark.parametrize("rounds", [40])
    def test_cancel_churn_leaves_the_pool_whole(
        self, tmp_path, monkeypatch, rounds
    ):
        """Waiters cancelled while full-pool holders come and go: no
        interleaving may leave memory behind."""
        scheduler, gates, spec = _gated_scheduler(
            tmp_path, monkeypatch, total_memory=100, job_workers=4,
        )
        states = []
        try:
            for round_no in range(rounds):
                holder = scheduler.submit(spec(100))
                gates.open(holder.job_id)
                victim = scheduler.submit(spec(100))
                if round_no % 2:
                    time.sleep(0.002)
                scheduler.cancel(victim.job_id)
                states += [holder, victim]
            for state in states:
                payload = _wait_scheduler(scheduler, state.job_id)
                assert payload["status"] in ("done", "cancelled")
            assert scheduler.pool_used == 0
            assert not any(scheduler._tenant_used.values())
            assert scheduler._waiters == []
        finally:
            for gate in list(gates.gates.values()):
                gate.set()
            scheduler.shutdown()

    def test_admission_is_first_fit_in_arrival_order(
        self, tmp_path, monkeypatch
    ):
        scheduler, gates, spec = _gated_scheduler(
            tmp_path, monkeypatch, total_memory=100, job_workers=4,
        )
        try:
            holder = scheduler.submit(spec(100))
            _wait_status(scheduler, holder.job_id, "running")
            waiters = {}
            for memory in (70, 50, 30):
                waiters[memory] = scheduler.submit(spec(memory))
                _wait_until(
                    lambda: len(scheduler._waiters) == len(waiters),
                    f"the {memory}-record job to queue",
                )
            gates.open(holder.job_id)
            _wait_status(scheduler, waiters[70].job_id, "running")
            _wait_status(scheduler, waiters[30].job_id, "running")
            assert scheduler.status(waiters[50].job_id)["status"] == "waiting"
            assert scheduler.pool_used == 100
            for state in waiters.values():
                gates.open(state.job_id)
                assert _wait_scheduler(scheduler, state.job_id)["status"] == "done"
            assert scheduler.pool_used == 0
        finally:
            for gate in list(gates.gates.values()):
                gate.set()
            scheduler.shutdown()

    @pytest.mark.parametrize("quotas", [
        {"tenant_quotas": {"a": 0}},
        {"tenant_quotas": {"a": 10, "b": -1}},
        {"default_quota": 0},
    ])
    def test_quota_below_one_is_rejected(self, tmp_path, quotas):
        with pytest.raises(ValueError, match="must be >= 1"):
            JobScheduler(str(tmp_path / "spool"), **quotas)

    @pytest.mark.parametrize("item", ["a=0", "a="])
    def test_serve_refuses_a_bad_tenant_quota_before_starting(
        self, tmp_path, item
    ):
        endpoint = tmp_path / "ep.json"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--spool", str(tmp_path / "spool"),
             "--endpoint-file", str(endpoint), "--tenant-quota", item],
            capture_output=True, text=True, timeout=60.0, env=_cli_env(),
        )
        assert done.returncode != 0
        assert f"--tenant-quota expects TENANT=RECORDS, got {item!r}" in (
            done.stderr
        )
        assert not endpoint.exists()
        assert not (tmp_path / "spool").exists()

    def test_jobs_dropped_from_the_queue_are_published_cancelled(
        self, tmp_path, monkeypatch
    ):
        """``shutdown`` drops queued runs from the executor; those jobs
        still turn terminal through ``_finish`` and its hook."""
        from repro.service import scheduler as scheduler_module

        monkeypatch.setattr(
            scheduler_module, "run_job", _gated_run_job(threading.Event())
        )
        _write_input(tmp_path / "in.txt", 10)
        finished = []
        scheduler = JobScheduler(
            str(tmp_path / "spool"), total_memory=100, job_workers=1,
            on_finish=finished.append,
        )
        running = scheduler.submit(
            JobSpec(op="sort", input=str(tmp_path / "in.txt"), memory=10)
        )
        _wait_status(scheduler, running.job_id, "running")
        queued = scheduler.submit(JobSpec(
            op="sort", input=str(tmp_path / "in.txt"), memory=10, fan_in=4
        ))
        scheduler.shutdown()
        assert scheduler.status(running.job_id)["status"] == "cancelled"
        assert scheduler.status(queued.job_id)["status"] == "cancelled"
        assert sorted(finished) == sorted([running.job_id, queued.job_id])
        # Published like any terminal status: a restart reloads it.
        reloaded = JobScheduler(str(tmp_path / "spool"), total_memory=100)
        try:
            assert reloaded.status(queued.job_id)["status"] == "cancelled"
        finally:
            reloaded.shutdown()

    def test_failing_finish_hook_does_not_stop_finish(
        self, tmp_path, capsys
    ):
        def broken_hook(job_id):
            raise RuntimeError(f"hook broke on {job_id}")

        _write_input(tmp_path / "in.txt", 50)
        scheduler = JobScheduler(
            str(tmp_path / "spool"), total_memory=1000, job_workers=1,
            on_finish=broken_hook,
        )
        returned = []
        finish = scheduler._finish

        def observed_finish(state, status):
            finish(state, status)
            returned.append(status)

        scheduler._finish = observed_finish
        try:
            for fan_in in (4, 5):
                job_id = scheduler.submit(JobSpec(
                    op="sort", input=str(tmp_path / "in.txt"), memory=64,
                    fan_in=fan_in,
                )).job_id
                payload = _wait_scheduler(scheduler, job_id)
                assert payload["status"] == "done"
        finally:
            scheduler.shutdown()
        assert returned == ["done", "done"]
        err = capsys.readouterr().err
        assert err.count("RuntimeError: hook broke on") == 2


# ---------------------------------------------------------------------------
# in-process server
# ---------------------------------------------------------------------------


def _start_service(tmp_path):
    """A real server on an asyncio loop in a daemon thread."""
    service = SortService(
        str(tmp_path / "spool"), total_memory=2000, job_workers=4
    )
    endpoint = tmp_path / "endpoint.json"

    def serve():
        asyncio.run(service.run(endpoint_file=str(endpoint)))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = ServiceClient(read_endpoint(str(endpoint), timeout=30.0))
    return service, thread, client


@pytest.fixture()
def live_service(tmp_path):
    service, thread, client = _start_service(tmp_path)
    yield service, client, tmp_path
    try:
        client.shutdown()
    except (ConnectionError, OSError):
        pass
    thread.join(timeout=30.0)
    assert not thread.is_alive()


@pytest.fixture()
def live_server(live_service):
    _, client, tmp_path = live_service
    yield client, tmp_path


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
        rows = tmp_path / "rows.csv"
        rows.write_text("b,2\na,9\nc,1\na,3\n")
        # k within memory takes the heap scan over tuple rows; k above
        # it sorts key-byte rows.  Both must give the same bytes.
        for memory in (64, 2):
            cases.append((
                {"op": "topk", "input": str(rows), "format": "csv",
                 "key": 0, "k": 3, "memory": memory},
                "a,3\na,9\nb,2\n",
            ))
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
                             ("spill_codec", "auto"),
                             ("algorithm", "bogus"), ("format", "bogus")]:
            with pytest.raises(ServiceError, match="bogus|front|auto"):
                client.submit({"op": "sort", "input": str(path),
                               field: value})
        assert os.listdir(tmp_path / "spool" / "jobs") == []
        payload = client.wait(client.submit(
            {"op": "sort", "input": str(path)}
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


class TestWait:
    """The server-side ``wait``: completion is pushed, not polled."""

    def _gated_job(self, service, client, tmp_path, monkeypatch):
        from repro.service import scheduler as scheduler_module

        gate = threading.Event()
        monkeypatch.setattr(scheduler_module, "run_job", _gated_run_job(gate))
        _write_input(tmp_path / "in.txt", 10)
        job_id = client.submit(
            {"op": "sort", "input": str(tmp_path / "in.txt"), "memory": 10}
        )["id"]
        _wait_status(service.scheduler, job_id, "running")
        return job_id, gate

    def _raw(self, client):
        from repro.service.protocol import recv_message, send_message

        sock = client._connect()

        def ask(payload):
            send_message(sock, payload)
            return recv_message(sock)

        return sock, ask

    def test_completion_wakes_a_parked_wait(
        self, live_service, monkeypatch
    ):
        service, client, tmp_path = live_service
        job_id, gate = self._gated_job(service, client, tmp_path, monkeypatch)
        outcome = {}

        def waiter():
            outcome["payload"] = client.wait(job_id, timeout=60.0)
            outcome["woke"] = time.monotonic()

        thread = threading.Thread(target=waiter)
        thread.start()
        _wait_until(lambda: job_id in service._waiters, "a parked wait")
        released = time.monotonic()
        gate.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["payload"]["status"] == "done"
        assert outcome["payload"] == client.status(job_id)
        # Pushed, not found at the end of a 10 s window.
        assert outcome["woke"] - released < 2.0

    def test_timeout_on_a_running_job_raises(
        self, live_service, monkeypatch
    ):
        service, client, tmp_path = live_service
        job_id, gate = self._gated_job(service, client, tmp_path, monkeypatch)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="still 'running'"):
            client.wait(job_id, timeout=0.3)
        assert time.monotonic() - started < 1.5
        gate.set()

    def test_job_outlasting_a_server_window_returns_done(
        self, live_service, monkeypatch
    ):
        from repro.service import scheduler as scheduler_module
        from repro.service import server as server_module
        from repro.service.runner import JobOutcome

        service, client, tmp_path = live_service
        monkeypatch.setattr(server_module, "WAIT_CAP_S", 0.2)

        def one_second_job(spec, *, memory, work_dir, result_path,
                           cancel=None, job_id=""):
            if cancel.wait(1.0):
                raise JobCancelled(f"job {job_id} cancelled")
            return JobOutcome(records_out=0)

        monkeypatch.setattr(scheduler_module, "run_job", one_second_job)
        _write_input(tmp_path / "in.txt", 10)
        requests = []
        request = client._request

        def counted(payload):
            requests.append(payload["cmd"])
            return request(payload)

        monkeypatch.setattr(client, "_request", counted)
        job_id = client.submit(
            {"op": "sort", "input": str(tmp_path / "in.txt"), "memory": 10}
        )["id"]
        payload = client.wait(job_id, timeout=30.0)
        assert payload["status"] == "done"
        assert requests.count("wait") >= 3
        assert "status" not in requests

    def test_hostile_wait_frames_keep_the_connection_usable(
        self, live_service, monkeypatch
    ):
        from repro.service import server as server_module

        service, client, tmp_path = live_service
        job_id, gate = self._gated_job(service, client, tmp_path, monkeypatch)
        monkeypatch.setattr(server_module, "WAIT_CAP_S", 0.2)
        sock, ask = self._raw(client)
        with sock:
            for frame in ({"cmd": "wait"},
                          {"cmd": "wait", "id": "no-such-job"},
                          {"cmd": "wait", "id": ["not", "an", "id"]}):
                reply = ask(frame)
                assert reply["ok"] is False
                assert "unknown job id" in reply["error"]
            for timeout in ("5", True, None, [1], -1, float("nan")):
                reply = ask({"cmd": "wait", "id": job_id,
                             "timeout": timeout})
                assert reply["ok"] is False, timeout
                assert "wait timeout" in reply["error"]
            # Infinite and huge windows are clamped to the server cap.
            for timeout in (float("inf"), 1e308, 10 ** 30):
                started = time.monotonic()
                reply = ask({"cmd": "wait", "id": job_id,
                             "timeout": timeout})
                assert reply["ok"] is True
                assert reply["status"] == "running"
                assert time.monotonic() - started < 2.0
            assert ask({"cmd": "ping"})["ok"] is True
        # An integer literal too long for int() is refused as an
        # undecodable frame, not a dropped connection.
        from repro.service.protocol import recv_message

        body = (b'{"cmd": "wait", "id": "%s", "timeout": %s}'
                % (job_id.encode(), b"1" * 5000))
        with client._connect() as sock:
            sock.sendall(len(body).to_bytes(4, "big") + body)
            reply = recv_message(sock)
        assert reply["ok"] is False
        assert "undecodable message body" in reply["error"]
        assert client.ping()["ok"] is True
        gate.set()
        assert client.wait(job_id, timeout=30.0)["status"] == "done"

    def test_client_gone_mid_wait_leaves_no_waiter(
        self, live_service, monkeypatch
    ):
        service, client, tmp_path = live_service
        job_id, gate = self._gated_job(service, client, tmp_path, monkeypatch)
        sock, ask = self._raw(client)
        with sock:
            from repro.service.protocol import send_message

            send_message(sock, {"cmd": "wait", "id": job_id})
            _wait_until(lambda: job_id in service._waiters, "a parked wait")
        gate.set()
        assert client.wait(job_id, timeout=30.0)["status"] == "done"
        _wait_until(lambda: not service._waiters, "the waiter to leave")
        assert client.ping()["ok"] is True

    def test_failing_completion_hook_keeps_the_server_answering(
        self, live_service, monkeypatch, capsys
    ):
        from repro.service import server as server_module

        service, client, tmp_path = live_service
        monkeypatch.setattr(server_module, "WAIT_CAP_S", 0.2)

        def broken_hook(job_id):
            raise RuntimeError(f"hook broke on {job_id}")

        monkeypatch.setattr(service.scheduler, "_on_finish", broken_hook)
        _write_input(tmp_path / "in.txt", 50)
        job_id = client.submit(
            {"op": "sort", "input": str(tmp_path / "in.txt"), "memory": 64}
        )["id"]
        # No push arrives, so the wait ends with a window's re-read.
        assert client.wait(job_id, timeout=30.0)["status"] == "done"
        assert client.ping()["ok"] is True
        assert f"hook broke on {job_id}" in capsys.readouterr().err

    def test_submit_wait_cli_prints_the_status_payload(
        self, live_service, capsys
    ):
        from repro.cli import main

        service, client, tmp_path = live_service
        _write_input(tmp_path / "in.txt", 300)
        capsys.readouterr()
        code = main(["submit", "--endpoint-file",
                     str(tmp_path / "endpoint.json"), "--memory", "64",
                     "--wait", str(tmp_path / "in.txt")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "done"
        assert printed == client.status(printed["id"])

    def test_shutdown_answers_a_pending_wait(self, tmp_path):
        """A parked ``wait`` must neither hold the listener open nor
        keep its job running: shutdown cancels and answers it."""
        from repro.service.client import ServiceError

        service, serving, client = _start_service(tmp_path)
        waiter = None
        try:
            _write_input(tmp_path / "big.txt", 600_000, stride=31)
            job_id = client.submit(
                {"op": "sort", "input": str(tmp_path / "big.txt"),
                 "memory": 300}
            )["id"]
            _wait_status(service.scheduler, job_id, "running")
            outcome = {}

            def wait_for_job():
                try:
                    outcome["payload"] = client.wait(job_id, timeout=60.0)
                except (ConnectionError, ServiceError) as exc:
                    outcome["error"] = exc

            waiter = threading.Thread(target=wait_for_job)
            waiter.start()
            _wait_until(lambda: job_id in service._waiters, "a parked wait")
            started = time.monotonic()
            client.shutdown()
            serving.join(timeout=2.0)
            assert not serving.is_alive()
            assert time.monotonic() - started < 2.0
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert outcome, "the waiter neither returned nor raised"
            if "payload" in outcome:
                assert outcome["payload"]["status"] == "cancelled"
        finally:
            if serving.is_alive():
                service.scheduler.shutdown()
            if waiter is not None:
                waiter.join(timeout=30.0)


# ---------------------------------------------------------------------------
# subprocess server: crash, re-attach, fault injection
# ---------------------------------------------------------------------------


def _cli_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return env


def _spawn_server(tmp_path, *extra_args, env_extra=None, endpoint="ep.json",
                  **popen_args):
    endpoint_path = tmp_path / endpoint
    if endpoint_path.exists():
        endpoint_path.unlink()  # never read a dead server's address
    env = _cli_env(env_extra)
    log = open(tmp_path / "serve.log", "ab")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spool", str(tmp_path / "spool"),
            "--endpoint-file", str(endpoint_path),
            "--memory", "2000",
        ]
        + list(extra_args),
        stdout=log, stderr=log, env=env, **popen_args,
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


@pytest.mark.skipif(GNU_SORT is None, reason="GNU sort not installed")
class TestInterrupt:
    def test_sigint_cancels_running_jobs_then_reattach_matches_sort(
        self, tmp_path
    ):
        # A sort of several seconds at this memory, so a server that
        # waited for it would miss the 2 s exit bound by far.
        _write_input(tmp_path / "in.txt", 600_000, stride=7919)
        job = {"op": "sort", "input": str(tmp_path / "in.txt"), "memory": 2000}
        # SIGINT at its default disposition, so the child installs
        # Python's KeyboardInterrupt handler even when this test runs
        # in a background job that ignores SIGINT.
        process, client = _spawn_server(
            tmp_path,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            job_id = client.submit(job)["id"]
            _wait_until(
                lambda: client.status(job_id)["status"] == "running",
                "the job to run", timeout=30.0,
            )
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=2.0) == 130
        except BaseException:
            process.kill()
            raise
        process, client = _spawn_server(tmp_path)
        try:
            assert client.status(job_id)["status"] != "done"
            out = tmp_path / "out.txt"
            for argv in (
                ["submit", "--id", job_id, "--wait"],
                ["result", job_id, "-o", str(out)],
            ):
                subprocess.run(
                    [sys.executable, "-m", "repro.cli", *argv,
                     "--endpoint-file", str(tmp_path / "ep.json")],
                    check=True, timeout=120.0, stdout=subprocess.DEVNULL,
                    env=_cli_env(),
                )
            client.shutdown()
            process.wait(timeout=30.0)
        except BaseException:
            process.kill()
            raise
        expected = subprocess.run(
            [GNU_SORT, "-n", str(tmp_path / "in.txt")],
            check=True, capture_output=True,
            env=dict(os.environ, LC_ALL="C"),
        ).stdout
        assert out.read_bytes() == expected


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
