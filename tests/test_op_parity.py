"""The CLI and a service job run one op pipeline (DESIGN.md §16).

For every op x format, ``repro OP --work-dir`` (durable, as every job
is) and ``run_job`` on the same input and description must write the
same bytes and report the same figures; only wall times may differ.
"""

import random

import pytest

import repro.cli as cli
from repro.engine.job import OpRun
from repro.ops.base import report_as_dict
from repro.service.jobs import JobSpec
from repro.service.runner import run_job

MEMORY = 64
RECORDS = 600

#: op -> (extra CLI options, extra JobSpec fields), per format family.
OP_ARGS = {
    "sort": ([], {}),
    "distinct": ([], {}),
    "topk": (["-k", "100"], {"k": 100}),
    "join": ([], {}),
}


def _lines(fmt, seed):
    rng = random.Random(seed)
    if fmt == "int":
        return [str(rng.randrange(-500, 500)) for _ in range(RECORDS)]
    if fmt == "str":
        return [f"w{rng.randrange(300):03d}" for _ in range(RECORDS)]
    return [f"k{rng.randrange(200):03d},{rng.randrange(100)}"
            for _ in range(RECORDS)]


def _op_args(op, fmt):
    if op != "agg":
        return OP_ARGS[op]
    if fmt == "csv":
        return (["--value", "1", "--agg", "count,sum,max"],
                {"value": 1, "aggregates": ("count", "sum", "max")})
    return ([], {})


def _without_wall_times(report):
    return {name: value for name, value in report.items()
            if not name.endswith("_wall_s")}


@pytest.mark.parametrize("fmt", ["int", "str", "csv"])
@pytest.mark.parametrize("op", ["sort", "distinct", "agg", "topk", "join"])
def test_cli_and_service_agree(tmp_path, monkeypatch, capsys, op, fmt):
    left = tmp_path / "left.txt"
    left.write_text("".join(line + "\n" for line in _lines(fmt, 1)))
    right = tmp_path / "right.txt"
    right.write_text("".join(line + "\n" for line in _lines(fmt, 2)))
    inputs = [str(left), str(right)] if op == "join" else [str(left)]
    cli_args, spec_fields = _op_args(op, fmt)
    key_args = ["--key", "0"] if fmt == "csv" else []

    built = []

    class RecordingOpRun(OpRun):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "OpRun", RecordingOpRun)
    cli_out = tmp_path / "cli.out"
    assert cli.main(
        [op, "--memory", str(MEMORY), "--format", fmt, *key_args, *cli_args,
         "--work-dir", str(tmp_path / "cli-work"), *inputs,
         "-o", str(cli_out)]
    ) == 0
    capsys.readouterr()

    spec = JobSpec(
        op=op, input=str(left),
        right_input=str(right) if op == "join" else None,
        fmt=fmt, key=0 if fmt == "csv" else None, memory=MEMORY,
        **spec_fields,
    )
    spec.validate()
    job_out = tmp_path / "job.out"
    outcome = run_job(
        spec, memory=MEMORY, work_dir=str(tmp_path / "job-work"),
        result_path=str(job_out),
    )

    assert cli_out.read_bytes()
    assert job_out.read_bytes() == cli_out.read_bytes()
    (job,) = built
    assert _without_wall_times(outcome.report) == _without_wall_times(
        report_as_dict(job.report)
    )
    assert outcome.records_out == len(cli_out.read_text().splitlines())
