"""Run-level equivalence golden for RS, BRS and the top-k heap scan.

RS and batched RS run over the six paper distributions and over a float
case whose equal keys are spelled differently (``-0.0``/``0.0``,
``1e3``/``1000``/``1000.0``); top-k runs in heap mode over the float
case.  For each case the fixture pins the run lengths, the analytic
``cpu_ops`` and a sha256 of every run's rendered records, so a change to
the heap code that alters which of two equal keys pops first, any run
boundary or any charged operation shows up here.

To update the fixture intentionally after a deliberate behaviour
change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_heap_golden.py
"""

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from repro.core.config import GeneratorSpec
from repro.core.records import FLOAT, INT
from repro.engine.planner import SortEngine
from repro.ops.topk import TopK
from repro.runs.batched import BatchedReplacementSelection
from repro.runs.replacement_selection import ReplacementSelection
from repro.workloads.generators import DISTRIBUTIONS, make_input

GOLDEN_PATH = Path(__file__).parent / "golden" / "heap_runs.json"

RECORDS = 1_000
MEMORY = 100

GENERATORS = {
    "RS": lambda: ReplacementSelection(MEMORY),
    "BRS/4": lambda: BatchedReplacementSelection(MEMORY, minirun_length=4),
    "BRS/16": lambda: BatchedReplacementSelection(MEMORY, minirun_length=16),
}
TOPK_KS = (10, 90)

#: Equal values, different bytes: the order a heap releases them in
#: shows in the rendered output.
SPELLINGS = ("-0.0", "0.0", "0", "1e3", "1000", "1000.0")


def _float_keys():
    """Spelling-variant floats mixed into a noisy sawtooth."""
    rng = random.Random(5)
    lines = []
    for i in range(RECORDS):
        if rng.random() < 0.3:
            lines.append(rng.choice(SPELLINGS))
        else:
            lines.append(repr((i % 150) * 8.0 - 100.0 + rng.randint(0, 400)))
    return [FLOAT.decode(line) for line in lines]


def _inputs():
    cases = {
        name: (INT, list(make_input(name, RECORDS, seed=11)))
        for name in sorted(DISTRIBUTIONS)
    }
    cases["floats"] = (FLOAT, _float_keys())
    return cases


def _run_digest(fmt, run):
    return hashlib.sha256(fmt.encode_block(run).encode("ascii")).hexdigest()


def _generator_case(make, fmt, records):
    algo = make()
    runs = list(algo.generate_runs(records))
    return {
        "run_lengths": [len(run) for run in runs],
        "cpu_ops": algo.stats.cpu_ops,
        "sha256": [_run_digest(fmt, run) for run in runs],
    }


def _topk_case(k):
    engine = SortEngine(GeneratorSpec("lss", MEMORY), record_format=FLOAT)
    op = TopK(engine, k)
    out = list(op.run(_float_keys()))
    assert op.plan.mode == "heap"
    return {
        "rows_out": len(out),
        "cpu_ops": op.report.run_phase.cpu_ops,
        "sha256": _run_digest(FLOAT, out),
    }


def _cases():
    got = {}
    for name, (fmt, records) in _inputs().items():
        for algo, make in GENERATORS.items():
            got[f"{algo}/{name}"] = _generator_case(make, fmt, list(records))
    for k in TOPK_KS:
        got[f"topk/{k}/floats"] = _topk_case(k)
    return got


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        # One line per case keeps the fixture diffable.
        lines = sorted(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in _cases().items()
        )
        GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    assert GOLDEN_PATH.exists(), (
        f"missing fixture {GOLDEN_PATH}; regenerate with "
        f"REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_heap_golden.py"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_fixture_covers_every_case(golden, cases):
    assert sorted(golden) == sorted(cases)


@pytest.mark.parametrize("algo", [*GENERATORS, "topk"])
def test_runs_match_golden(golden, cases, algo):
    prefix = algo + "/"
    want = {key: value for key, value in golden.items() if key.startswith(prefix)}
    got = {key: value for key, value in cases.items() if key.startswith(prefix)}
    assert want and got == want


def test_float_case_has_equal_keys_spelled_apart():
    """The float case only guards tie order if equal values differ in bytes."""
    keys = _float_keys()
    for spelling in SPELLINGS:
        assert sum(FLOAT.encode(key) == spelling for key in keys) > 10
