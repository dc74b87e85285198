"""Stream-level golden for the 2WRS configuration the CLI runs.

``tests/golden/two_way_streams.json`` crosses every configuration at
memory 100 with a 0.2 buffer fraction.  This fixture pins the one
configuration ``repro sort`` uses by default, :data:`RECOMMENDED`
(both buffers, 2 % of memory, Mean input, Random output), at a memory
where each buffer holds 20 records: the six paper distributions at
20k records, a float case mixing ``-0.0`` and ``0.0`` keys, and a str
case, whose keys have no mean.  For each case it pins the run lengths,
the analytic ``stats.cpu_ops``, a sha256 over the four streams of every
run and how often the input buffer computed its mean and median.

To update the fixture intentionally after a deliberate behaviour
change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_two_way_default_golden.py
"""

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from repro.core.config import RECOMMENDED
from repro.core.two_way import TwoWayReplacementSelection
from repro.workloads.generators import DISTRIBUTIONS, make_input

GOLDEN_PATH = Path(__file__).parent / "golden" / "two_way_default.json"

RECORDS = 20_000
#: 2 % of 2000 records is 40, so each buffer holds 20.
MEMORY = 2_000


def _float_keys():
    """Floats with signed zeros mixed into a noisy sawtooth."""
    rng = random.Random(7)
    values = []
    for i in range(RECORDS):
        roll = rng.random()
        if roll < 0.05:
            values.append(-0.0)
        elif roll < 0.10:
            values.append(0.0)
        else:
            values.append((i % 3000) * 0.5 - 700.0 + rng.random() * 40)
    return values


def _str_keys():
    rng = random.Random(9)
    return [
        "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 6)))
        for _ in range(RECORDS)
    ]


def _inputs():
    cases = {
        name: list(make_input(name, RECORDS, seed=11))
        for name in sorted(DISTRIBUTIONS)
    }
    cases["floats"] = _float_keys()
    cases["str"] = _str_keys()
    return cases


def _digest(records):
    algo = TwoWayReplacementSelection(MEMORY, RECOMMENDED)
    sha = hashlib.sha256()
    lengths = []
    for streams in algo.generate_run_streams(records):
        lengths.append(len(streams))
        for stream in (
            streams.stream1,
            streams.stream2,
            streams.stream3,
            streams.stream4,
        ):
            sha.update(repr(stream).encode("ascii"))
            sha.update(b"|")
        sha.update(b"\n")
    buffer = algo.last_input_buffer
    return {
        "run_lengths": lengths,
        "cpu_ops": algo.stats.cpu_ops,
        "sha256": sha.hexdigest(),
        "mean_computations": buffer.mean_computations,
        "median_computations": buffer.median_computations,
    }


CASES = sorted([*DISTRIBUTIONS, "floats", "str"])


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        # One line per case keeps the fixture diffable.
        lines = [
            f"{json.dumps(name)}: {json.dumps(_digest(records), sort_keys=True)}"
            for name, records in sorted(_inputs().items())
        ]
        GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    assert GOLDEN_PATH.exists(), (
        f"missing fixture {GOLDEN_PATH}; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"python -m pytest tests/test_two_way_default_golden.py"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == CASES


@pytest.mark.parametrize("name", CASES)
def test_default_streams_match_golden(golden, inputs, name):
    assert _digest(inputs[name]) == golden[name]
