"""Stream-level equivalence golden for 2WRS run generation.

Every (input heuristic x output heuristic x buffer setup) combination
runs over the six paper distributions at a small size; for each case
the fixture pins the run lengths, the analytic ``stats.cpu_ops`` and a
sha256 over the four streams of every run (``generate_run_streams``).
A change to the heap layout, the heuristics' plumbing or the cost
accounting that alters any routing decision, any stream or any charged
operation shows up here.  A float case mixing ``-0.0`` and ``0.0`` keys
pins how the heap order breaks ties between equal keys.

To update the fixture intentionally after a deliberate behaviour
change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_two_way_golden.py
"""

import hashlib
import itertools
import json
import os
import random
from pathlib import Path

import pytest

from repro.core.config import BUFFER_SETUPS, TwoWayConfig
from repro.core.heuristics import INPUT_HEURISTICS, OUTPUT_HEURISTICS
from repro.core.two_way import TwoWayReplacementSelection
from repro.workloads.generators import DISTRIBUTIONS, make_input

GOLDEN_PATH = Path(__file__).parent / "golden" / "two_way_streams.json"

RECORDS = 1_000
MEMORY = 100
#: Table 5.1's largest buffer level, so both buffers hold tens of records.
BUFFER_FRACTION = 0.2

COMBINATIONS = list(
    itertools.product(
        sorted(INPUT_HEURISTICS), sorted(OUTPUT_HEURISTICS), BUFFER_SETUPS
    )
)


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
            values.append((i % 200) * 0.5 - 50.0 + rng.random())
    return values


def _digest(config, records):
    algo = TwoWayReplacementSelection(MEMORY, config)
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
    return {
        "run_lengths": lengths,
        "cpu_ops": algo.stats.cpu_ops,
        "sha256": sha.hexdigest(),
    }


def _case(input_h, output_h, setup):
    config = TwoWayConfig(
        buffer_setup=setup,
        buffer_fraction=BUFFER_FRACTION,
        input_heuristic=input_h,
        output_heuristic=output_h,
        seed=3,
    )
    got = {
        name: _digest(config, make_input(name, RECORDS, seed=11))
        for name in sorted(DISTRIBUTIONS)
    }
    got["floats"] = _digest(config, _float_keys())
    return got


def _key(input_h, output_h, setup):
    return f"{input_h}/{output_h}/{setup}"


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        # One line per combination keeps the fixture diffable.
        lines = sorted(
            f"{json.dumps(_key(*combo))}: "
            f"{json.dumps(_case(*combo), sort_keys=True)}"
            for combo in COMBINATIONS
        )
        GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    assert GOLDEN_PATH.exists(), (
        f"missing fixture {GOLDEN_PATH}; regenerate with "
        f"REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_two_way_golden.py"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_combination(golden):
    assert sorted(golden) == sorted(_key(*combo) for combo in COMBINATIONS)
    for cases in golden.values():
        assert sorted(cases) == sorted([*DISTRIBUTIONS, "floats"])


@pytest.mark.parametrize(
    "input_h,output_h,setup", COMBINATIONS, ids=[_key(*c) for c in COMBINATIONS]
)
def test_streams_match_golden(golden, input_h, output_h, setup):
    assert _case(input_h, output_h, setup) == golden[_key(input_h, output_h, setup)]
