"""``sort-random`` and ``sort-mixed``: ``repro sort`` as a CLI child.

Default flags throughout (2WRS, memory 10000, fan-in 10, text spills,
codec ``none``).  The input is generated from the seed before any
timing; the output of every sort is checked against the sha256 of
``sorted()`` over the same values.  Each CLI process runs under
``cli_child.py --speed``, pinned to one CPU beside a reference-clock
sampler, and its wall time is reported at the reference speed
(:mod:`refclock`).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR,
    TRACE_DIR,
    Child,
    full_layer_metrics,
    int_lines,
    make_workdir,
    median,
    repetitions,
    sha256_file,
    sha256_text,
    sort_layer_metrics,
    write_lines,
)
from refclock import speed_factor

#: workload -> (distribution, records, records in small mode, nominal
#: seconds per sort).
SORT_WORKLOADS = {
    # Random input: 2WRS runs are ~1.8x memory, so 11 runs exceed the
    # fan-in of 10 and one intermediate merge pass happens.
    "sort-random": ("random", 200_000, 12_000, 8.5),
    # The paper's case: two runs of ~50x memory, one trivial merge.
    "sort-mixed": ("mixed_balanced", 1_000_000, 40_000, 6.0),
}

#: CLI runs on an empty input before each sort, and at the end of the
#: run; setup_s is their median.
SETUP_PER_SORT = 2
SETUP_AT_END = 3
#: Untraced/traced sort pairs of a traced run (the wall of a single
#: sort varies by several percent on a shared machine).
TRACE_PAIRS = 2


def _prepare(work: str, workload: str, seed: int, small: bool) -> Dict[str, Any]:
    from repro.workloads.generators import make_input

    dist, records, small_records, _ = SORT_WORKLOADS[workload]
    n = small_records if small else records
    values = list(make_input(dist, n, seed=seed))
    path = os.path.join(work, "input.txt")
    write_lines(path, int_lines(values))
    empty = os.path.join(work, "empty.txt")
    write_lines(empty, [])
    oracle = sha256_text("".join(int_lines(sorted(values))))
    return {"input": path, "empty": empty, "records": n, "oracle": oracle,
            "output": os.path.join(work, "output.txt"), "work": work}


class _Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


def _cli(case: Dict[str, Any], input_path: str, output: str,
         trace_prefix: Optional[str] = None) -> Dict[str, float]:
    """One ``repro sort`` process under ``cli_child.py --speed``:
    exit code, wall, wall at the reference speed, peak RSS."""
    speed = os.path.join(case["work"], "speed.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"),
            "--speed", speed]
    if trace_prefix is not None:
        argv += ["--trace", trace_prefix]
    argv += ["--", "sort", input_path, "-o", output]
    code, wall, rss = Child(argv).wait()
    factor = 0.0
    if code == 0:
        with open(speed, encoding="utf-8") as handle:
            samples = json.load(handle)["ref_samples"]
            factor = speed_factor([duration for _, duration in samples])
    return {"code": code, "wall": wall, "scaled": wall * factor, "rss": rss}


def _setup_times(case: Dict[str, Any], tally: _Tally, count: int) -> List[float]:
    out = case["output"] + ".empty"
    walls = []
    for _ in range(count):
        done = _cli(case, case["empty"], out)
        tally.check(done["code"] == 0 and os.path.getsize(out) == 0)
        walls.append(done["scaled"])
    return walls


def _sort_once(case: Dict[str, Any], tally: _Tally,
               trace_prefix: Optional[str] = None) -> Dict[str, float]:
    done = _cli(case, case["input"], case["output"], trace_prefix)
    tally.check(done["code"] == 0
                and sha256_file(case["output"]) == case["oracle"])
    return done


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool) -> Dict[str, Any]:
    work = make_workdir(workload)
    case = _prepare(work, workload, seed, small)
    tally = _Tally()
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        prefix = os.path.join(TRACE_DIR, f"{workload}-seed{seed}")
        untraced, traced = [], []
        for _ in range(TRACE_PAIRS):
            untraced.append(_sort_once(case, tally)["scaled"])
            traced.append(_sort_once(case, tally, prefix)["scaled"])
        with open(prefix + ".json", encoding="utf-8") as handle:
            summary = json.load(handle)
        values = sort_layer_metrics(summary)
        values["trace.overhead_frac"] = median(traced) / median(untraced) - 1
        values["trace.unattributed_frac"] = (
            summary["root_self_s"] / summary["root_s"]
        )
        metrics = full_layer_metrics(values)
    else:
        setup: List[float] = []

        def sample() -> Dict[str, float]:
            setup.extend(_setup_times(case, tally, SETUP_PER_SORT))
            return _sort_once(case, tally)

        count = repetitions(seconds, SORT_WORKLOADS[workload][3])
        samples = [sample() for _ in range(count)]
        setup.extend(_setup_times(case, tally, SETUP_AT_END))
        scaled = [s["scaled"] for s in samples]
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "throughput_per_s": {
                "value": case["records"] * len(scaled) / sum(scaled),
                "unit": "1/s",
            },
            "latency_ms": {"value": median(scaled) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": max(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": median([s["rss"] for s in samples]), "unit": "MB",
            },
        }
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "work": work}
