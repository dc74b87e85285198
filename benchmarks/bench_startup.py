"""Start-up cost of ``repro sort``, one or more source trees.

Times whole ``python -m repro.cli sort IN -o OUT`` processes on two
inputs: an empty file and a 10-line file.  At that size the sort itself
is nothing, so the wall time is the interpreter start plus what the
package imports and sets up.  ``python -c pass`` is timed alongside as
the floor no CLI can go below.  Given several trees (``--tree
NAME=SRC_DIR``, repeatable), the processes alternate between them, in
reversed order on every other repeat, so a machine that drifts slows
each tree alike.  Every sort's output is checked; the script exits 1
when one is wrong.

``BENCH_startup.json`` records, per case and tree, the median and
interquartile range of the wall milliseconds over ``--repeats``
processes, with the raw values.

The script also checks the import layering of DESIGN.md §2 (the
``layering`` block of the output): it runs ``repro sort``, ``repro
store get`` and ``repro submit`` once per tree in a child that reports
``sys.modules`` when ``main`` returns.  A tree fails it when a command
loaded a module on its deny-list, or when ``main`` of a ``sort``
imported a ``repro`` module that ``import repro.cli`` had not.  The
timing run records the verdicts, so an older tree may fail; ``--smoke``
exits 1 on any failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_startup.py
    PYTHONPATH=src python benchmarks/bench_startup.py \\
        --tree parent=../parent/src --tree change=src

    PYTHONPATH=src python benchmarks/bench_startup.py --smoke

``--smoke`` runs the layering check and three repeats, and writes to a
temporary file unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "BENCH_startup.json"

#: Modules that only the paper experiments, the simulator, the
#: partitioned sort or the linter use: no everyday command loads them.
#: A name covers its submodules.
NEVER_LOADED = (
    "repro.iosim",
    "repro.experiments",
    "repro.stats",
    "repro.model",
    "repro.lint",
    "repro.workloads",
    "repro.merge.reading",
    "repro.merge.merge_tree",
    "repro.merge.polyphase",
    "repro.sort.external",
    "repro.sort.memory_broker",
    "multiprocessing.managers",
)

#: Command -> the modules it must not load besides :data:`NEVER_LOADED`.
DENY_LISTS: Dict[str, Tuple[str, ...]] = {
    "sort": ("repro.store", "repro.service", "repro.ops"),
    "store get": ("repro.service", "repro.ops"),
    "submit": (
        "asyncio",
        "repro.store",
        "repro.service.server",
        "repro.service.scheduler",
        "repro.service.runner",
        "repro.ops.aggregate",
        "repro.ops.distinct",
        "repro.ops.join",
        "repro.ops.topk",
    ),
}

#: Runs ``repro.cli.main(argv[2:])`` and writes, to ``argv[1]``, the
#: exit code, every loaded module, and the modules that ``main`` added
#: to those ``import repro.cli`` loaded.
LAYERING_CHILD = r"""
import json, sys
import repro.cli

before = set(sys.modules)
try:
    code = repro.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as out:
    json.dump({"code": code, "modules": sorted(sys.modules),
               "added": sorted(set(sys.modules) - before)}, out)
"""


def denied(modules: Sequence[str], deny: Sequence[str]) -> List[str]:
    """The loaded modules that are, or lie under, a name in ``deny``."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".")
               for name in deny)
    )


def run_cli_child(src: str, argv: Sequence[str], scratch: str) -> Dict:
    """``repro.cli.main(argv)`` in a fresh interpreter importing ``src``."""
    report = os.path.join(scratch, "modules.json")
    subprocess.run(
        [sys.executable, "-c", LAYERING_CHILD, report, *argv],
        env=dict(os.environ, PYTHONPATH=src), cwd=scratch,
        capture_output=True, text=True, check=False, timeout=120,
    )
    with open(report, encoding="utf-8") as handle:
        return json.load(handle)


def layering_commands(scratch: str) -> Dict[str, List[str]]:
    """The argv of each checked command, with its inputs under ``scratch``.

    ``store get`` reads a store that one ``store put`` creates first;
    ``submit`` targets a port where no server listens, which fails
    after the client is loaded.
    """
    path = os.path.join(scratch, "tiny.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("3\n1\n2\n")
    return {
        "sort": ["sort", path, "-o", os.path.join(scratch, "tiny.out")],
        "store get": ["store", "get", os.path.join(scratch, "db"), "k"],
        "submit": ["submit", "--server", "127.0.0.1:9", path],
    }


def check_layering(src: str) -> Dict[str, Dict]:
    """Per command: its deny-listed modules loaded, and for ``sort``
    the ``repro`` modules ``main`` imported.  Empty lists pass."""
    results: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as scratch:
        commands = layering_commands(scratch)
        run_cli_child(src, ["store", "put", os.path.join(scratch, "db"),
                            "k", "v"], scratch)
        for command, argv in commands.items():
            report = run_cli_child(src, argv, scratch)
            row = {"denied_loaded": denied(
                report["modules"], NEVER_LOADED + DENY_LISTS[command])}
            if command == "sort":
                row["imported_by_main"] = denied(report["added"], ("repro",))
            results[command] = row
    return results


def layering_ok(results: Dict[str, Dict]) -> bool:
    return all(not any(row.values()) for row in results.values())


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def time_process(argv: Sequence[str], env: Dict[str, str]) -> Tuple[float, int]:
    """Wall milliseconds and exit code of one child process."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False)
    return (time.perf_counter() - start) * 1e3, done.returncode


def summarise(values: List[float]) -> Dict:
    q1, q2, q3 = quartiles(values)
    return {"median_ms": round(q2, 2), "iqr_ms": [round(q1, 2), round(q3, 2)],
            "runs_ms": [round(v, 2) for v in values]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC_DIR",
                        help="a source tree to import repro from "
                             "(repeatable; default current=<repo>/src)")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="layering check and three repeats, "
                             "temporary output file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    trees: Dict[str, str] = {}
    for spec in args.tree or [f"current={REPO / 'src'}"]:
        name, sep, src = spec.partition("=")
        if not sep or not name or not src:
            parser.error(f"--tree wants NAME=SRC_DIR, got {spec!r}")
        trees[name] = str(Path(src).resolve())
    if args.smoke:
        args.repeats = 3
    output = args.output
    if output is None:
        if args.smoke:
            fd, name = tempfile.mkstemp(prefix="bench-startup-", suffix=".json")
            os.close(fd)
            output = Path(name)
        else:
            output = DEFAULT_OUTPUT

    layering = {name: check_layering(src) for name, src in trees.items()}
    for name, results in layering.items():
        verdict = "ok" if layering_ok(results) else f"FAILED {results}"
        print(f"layering {name}: {verdict}", flush=True)

    correct = True
    samples: Dict[str, Dict[str, List[float]]] = {}
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as scratch:
        inputs = {"empty": [], "ten_lines": [str(v) for v in range(10, 0, -1)]}
        expected = {}
        for case, lines in inputs.items():
            with open(os.path.join(scratch, case), "w", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))
            expected[case] = "".join(f"{v}\n" for v in sorted(map(int, lines)))
        out = os.path.join(scratch, "out.txt")
        cases = ["python_pass", *inputs]
        samples = {case: {name: [] for name in trees} for case in cases}
        order = list(trees)
        for repeat in range(args.repeats):
            for name in order if repeat % 2 == 0 else order[::-1]:
                env = dict(os.environ, PYTHONPATH=trees[name])
                wall, _ = time_process([sys.executable, "-c", "pass"], env)
                samples["python_pass"][name].append(wall)
                for case in inputs:
                    wall, code = time_process(
                        [sys.executable, "-m", "repro.cli", "sort",
                         os.path.join(scratch, case), "-o", out], env)
                    with open(out, encoding="utf-8") as handle:
                        correct = correct and code == 0 and (
                            handle.read() == expected[case])
                    samples[case][name].append(wall)

    results = {case: {name: summarise(values)
                      for name, values in per_tree.items()}
               for case, per_tree in samples.items()}
    for case, per_tree in results.items():
        line = "  ".join(
            f"{name} {row['median_ms']:.1f} ms "
            f"[{row['iqr_ms'][0]:.1f}, {row['iqr_ms'][1]:.1f}]"
            for name, row in per_tree.items()
        )
        print(f"{case:12} {line}", flush=True)

    payload = {
        "benchmark": "wall time of a repro sort process on tiny inputs",
        "repeats": args.repeats,
        "smoke": args.smoke,
        "trees": list(trees),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "outputs_correct": correct,
        "layering": layering,
        "cases": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if not correct:
        print("ERROR: a sort produced wrong output", file=sys.stderr)
        return 1
    if args.smoke and not all(
        layering_ok(results) for results in layering.values()
    ):
        print("ERROR: a command loaded a module outside its layer",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
