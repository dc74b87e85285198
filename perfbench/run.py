"""The repository's benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort-random --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs the workload once untraced and once with
the layer wrappers of :mod:`layers`, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--small``
shrinks every input so the benchmark's own test finishes in seconds.
See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    SRC,
    WORK_ROOT,
    ProgramMissing,
    require_program,
)

WORKLOADS = ("sort-random", "sort-mixed", "store", "service")


def _runner(workload: str):
    if workload.startswith("sort-"):
        import sort_workload
        return sort_workload.run
    if workload == "store":
        import store_workload
        return store_workload.run
    import service_workload
    return service_workload.run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    try:
        require_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Untimed: every program process starts from compiled bytecode, as
    # an installed package does, even where the environment stops
    # Python from writing its bytecode caches (PYTHONDONTWRITEBYTECODE);
    # otherwise each process would compile every module it imports.
    for tree in (SRC, BENCH_DIR):
        compileall.compile_dir(tree, quiet=1)
    # Spill directories of every program process, this one included,
    # go under the checkout too: the benchmark writes nowhere else.
    tmp = os.path.join(WORK_ROOT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    try:
        result = _runner(args.workload)(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.small,
        )
        shutil.rmtree(result.pop("work"), ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
