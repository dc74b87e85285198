"""Run ``repro`` CLI arguments in this process, measured or traced.

Usage::

    python3 perfbench/cli_child.py --speed OUT.json -- sort IN -o OUT
    python3 perfbench/cli_child.py --speed OUT.json --trace PREFIX -- sort IN -o OUT
    python3 perfbench/cli_child.py --trace PREFIX -- serve --spool DIR ...

``--speed`` pins the process to one CPU and samples the reference
clock (:mod:`refclock`) on a thread while the CLI runs, then writes
the samples to ``OUT.json``.  ``--trace`` installs the sort-layer
wrappers (:func:`layers.install_sort_layers`), and for ``serve`` the
service-layer ones too (:func:`layers.install_service_layers`), runs
``repro.cli.main`` inside one root span ``cli.main`` (for ``serve``:
until the server is shut down), and writes ``PREFIX.jsonl`` (spans)
and ``PREFIX.json`` (the tracer summary).  Exits with the CLI's own
exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--speed", metavar="OUT_JSON")
    parser.add_argument("--trace", metavar="PREFIX")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import require_program
    from refclock import Sampler, pin_to_one_cpu

    sampler = None
    if args.speed:
        pin_to_one_cpu()
        sampler = Sampler().start()
    require_program()
    import repro.cli

    if not args.trace:
        code = repro.cli.main(cli_args)
    else:
        code = _traced(cli_args, args.trace)
    if sampler is not None:
        with open(args.speed, "w", encoding="utf-8") as out:
            json.dump({"ref_samples": sampler.stop()}, out)
    return code


def _traced(cli_args: List[str], prefix: str) -> int:
    from common import tracer_summary
    from layers import Patches, install_service_layers, install_sort_layers
    from tracer import Tracer

    import repro.cli

    tracer = Tracer(os.path.basename(prefix))
    patches = Patches()
    install_sort_layers(tracer, patches)
    if cli_args[:1] == ["serve"]:
        install_service_layers(tracer, patches)
    try:
        root = tracer.begin("cli.main")
        try:
            code = repro.cli.main(cli_args)
        finally:
            tracer.end(root)
    finally:
        patches.undo()
    tracer.write_jsonl(prefix + ".jsonl")
    with open(prefix + ".json", "w", encoding="utf-8") as out:
        json.dump(tracer_summary(tracer, [root.id]), out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
