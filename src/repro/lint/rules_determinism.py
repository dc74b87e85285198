"""R006 — no ambient nondeterminism in the sort core.

The resumability and differential harnesses (PR 4/5) assert that a
crashed-and-resumed sort produces byte-identical output to an
uninterrupted one, and that every engine agrees with every other.
Both guarantees die the moment core code consults an ambient source of
entropy: an unseeded ``random`` call or a wall-clock read that leaks
into output or control flow.

Within ``repro/core``, ``repro/engine``, ``repro/merge``,
``repro/ops``, ``repro/service`` and ``repro/store`` the rule flags:

* module-level ``random.X(...)`` calls (``random.random``,
  ``random.shuffle`` … share the hidden global generator).  A seeded
  instance — ``random.Random(seed)`` — is the sanctioned alternative
  and is allowed; a *no-argument* ``random.Random()`` seeds itself
  from the OS and is flagged;
* ``from random import <anything but Random>`` — the bare names make
  global-generator calls unreviewable at the call site;
* wall-clock reads: any ``X.time()`` / ``X.time_ns()`` call (not just
  the literal ``time.time`` — an aliased module dodges a
  spelled-out-name check) and ``datetime...now`` / ``utcnow`` /
  ``today``.  Monotonic measurement (``perf_counter``, ``monotonic``)
  and ``sleep`` are fine — they time work, they do not stamp output.

Report/bench code is deliberately out of scope (timings belong there),
as are tests.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.astutil import dotted, last_component
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule

_CORE_PACKAGES = ("core", "engine", "merge", "ops", "service", "store")
_WALL_CLOCK_NAMES = ("time", "time_ns")
_DATETIME_READS = ("now", "utcnow", "today")


def _in_scope(logical_path: str) -> bool:
    path = logical_path.replace("\\", "/")
    return any(f"repro/{package}/" in path for package in _CORE_PACKAGES)


def _flag(ctx: FileContext, node: ast.AST, detail: str) -> Finding:
    return Finding(
        ctx.path,
        node.lineno,
        "R006",
        f"{detail} — resumed and differential sorts must be "
        f"byte-identical, so core code takes seeds and clocks as "
        f"inputs instead of reading ambient ones",
    )


@rule("R006")
def check_determinism(ctx: FileContext) -> List[Finding]:
    if not _in_scope(ctx.logical_path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bare = [
                alias.name
                for alias in node.names
                if alias.name != "Random"
            ]
            if bare:
                findings.append(
                    _flag(
                        ctx,
                        node,
                        f"'from random import {', '.join(bare)}' pulls "
                        f"global-generator functions into the core",
                    )
                )
        if not isinstance(node, ast.Call):
            continue
        target = dotted(node.func) or ""
        if target == "random.Random":
            if not node.args and not node.keywords:
                findings.append(
                    _flag(
                        ctx,
                        node,
                        "random.Random() with no seed argument draws "
                        "its state from the OS",
                    )
                )
        elif target.startswith("random."):
            findings.append(
                _flag(
                    ctx,
                    node,
                    f"{target}() uses the hidden global random "
                    f"generator; use an injected random.Random(seed)",
                )
            )
        elif (
            "." in target
            and last_component(node.func) in _WALL_CLOCK_NAMES
        ):
            findings.append(
                _flag(
                    ctx,
                    node,
                    f"{target}() reads the wall clock; use "
                    f"time.perf_counter() for durations, "
                    f"time.monotonic() for timestamps, or accept a "
                    f"clock parameter",
                )
            )
        elif (
            last_component(node.func) in _DATETIME_READS
            and "datetime" in target
        ):
            findings.append(
                _flag(ctx, node, f"{target}() reads the wall clock")
            )
    return findings
