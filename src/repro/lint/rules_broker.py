"""R004 — MemoryBroker request/release pairing.

Unpaired requests and releases are how a broker pool drifts:
memory requested and never released (or released twice) shrinks the
shared pool until concurrent sorts starve.  The harder variant is a
job that fails *between* request and release: it leaks its grant
forever unless the release sits on the error path too.

The rule checks every function (outside the broker module itself)
that calls ``request`` / ``request_or_enqueue`` / ``try_allocate`` on
some receiver:

* the function must also call ``release`` / ``release_and_regrant``
  / ``cancel_owner`` on the *same* receiver, and at least one must sit
  inside a ``finally`` block or ``except`` handler — a straight-line
  release never runs when the sorting work in between raises; or
* the granted amount must escape via ``return`` (an acquisition
  helper transfers the pairing obligation to its caller, which is
  then linted itself).

No ``src/`` code outside the broker module calls these methods today:
the simulator lives in that module, and the service scheduler keeps
its own pool counters.  ``request_or_enqueue``, ``release_and_regrant``
and ``cancel_owner`` are no longer broker methods either; the names
stay so that the rule and its corpus are unchanged.  Scoped to ``src/repro`` (tests hammer brokers in
deliberately unpaired ways to prove the accounting).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.lint.astutil import (
    Scope,
    dotted,
    guarded_lines,
    iter_scopes,
    last_component,
    name_used_in,
)
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule

_REQUESTS = ("request", "request_or_enqueue", "try_allocate")
_RELEASES = ("release", "release_and_regrant", "cancel_owner")


def _in_scope(logical_path: str) -> bool:
    path = logical_path.replace("\\", "/")
    return (
        "repro/" in path
        and "tests/" not in path
        and "memory_broker" not in path
    )


def _receiver(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return dotted(call.func.value)
    return None


def _request_calls(scope: Scope) -> List[Tuple[ast.Call, str, Optional[str]]]:
    """``(call, receiver, assigned_name)`` per request in the scope."""
    assigned = {}
    for node in scope.nodes():
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                node.value, ast.Call
            ):
                assigned[id(node.value)] = target.id
    requests = []
    for node in scope.nodes():
        if (
            isinstance(node, ast.Call)
            and last_component(node.func) in _REQUESTS
        ):
            receiver = _receiver(node)
            if receiver is not None:
                requests.append((node, receiver, assigned.get(id(node))))
    return requests


def _grant_escapes(scope: Scope, call: ast.Call, name: Optional[str]) -> bool:
    for node in scope.nodes():
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        if name is not None and name_used_in(node.value, name):
            return True
        if any(sub is call for sub in ast.walk(node.value)):
            return True
    return False


@rule("R004")
def check_broker_pairing(ctx: FileContext) -> List[Finding]:
    if not _in_scope(ctx.logical_path):
        return []
    findings: List[Finding] = []
    for scope in iter_scopes(ctx.tree):
        if isinstance(scope.node, ast.ClassDef):
            continue
        requests = _request_calls(scope)
        if not requests:
            continue
        guarded = guarded_lines(scope)
        releases = [
            (node, _receiver(node))
            for node in scope.nodes()
            if isinstance(node, ast.Call)
            and last_component(node.func) in _RELEASES
        ]
        for call, receiver, assigned_name in requests:
            if _grant_escapes(scope, call, assigned_name):
                continue  # acquisition helper; the caller owns pairing
            paired = [rel for rel, recv in releases if recv == receiver]
            method = last_component(call.func)
            if not paired:
                findings.append(
                    Finding(
                        ctx.path,
                        call.lineno,
                        "R004",
                        f"{receiver}.{method}() has no matching release "
                        f"on {receiver!r} in this function — an "
                        f"unreleased grant shrinks the shared pool for "
                        f"every other sort until the process dies",
                    )
                )
            elif not any(rel.lineno in guarded for rel in paired):
                findings.append(
                    Finding(
                        ctx.path,
                        call.lineno,
                        "R004",
                        f"release for {receiver}.{method}() only runs "
                        f"on the happy path — put it in a finally (or "
                        f"the except handler) so a raise between "
                        f"request and release cannot leak the grant",
                    )
                )
    return findings
