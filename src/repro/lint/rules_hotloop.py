"""R007 (merge hot-loop purity): no per-record decoding in the merge.

The binary spill format exists so the merge stage compares raw,
order-preserving key bytes (DESIGN.md §14): records enter the heap as
``(key_bytes, payload_bytes)`` pairs and every comparison is one
C-level ``bytes`` compare.  A single ``fmt.decode(...)`` or
``fmt.key(...)`` call sneaking back into the k-way merge or its block
readers re-introduces a Python-level call per *record* — the exact
cost the format was built to remove, and one that no test notices
because the output is still correct.

The rule therefore bans ``*.decode(...)`` and ``*.key(...)`` calls
inside the merge hot-loop modules (:mod:`repro.merge.kway`, the run
readers of :mod:`repro.sort.spill` and :mod:`repro.engine.
merge_reading`) and the store's scan/compaction hot loops
(:mod:`repro.store.sstable`, :mod:`repro.store.compaction`), whose
§17 meta layout exists precisely so LWW dedup and tombstone checks
stay tuple-and-slice work.  None of them carries a waiver: anything
per-record belongs either in ``block_io`` (where text formats decode
block-at-a-time) or at the final output boundary.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.astutil import last_component
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule

#: Modules whose loops must never pay a per-record decode.
_HOT_MODULES = (
    "repro/merge/kway.py",
    "repro/engine/merge_reading.py",
    "repro/sort/spill.py",
    "repro/store/sstable.py",
    "repro/store/compaction.py",
)

#: Method names whose call re-introduces per-record Python decoding.
_BANNED_METHODS = ("decode", "decode_block", "key")


def _in_hot_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(module) for module in _HOT_MODULES)


@rule("R007")
def check_hot_loop_purity(ctx: FileContext) -> List[Finding]:
    """Flag decode()/key() calls inside the merge hot-loop modules."""
    if not _in_hot_module(ctx.logical_path):
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue  # bare decode()/key() names are not format calls
        method = last_component(node.func)
        if method not in _BANNED_METHODS:
            continue
        findings.append(
            Finding(
                ctx.path,
                node.lineno,
                "R007",
                f"{method}() in a merge hot-loop module pays a Python "
                f"call per record, defeating the binary format's raw "
                f"byte comparisons — decode at the final output "
                f"boundary (or in block_io's block readers), or waive "
                f"with the reason this call is per-block, not "
                f"per-record",
            )
        )
    return findings
