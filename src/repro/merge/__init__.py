"""Merge-phase algorithms (Section 2.1.2 and 6.1.1)."""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use (see :mod:`repro.engine`).
_LAZY = {
    "MergeCounter": "repro.merge.kway",
    "kway_merge": "repro.merge.kway",
    "merge_runs": "repro.merge.kway",
    "validate_merge_params": "repro.merge.kway",
    "DEFAULT_FAN_IN": "repro.merge.kway",
    "MergeTree": "repro.merge.merge_tree",
    "merge_files": "repro.merge.merge_tree",
    "STRATEGIES": "repro.merge.reading",
    "ReadingReport": "repro.merge.reading",
    "ReadingSimulator": "repro.merge.reading",
    "PolyphaseMerger": "repro.merge.polyphase",
    "PolyphaseStep": "repro.merge.polyphase",
    "polyphase_merge": "repro.merge.polyphase",
    "polyphase_schedule": "repro.merge.polyphase",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_FAN_IN",
    "MergeCounter",
    "MergeTree",
    "PolyphaseMerger",
    "PolyphaseStep",
    "ReadingReport",
    "ReadingSimulator",
    "STRATEGIES",
    "kway_merge",
    "merge_files",
    "merge_runs",
    "polyphase_merge",
    "polyphase_schedule",
    "validate_merge_params",
]
