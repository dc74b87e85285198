"""Run-generation algorithms for the external mergesort first phase."""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use (see :mod:`repro.engine`).
_LAZY = {
    "RunGenerator": "repro.runs.base",
    "RunGeneratorStats": "repro.runs.base",
    "log_cost": "repro.runs.base",
    "BatchedReplacementSelection": "repro.runs.batched",
    "LoadSortStore": "repro.runs.load_sort_store",
    "ReplacementSelection": "repro.runs.replacement_selection",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BatchedReplacementSelection",
    "LoadSortStore",
    "ReplacementSelection",
    "RunGenerator",
    "RunGeneratorStats",
    "log_cost",
]
