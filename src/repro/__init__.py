"""repro: reproduction of "Two-way Replacement Selection" (VLDB 2010).

The package implements external-sort run generation with two-way
replacement selection (2WRS), the replacement-selection baselines it
improves on, the merge phase, a simulated storage stack, the paper's
snowplow differential model, and the ANOVA machinery of its evaluation.

Quickstart::

    from repro import TwoWayReplacementSelection, ReplacementSelection
    from repro.workloads import reverse_sorted_input

    data = list(reverse_sorted_input(10_000))
    rs = ReplacementSelection(memory_capacity=1_000)
    twrs = TwoWayReplacementSelection(memory_capacity=1_000)
    print(len(list(rs.generate_runs(data))))    # ~10 runs
    print(len(list(twrs.generate_runs(data))))  # 1 run
"""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use: ``import repro.cli`` must not pay for every run generator.
_LAZY = {
    "RECOMMENDED": "repro.core.config",
    "TABLE_5_13_CONFIGS": "repro.core.config",
    "TwoWayConfig": "repro.core.config",
    "TwoWayReplacementSelection": "repro.core.two_way",
    "RunGenerator": "repro.runs.base",
    "RunGeneratorStats": "repro.runs.base",
    "BatchedReplacementSelection": "repro.runs.batched",
    "LoadSortStore": "repro.runs.load_sort_store",
    "ReplacementSelection": "repro.runs.replacement_selection",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = [
    "BatchedReplacementSelection",
    "LoadSortStore",
    "RECOMMENDED",
    "ReplacementSelection",
    "RunGenerator",
    "RunGeneratorStats",
    "TABLE_5_13_CONFIGS",
    "TwoWayConfig",
    "TwoWayReplacementSelection",
    "__version__",
]
