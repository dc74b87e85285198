"""External sorting pipelines: mergesort (Ch. 2, 6), simulated and real."""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use (see :mod:`repro.engine`).
_LAZY = {
    "DEFAULT_CPU_OP_TIME": "repro.engine.report",
    "PhaseReport": "repro.engine.report",
    "SortReport": "repro.engine.report",
    "ConcurrentSortSimulator": "repro.sort.memory_broker",
    "MemoryBroker": "repro.sort.memory_broker",
    "SortJob": "repro.sort.memory_broker",
    "WaitSituation": "repro.sort.memory_broker",
    "PARTITION_STRATEGIES": "repro.engine.planner",
    "PartitionedSort": "repro.sort.parallel",
    "hash_shard": "repro.sort.parallel",
    "range_cut_points": "repro.sort.parallel",
    "FileSpillSort": "repro.sort.spill",
    "SpilledRun": "repro.sort.spill",
    "ExternalSort": "repro.sort.external",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConcurrentSortSimulator",
    "DEFAULT_CPU_OP_TIME",
    "FileSpillSort",
    "MemoryBroker",
    "PARTITION_STRATEGIES",
    "PartitionedSort",
    "SortJob",
    "SpilledRun",
    "WaitSituation",
    "hash_shard",
    "range_cut_points",
    "ExternalSort",
    "PhaseReport",
    "SortReport",
]
