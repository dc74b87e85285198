"""External sorting pipelines: mergesort (Ch. 2, 6), simulated and real."""

from repro.engine.report import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport
from repro.sort.memory_broker import (
    ConcurrentSortSimulator,
    MemoryBroker,
    SharedMemoryBroker,
    SortJob,
    WaitSituation,
)
from repro.sort.parallel import (
    PARTITION_STRATEGIES,
    PartitionedSort,
    hash_shard,
    range_cut_points,
)
from repro.sort.spill import FileSpillSort, SpilledRun
from repro.sort.external import ExternalSort

__all__ = [
    "ConcurrentSortSimulator",
    "DEFAULT_CPU_OP_TIME",
    "FileSpillSort",
    "MemoryBroker",
    "PARTITION_STRATEGIES",
    "PartitionedSort",
    "SharedMemoryBroker",
    "SortJob",
    "SpilledRun",
    "WaitSituation",
    "hash_shard",
    "range_cut_points",
    "ExternalSort",
    "PhaseReport",
    "SortReport",
]
