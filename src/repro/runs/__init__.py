"""Run-generation algorithms for the external mergesort first phase."""

from repro.runs.base import RunGenerator, RunGeneratorStats, log_cost
from repro.runs.batched import BatchedReplacementSelection
from repro.runs.load_sort_store import LoadSortStore
from repro.runs.replacement_selection import ReplacementSelection

__all__ = [
    "BatchedReplacementSelection",
    "LoadSortStore",
    "ReplacementSelection",
    "RunGenerator",
    "RunGeneratorStats",
    "log_cost",
]
