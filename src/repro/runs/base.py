"""Common interface for run-generation algorithms (Section 2.1.1).

A run generator consumes a stream of records and produces *runs*: sorted
lists destined for external storage.  All generators in this package
(Load-Sort-Store, replacement selection, batched RS, 2WRS) implement the
same :class:`RunGenerator` interface so the external-sort pipeline and
the experiment harnesses can swap them freely.

Generators also maintain a :class:`RunGeneratorStats` with an *analytic*
CPU cost: every heap traversal is charged ``ceil(log2(n))`` comparison
steps.  The simulated-time experiments convert these counts to seconds
with a fixed per-operation cost, mirroring how the paper's wall-clock
numbers combine CPU and I/O (DESIGN.md section 3 explains why we do not
time Python itself).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List


def log_cost(n: int) -> int:
    """Analytic cost of one traversal of a heap holding ``n`` records.

    ``ceil(log2(n))`` computed exactly on integers (the float form
    rounds down just above large powers of two), and at least 1.
    """
    return (n - 1).bit_length() if n > 1 else 1


@dataclass(slots=True)
class RunGeneratorStats:
    """Counters accumulated while generating runs."""

    records_in: int = 0
    records_out: int = 0
    runs_out: int = 0
    cpu_ops: int = 0
    run_lengths: List[int] = field(default_factory=list)

    def note_run(self, length: int) -> None:
        """Record the completion of one run."""
        self.runs_out += 1
        self.records_out += length
        self.run_lengths.append(length)

    @property
    def average_run_length(self) -> float:
        """Mean run length in records (0.0 when no runs were produced)."""
        if not self.run_lengths:
            return 0.0
        return sum(self.run_lengths) / len(self.run_lengths)

    def reset(self) -> None:
        self.records_in = 0
        self.records_out = 0
        self.runs_out = 0
        self.cpu_ops = 0
        self.run_lengths = []


class RunGenerator(ABC):
    """Base class for run-generation algorithms.

    Parameters
    ----------
    memory_capacity:
        Number of records of working memory available to the algorithm
        (the paper's ``heapSize`` plus any buffers; concrete classes
        document how they partition it).
    """

    #: Short identifier used in experiment output rows.
    name: str = "base"

    def __init__(self, memory_capacity: int) -> None:
        if memory_capacity < 1:
            raise ValueError(
                f"memory_capacity must be >= 1 record, got {memory_capacity}"
            )
        self.memory_capacity = memory_capacity
        self.stats = RunGeneratorStats()

    @abstractmethod
    def generate_runs(self, records: Iterable[Any]) -> Iterator[List[Any]]:
        """Consume ``records`` and lazily yield sorted runs.

        Every yielded list is ascending, and the multiset union of all
        runs equals the input.  Implementations must reset and then
        update :attr:`stats`.
        """

    # -- convenience -----------------------------------------------------------

    def run_lengths(self, records: Iterable[Any]) -> List[int]:
        """Generate all runs and return their lengths."""
        return [len(run) for run in self.generate_runs(records)]

    def count_runs(self, records: Iterable[Any]) -> int:
        """Generate all runs and return how many were produced."""
        return sum(1 for _ in self.generate_runs(records))
