"""2WRS configuration: the factor space of the paper's ANOVA study.

A configuration fixes the four factors of Section 5.2 (Table 5.1):

* ``buffer_setup``   (factor i): which of the input / victim buffers exist,
* ``buffer_fraction``(factor j): share of total memory given to buffers,
* ``input_heuristic``(factor k) and ``output_heuristic`` (factor l).

:data:`RECOMMENDED` is the configuration the paper selects in Section
5.3 and uses for every Chapter 6 experiment; :data:`TABLE_5_13_CONFIGS`
are the three parameterisations compared against RS in Table 5.13.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runs.base import RunGenerator

#: Valid buffer setups (factor i levels 0..2 of Table 5.1).
BUFFER_SETUPS = ("input", "both", "victim")

#: Buffer-size factor levels of Table 5.1 (fraction of total memory).
BUFFER_FRACTIONS = (0.0002, 0.002, 0.02, 0.20)


@dataclass(frozen=True, slots=True)
class TwoWayConfig:
    """One point of the 2WRS configuration space.

    Attributes
    ----------
    buffer_setup:
        "input", "victim", or "both".
    buffer_fraction:
        Fraction of the total memory dedicated to buffers (split evenly
        when both exist); the heaps get the remainder.
    input_heuristic / output_heuristic:
        Names registered in :mod:`repro.core.heuristics`.
    seed:
        Seed for the stochastic heuristics (None = nondeterministic).
    """

    buffer_setup: str = "both"
    buffer_fraction: float = 0.02
    input_heuristic: str = "mean"
    output_heuristic: str = "random"
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.buffer_setup not in BUFFER_SETUPS:
            raise ValueError(
                f"buffer_setup must be one of {BUFFER_SETUPS}, "
                f"got {self.buffer_setup!r}"
            )
        if not 0.0 <= self.buffer_fraction < 1.0:
            raise ValueError(
                f"buffer_fraction must be in [0, 1), got {self.buffer_fraction}"
            )

    def partition_memory(self, memory_capacity: int) -> Tuple[int, int, int]:
        """Split total memory into (heap, input buffer, victim buffer) records.

        The total always equals ``memory_capacity`` — the paper stresses
        that buffer memory is taken *from* the sorting memory, not added
        to it.
        """
        buffer_records = int(round(memory_capacity * self.buffer_fraction))
        buffer_records = min(buffer_records, memory_capacity - 1)
        if self.buffer_setup == "both":
            input_records = buffer_records // 2
            victim_records = buffer_records - input_records
        elif self.buffer_setup == "input":
            input_records = buffer_records
            victim_records = 0
        else:  # "victim"
            input_records = 0
            victim_records = buffer_records
        heap_records = memory_capacity - input_records - victim_records
        return heap_records, input_records, victim_records


#: Run-generation algorithms instantiable from a :class:`GeneratorSpec`.
ALGORITHMS = ("rs", "2wrs", "lss", "brs")


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """Picklable description of how to build a run generator.

    A :class:`~repro.runs.base.RunGenerator` holds heaps, buffers, and
    live stats, none of which should cross a process boundary; a spec
    is the plain-data recipe instead.  The parallel partitioned sort
    ships one spec to every worker process (spawn-safe) and each worker
    builds its own private generator from it.

    Attributes
    ----------
    algorithm:
        One of :data:`ALGORITHMS` ("rs", "2wrs", "lss", "brs").
    memory:
        Working memory in records for the built generator.
    two_way:
        2WRS factor configuration; ignored by the other algorithms.
    """

    algorithm: str = "2wrs"
    memory: int = 10_000
    two_way: Optional[TwoWayConfig] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")

    def with_memory(self, memory: int) -> "GeneratorSpec":
        """The same spec under a different memory grant."""
        return replace(self, memory=memory)

    def build(self) -> "RunGenerator":
        """Instantiate a fresh generator described by this spec."""
        # Imported here, and only the one asked for: the generator
        # modules import this module.
        if self.algorithm == "rs":
            from repro.runs.replacement_selection import ReplacementSelection

            return ReplacementSelection(self.memory)
        if self.algorithm == "lss":
            from repro.runs.load_sort_store import LoadSortStore

            return LoadSortStore(self.memory)
        if self.algorithm == "brs":
            from repro.runs.batched import BatchedReplacementSelection

            return BatchedReplacementSelection(self.memory)
        from repro.core.two_way import TwoWayReplacementSelection

        return TwoWayReplacementSelection(self.memory, self.two_way)


#: Section 5.3: both buffers, 2 % of memory, Mean input, Random output.
RECOMMENDED = TwoWayConfig(
    buffer_setup="both",
    buffer_fraction=0.02,
    input_heuristic="mean",
    output_heuristic="random",
)

#: The three 2WRS parameterisations of Table 5.13 (all Mean + Random).
TABLE_5_13_CONFIGS: Dict[str, TwoWayConfig] = {
    "cfg1": TwoWayConfig(buffer_setup="input", buffer_fraction=0.0002),
    "cfg2": TwoWayConfig(buffer_setup="both", buffer_fraction=0.20),
    "cfg3": TwoWayConfig(buffer_setup="both", buffer_fraction=0.02),
}
