"""Polyphase merge (Gilstad 1960; Section 2.1.2, Table 2.1).

Polyphase merge starts with ``T`` tapes, one empty; each *step* performs
k-way merges (k = T - 1) writing to the empty tape until some input tape
runs out of runs; the emptied tape becomes the next output tape.  The
process repeats until a single run remains.  Once fewer than two tapes
besides the output hold runs, one last step merges every remaining run
into one on the output tape.

Two entry points:

* :func:`polyphase_schedule` reproduces the run-count bookkeeping of
  Table 2.1 from initial per-tape run counts.
* :class:`PolyphaseMerger` performs the actual record-level merge over
  in-memory tapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.merge.kway import MergeCounter, kway_merge


@dataclass(frozen=True, slots=True)
class PolyphaseStep:
    """Run counts per tape after one polyphase step."""

    step: int
    counts: tuple
    output_tape: int


def polyphase_schedule(initial_counts: Sequence[int]) -> List[PolyphaseStep]:
    """Compute per-step run counts, reproducing Table 2.1.

    ``initial_counts`` must contain exactly one zero (the initial output
    tape).  Returns the list of steps including step 0 (the initial
    state, output tape = the empty one).
    """
    counts = list(initial_counts)
    if len(counts) < 3:
        raise ValueError(f"polyphase needs >= 3 tapes, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError(f"run counts must be non-negative: {counts}")
    empties = [i for i, c in enumerate(counts) if c == 0]
    if len(empties) != 1:
        raise ValueError(
            f"exactly one tape must start empty, got {len(empties)}: {counts}"
        )
    output = empties[0]
    steps = [PolyphaseStep(step=0, counts=tuple(counts), output_tape=output)]
    while sum(counts) > 1:
        inputs = [i for i in range(len(counts)) if i != output and counts[i] > 0]
        if len(inputs) < 2:
            # No k-way step is left to take: merge every remaining run
            # into one on the output tape.
            counts = [0] * len(counts)
            counts[output] = 1
        else:
            merges = min(counts[i] for i in inputs)
            for i in inputs:
                counts[i] -= merges
            counts[output] += merges
        steps.append(PolyphaseStep(step=len(steps), counts=tuple(counts), output_tape=output))
        # The tape emptied by this step becomes the next output tape.
        output = next((i for i in inputs if counts[i] == 0), output)
    return steps


class PolyphaseMerger:
    """Record-level polyphase merge over in-memory tapes.

    Each tape is a list of runs (ascending lists).  ``merge()`` returns
    the single final run.
    """

    def __init__(self, tapes: Sequence[Sequence[Sequence[Any]]]) -> None:
        self.tapes: List[List[List[Any]]] = [
            [list(run) for run in tape] for tape in tapes
        ]
        if len(self.tapes) < 3:
            raise ValueError(f"polyphase needs >= 3 tapes, got {len(self.tapes)}")
        self.counter = MergeCounter()

    def merge(self) -> List[Any]:
        """Run polyphase to completion and return the final sorted run."""
        tapes = self.tapes
        empties = [i for i, t in enumerate(tapes) if not t]
        if not empties:
            raise ValueError("at least one tape must start empty")
        output = empties[0]
        while sum(len(t) for t in tapes) > 1:
            inputs = [i for i in range(len(tapes)) if i != output and tapes[i]]
            if len(inputs) < 2:
                # No k-way step is left to take: merge every remaining
                # run into one on the output tape.
                runs = [run for tape in tapes for run in tape]
                for tape in tapes:
                    tape.clear()
                tapes[output].append(list(kway_merge(runs, self.counter)))
                break
            merges = min(len(tapes[i]) for i in inputs)
            for _ in range(merges):
                batch = [tapes[i].pop(0) for i in inputs]
                tapes[output].append(list(kway_merge(batch, self.counter)))
            output = next(i for i in inputs if not tapes[i])
        for tape in tapes:
            if tape:
                return tape[0]
        return []


def polyphase_merge(tapes: Sequence[Sequence[Sequence[Any]]]) -> List[Any]:
    """Convenience wrapper: merge ``tapes`` and return the final run."""
    return PolyphaseMerger(tapes).merge()
