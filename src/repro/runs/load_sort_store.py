"""Load-Sort-Store run generation (Section 2.1.1).

The simplest run generator: fill the whole working memory with input
records, sort them with an internal sort, and emit the sorted chunk as a
run.  Run length is always exactly the memory size (except possibly the
final run), which is the baseline replacement selection improves on.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator, List

from repro.runs.base import RunGenerator, log_cost


class LoadSortStore(RunGenerator):
    """Fill memory, sort, emit; repeat.

    Parameters
    ----------
    memory_capacity:
        Chunk size in records.  Chunks are sorted with the library sort,
        which keeps each comparison a single native operation.
    """

    name = "LSS"

    def generate_runs(self, records: Iterable[Any]) -> Iterator[List[Any]]:
        self.stats.reset()
        stream = iter(records)
        while True:
            chunk: List[Any] = list(islice(stream, self.memory_capacity))
            if not chunk:
                return
            self.stats.records_in += len(chunk)
            self.stats.cpu_ops += len(chunk) * log_cost(len(chunk))
            run = sorted(chunk)
            self.stats.note_run(len(run))
            yield run
