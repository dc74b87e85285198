"""In-memory span tracer for the benchmark's traced runs.

A span is one call across a layer boundary: ``(name, start, end,
parent, run id)``.  Spans are opened and closed by the wrappers in
:mod:`layers`, which sit around per-block, per-run, per-op and per-job
calls into the program -- never per record.

Two kinds of span exist:

* *recorded* spans (flushes, runs, blocks, jobs) are kept in memory
  and written as JSONL when the run ends;
* *aggregated* spans (``record=False``: per-op store calls, of which a
  run makes hundreds of thousands) only add to their name's count,
  total and self time, so memory stays bounded.  They always nest on
  the thread that opened their parent.

A span's self time is its duration minus the time its child spans
cover.  Children on the parent's own thread run one after another, so
their durations add up; a parent that also has children on other
threads (a client thread's job under the workload root) takes the
union of its recorded children's intervals instead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = ["Tracer"]


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "child_time", "record")

    def __init__(
        self, span_id: int, name: str, start: float, parent: int, record: bool
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.child_time = 0.0
        self.record = record


class Tracer:
    """Spans, per-name totals and counters of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Recorded spans: (id, name, start, end, parent, thread, child_time).
        self.spans: List[tuple] = []
        #: name -> [count, total seconds, same-thread self seconds].
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Named counts the wrappers make at the same boundaries.
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(
        self, name: str, record: bool = True, parent: Optional[int] = None
    ) -> _Frame:
        """Open a span; ``parent`` names a span on another thread."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1].id if stack else 0
        frame = _Frame(next(self._ids), name, time.perf_counter(), parent, record)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        """Close ``frame`` (and anything left open above it)."""
        now = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is frame:
                break
        duration = now - frame.start
        if stack and stack[-1].id == frame.parent:
            stack[-1].child_time += duration
        with self._lock:
            entry = self.totals[frame.name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child_time
            if frame.record:
                self.spans.append(
                    (frame.id, frame.name, frame.start, now, frame.parent,
                     threading.get_ident(), frame.child_time)
                )

    @contextmanager
    def span(self, name: str, record: bool = True) -> Iterator[_Frame]:
        frame = self.begin(name, record)
        try:
            yield frame
        finally:
            self.end(frame)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.counters[name]:
                self.counters[name] = value

    # -- wrapper factories ------------------------------------------------------

    def wrap_call(
        self, fn: Callable[..., Any], name: str, record: bool = True
    ) -> Callable[..., Any]:
        """``fn`` with one span per call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_items(
        self, items: Iterable[Any], name: str, on_item: Optional[Callable[[Any], None]] = None
    ) -> Iterator[Any]:
        """Re-yield ``items`` with one span around producing each item.

        Only for iterators whose items are blocks or runs: the span
        costs two clock reads per item.
        """
        iterator = iter(items)
        while True:
            frame = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.end(frame)
                return
            except BaseException:
                self.end(frame)
                raise
            self.end(frame)
            if on_item is not None:
                on_item(item)
            yield item

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Copy of totals and counters, to take deltas between phases."""
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counters": dict(self.counters),
            }

    def self_time(self, span_id: int) -> float:
        """Self time of a recorded span, cross-thread children included."""
        by_id = {span[0]: span for span in self.spans}
        span = by_id[span_id]
        _, _, start, end, _, thread, child_time = span
        children = [s for s in self.spans if s[4] == span_id]
        if all(child[5] == thread for child in children):
            return (end - start) - child_time
        covered = 0.0
        cursor = start
        for _, _, c_start, c_end, *_ in sorted(children, key=lambda s: s[2]):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        return (end - start) - covered

    def write_jsonl(self, path: str) -> None:
        """Spans, then one aggregate line per span name and the counters."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, thread, _ in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "thread": thread,
                }) + "\n")
            for name, (count, total, self_s) in sorted(self.totals.items()):
                out.write(json.dumps({
                    "run": self.run_id, "aggregate": name, "count": count,
                    "total_s": total, "self_s": self_s,
                }) + "\n")
            out.write(json.dumps({
                "run": self.run_id, "counters": dict(self.counters),
            }) + "\n")
