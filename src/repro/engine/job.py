"""One op pipeline for the CLI and the service (DESIGN.md §16).

A sort or relational operator over text files is described once, as an
:class:`OpSpec`: the op, the record format and keys, the operator's
arguments and the engine budget.  The dataclass defaults are the one
table of defaults: the CLI's options, ``repro submit`` and
``JobSpec.from_payload`` all read them from :data:`DEFAULTS`.
:meth:`OpSpec.validate` is the one check of a description.

:class:`OpRun` builds the engine(s) and the operator a description
asks for, and :meth:`OpRun.run` streams decode → sort or operator →
encode between open handles.  The CLI subcommands and the service's
jobs both run through it; what differs is only what they pass in (the
handles, durable work directories, a cancel event) and how they
report.  Knobs that change neither the output nor a job's identity
(``--merge-buffer``, ``--block-records``, the 2WRS factors and seed,
``--workers``, ``--partition``, ``--buffer-limit``) are plain
arguments of :class:`OpRun` with the defaults the service runs under.

The operators load on first use, so ``repro sort`` imports none of
:mod:`repro.ops` (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import (
    TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Sequence, TextIO,
    Tuple, Union,
)

from repro.core.config import ALGORITHMS, GeneratorSpec, TwoWayConfig
from repro.core.records import FORMAT_NAMES, STR, RecordFormat, resolve_format
# The input decode and the output encode are looked up on their
# modules at call time, so a wrapper installed there (the perfbench
# tracer's) sees every block of both the CLI's and the service's runs.
from repro.engine import block_io, planner
from repro.engine.resilience import input_fingerprint
from repro.engine.spill_codec import validate_codec
from repro.merge.kway import DEFAULT_FAN_IN
from repro.sort.spill import DEFAULT_BUFFER_RECORDS

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import threading

__all__ = [
    "DEFAULTS", "OPS", "JobCancelled", "OpRun", "OpSpec", "blocks_of",
    "cancellable",
]

#: The ops an :class:`OpRun` executes: the file-to-file subcommands.
OPS = ("sort", "distinct", "agg", "topk", "join")

KeyColumns = Union[int, Tuple[int, ...]]


class JobCancelled(Exception):
    """Raised by :meth:`OpRun.run` when its cancel event is set."""


@dataclass(frozen=True)
class OpSpec:
    """What one sort or operator run does.

    ``key``/``right_key`` are 0-based csv/tsv columns (one int or a
    tuple); ``by``, ``aggregates``/``value`` and ``k`` are the
    arguments of distinct, agg and topk.  ``memory`` is in records.
    """

    op: str = "sort"
    fmt: str = "int"
    key: Optional[KeyColumns] = None
    right_key: Optional[KeyColumns] = None
    by: str = "record"
    aggregates: Tuple[str, ...] = ("count",)
    value: Optional[int] = None
    k: int = 0
    memory: int = 10_000
    algorithm: str = "2wrs"
    fan_in: int = DEFAULT_FAN_IN
    spill_codec: str = "none"

    def validate(self, ops: Sequence[str] = OPS) -> None:
        """Raise ``ValueError`` naming the first unrunnable field.

        The operators check their own arguments against the format
        when they are built (:class:`OpRun`).
        """
        if self.op not in ops:
            raise ValueError(
                f"unknown op {self.op!r}; expected one of {', '.join(ops)}"
            )
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if self.fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {self.fan_in}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if self.fmt not in FORMAT_NAMES:
            raise ValueError(
                f"unknown record format {self.fmt!r}; known: "
                f"{', '.join(FORMAT_NAMES)}"
            )
        validate_codec(self.spill_codec)
        if (self.key, self.right_key) != (None, None) and self.fmt not in (
            "csv", "tsv"
        ):
            # Silently ignoring a key would sort by the wrong thing.
            raise ValueError(
                f"--key only applies to the delimited formats (csv, tsv), "
                f"not --format {self.fmt}"
            )

    def record_format(self, key: Optional[KeyColumns] = None) -> RecordFormat:
        """The format of an input keyed by ``key`` (default: ``key``)."""
        key = key if key is not None else self.key
        return resolve_format(self.fmt, key=key if key is not None else 0)

    def generator(
        self, two_way: Optional[TwoWayConfig] = None
    ) -> GeneratorSpec:
        """The run generator recipe; ``two_way`` None is the recommended
        2WRS configuration with seed 0."""
        return GeneratorSpec(
            algorithm=self.algorithm,
            memory=self.memory,
            two_way=two_way if self.algorithm == "2wrs" else None,
        )


#: The one table of defaults.
DEFAULTS = OpSpec()


def cancellable(
    blocks: Iterable[List[Any]], cancel: Optional["threading.Event"]
) -> Iterator[List[Any]]:
    """``blocks``, raising :class:`JobCancelled` at the first block that
    arrives once ``cancel`` is set."""
    for block in blocks:
        if cancel is not None and cancel.is_set():
            raise JobCancelled("job cancelled")
        yield block


def blocks_of(records: Iterable[Any], size: int) -> Iterator[List[Any]]:
    """``records`` in lists of ``size`` (the last may be shorter)."""
    source = iter(records)
    while block := list(islice(source, size)):
        yield block


class OpRun:
    """The engine(s) and operator of one :class:`OpSpec`, ready to run.

    ``inputs`` and ``work_dirs`` give, per input (two for a join), the
    input path its journal is tied to and the durable work directory
    (DESIGN.md §11), or None for a non-durable sort.  Building fails
    with ``ValueError`` when the operator rejects its arguments; a
    caller that tells usage errors from data errors builds first and
    runs second.  After :meth:`run`, :attr:`engines` and :attr:`op`
    hold the instrumentation of what ran.
    """

    def __init__(
        self,
        spec: OpSpec,
        *,
        inputs: Sequence[Optional[str]] = (None, None),
        work_dirs: Sequence[Optional[str]] = (None, None),
        two_way: Optional[TwoWayConfig] = None,
        workers: int = 1,
        partition: str = "hash",
        merge_buffer: int = DEFAULT_BUFFER_RECORDS,
        block_records: int = block_io.DEFAULT_BLOCK_RECORDS,
        buffer_limit: Optional[int] = None,
    ) -> None:
        self.block_records = block_records
        keys = [spec.key]
        if spec.op == "join":
            keys.append(
                spec.key if spec.right_key is None else spec.right_key
            )
        self.engines = [
            planner.SortEngine(
                spec.generator(two_way),
                record_format=spec.record_format(key),
                workers=workers,
                partition=partition,
                fan_in=spec.fan_in,
                buffer_records=merge_buffer,
                block_records=block_records,
                spill_codec=spec.spill_codec,
                work_dir=work_dir,
                input_fingerprint=(
                    input_fingerprint(path) if work_dir else None
                ),
            )
            for key, path, work_dir in zip(keys, inputs, work_dirs)
        ]
        engine = self.engines[0]
        #: The decode format of each input, then of the output.
        self.input_formats = [each.record_format for each in self.engines]
        self.output_format = engine.record_format
        self.op: Any = None
        if spec.op == "distinct":
            from repro.ops.distinct import Distinct

            self.op = Distinct(engine, by=spec.by)
        elif spec.op == "agg":
            from repro.ops.aggregate import GroupByAggregate

            self.op = GroupByAggregate(
                engine, aggregates=spec.aggregates, value_column=spec.value
            )
            # Output rows are delimited text, whatever the input format.
            self.output_format = STR
        elif spec.op == "topk":
            from repro.ops.topk import TopK

            self.op = TopK(engine, spec.k)
            # The heap scan reads csv/tsv rows as the base format's tuples.
            self.output_format = self.op.input_format()
            self.input_formats[0] = self.output_format
        elif spec.op == "join":
            from repro.ops.join import SortMergeJoin

            self.op = SortMergeJoin(
                engine, self.engines[1], buffer_limit=buffer_limit
            )
            self.output_format = STR

    @property
    def report(self) -> Any:
        """The operator's report, or the sort's."""
        if self.op is None:
            return self.engines[0].report
        return self.op.report

    def run(
        self,
        source: TextIO,
        sink: TextIO,
        right_source: Optional[TextIO] = None,
        *,
        resume: bool = False,
        cancel: Optional["threading.Event"] = None,
    ) -> int:
        """Decode ``source`` (and a join's ``right_source``), run the op,
        encode into ``sink``; return the records written.

        Both boundaries are plain text, moved in blocks; blank lines of
        the numeric formats are skipped.  ``cancel`` is checked once per
        decoded input block and once per output block.  ``resume``
        reuses what a previous attempt journaled under the work
        directories.
        """
        decoded = [
            chain.from_iterable(cancellable(
                block_io.read_blocks(
                    handle, fmt, self.block_records,
                    skip_blank=fmt.blank_input_skippable, codec=None,
                ),
                cancel,
            ))
            for handle, fmt in zip((source, right_source), self.input_formats)
        ]
        op = self.op
        if op is None:
            blocks = self.engines[0].sort_blocks(decoded[0], resume=resume)
        else:
            blocks = blocks_of(
                op.run(*decoded, resume=resume), self.block_records
            )
        writer = planner.BlockWriter(
            sink, self.output_format, self.block_records, codec=None
        )
        writer.write_blocks(cancellable(blocks, cancel))
        writer.flush()
        return writer.written
