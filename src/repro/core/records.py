"""Pluggable record formats: typed keys and block-level serialisation.

Every real-file backend (spill, parallel, engine merge) moves records
as lines of text — in the user's files, and inside the RBLC blocks of
its own spill files (int blocks excepted: ``repro.engine.block_io``
stores those as int64 arrays; csv/tsv rows spill as key bytes, see
:class:`BinaryRecordFormat`).  The seed code hard-wired one
record shape — one integer per line — and paid a Python-level
``decode(line)`` call per record in every hot loop.  A
:class:`RecordFormat` replaces those scattered ``encode``/``decode``
callables with one object that

* decodes and encodes **whole blocks** of lines at a time (the built-in
  formats do it with one C-level ``map`` per block, which is where the
  block-batched I/O win of ``repro.engine.block_io`` comes from), and
* knows how to extract the **sort key** from a record (identity for the
  scalar formats; a configurable column for delimited rows).

Formats are plain, attribute-only, top-level classes so instances cross
process boundaries under the ``spawn`` start method (the parallel
partitioned sort ships one to every worker).

Records must be newline-free: one record is one line, always.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core import keycodec

__all__ = [
    "RecordFormat",
    "IntFormat",
    "FloatFormat",
    "FloatRecord",
    "StrFormat",
    "DelimitedFormat",
    "CallableFormat",
    "BinaryRecordFormat",
    "INT",
    "FLOAT",
    "STR",
    "FORMAT_NAMES",
    "resolve_format",
    "normalize_key",
    "denormalize",
]


def _strip_line(line: str) -> str:
    """Remove the terminator ``readline``/``islice`` leave on a line."""
    return line[:-1] if line.endswith("\n") else line


class RecordFormat:
    """Base class: key extraction plus line/block serialisation.

    Subclasses override the block methods with bulk (C-level) paths;
    the defaults delegate to the per-record ``encode``/``decode`` so a
    minimal format only needs those two.

    Attributes
    ----------
    name:
        Identifier used by the CLI ``--format`` flag and in reports.
    numeric:
        True when records support arithmetic (mean heuristic, victim
        buffer gap computation).  Non-numeric formats still sort fine;
        the engine just avoids the numeric-only 2WRS machinery.
    blank_input_skippable:
        True when a whitespace-only input line cannot possibly be a
        record (the numeric formats), so the CLI's historical blank-
        line tolerance may drop it.  False for text formats, where a
        blank or whitespace line *is* a record and must survive.
    """

    name: str = "custom"
    numeric: bool = False
    blank_input_skippable: bool = False

    # -- per-record ------------------------------------------------------------

    def decode(self, text: str) -> Any:
        """One line (terminator already stripped) -> one record."""
        raise NotImplementedError

    def encode(self, record: Any) -> str:
        """One record -> one line (no terminator)."""
        raise NotImplementedError

    def key(self, record: Any) -> Any:
        """The sort key of ``record`` (identity unless overridden)."""
        return record

    # -- field projection (repro.ops) -----------------------------------------

    #: Number of components in :meth:`key`'s result (1 for scalar keys,
    #: ``len(key_columns)`` for multi-column delimited keys).  The
    #: sort-merge join refuses to compare keys of different arity.
    key_arity: int = 1

    def fields(self, record: Any) -> List[str]:
        """``record`` as a list of field texts (one field for scalars).

        The relational operators (:mod:`repro.ops`) build their output
        rows from field projections; scalar formats expose exactly one
        field — the encoded record itself.
        """
        return [self.encode(record)]

    def project(self, record: Any, columns: Sequence[int]) -> List[str]:
        """The field texts of ``record`` at ``columns`` (0-based).

        Raises a clear :class:`ValueError` naming the record when any
        requested column does not exist — the group-by value column and
        join key projections hit this on ragged rows.
        """
        fields = self.fields(record)
        # Negative indexes are rejected too: Python's from-the-end
        # semantics would silently project the wrong column.
        missing = [c for c in columns if c < 0 or c >= len(fields)]
        if missing:
            raise ValueError(
                f"record has {len(fields)} column(s), column(s) "
                f"{', '.join(map(str, missing))} do not exist: "
                f"{self.encode(record)!r}"
            )
        return [fields[c] for c in columns]

    # -- whole blocks ---------------------------------------------------------

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        """Decode a block of raw lines (terminators still attached)."""
        decode = self.decode
        return [decode(_strip_line(line)) for line in lines]

    def encode_block(self, records: Sequence[Any]) -> str:
        """Encode a block of records into one writable string."""
        encode = self.encode
        return "".join([f"{encode(record)}\n" for record in records])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class IntFormat(RecordFormat):
    """One integer per line — the seed CLI's record shape."""

    name = "int"
    numeric = True
    blank_input_skippable = True

    def decode(self, text: str) -> int:
        return int(text)

    def encode(self, record: Any) -> str:
        return str(record)

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        # int() tolerates the trailing newline, so no per-line strip.
        return list(map(int, lines))

    def encode_block(self, records: Sequence[Any]) -> str:
        if not records:
            return ""
        return "\n".join(map(str, records)) + "\n"


class FloatRecord(float):
    """A float that remembers its input spelling (ISSUE 7 satellite 1).

    ``repr`` canonicalisation hid a round-trip bug behind plain
    ``float`` records: ``1e3`` decoded to ``1000.0`` and was written
    back as ``1000.0``, and ``-0.0`` could come back as ``0.0`` — a
    sort changed the bytes of records it should only reorder
    (``sort(1)`` never rewrites a line).  The original text rides
    along here and ``encode`` emits it untouched.

    Comparison, equality, hashing and arithmetic are exactly
    ``float``'s — the text is cargo, not identity.  ``-0.0`` and
    ``0.0`` (or ``1e3`` and ``1000.0``) still compare *equal*, so
    every backend orders equal values stably (input order under the
    stable in-memory sorts, stream order under the merge heap's
    index tiebreak) and output stays byte-identical across backends
    and with plain-float inputs from API callers.
    """

    __slots__ = ("text",)

    def __new__(cls, value: float, text: Optional[str] = None) -> "FloatRecord":
        self = super().__new__(cls, value)
        self.text = float.__repr__(self) if text is None else text
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        return (FloatRecord, (float.__float__(self), self.text))


class FloatFormat(RecordFormat):
    """One float per line, spelling-preserving (:class:`FloatRecord`).

    ``encode`` writes back the record's original text (``1e3`` stays
    ``1e3``); records synthesised as plain floats (datasets, tests)
    encode via ``repr``, which round-trips the value exactly.

    NaN is rejected with a :class:`ValueError`: it is unordered
    against everything, so one NaN record would silently break every
    backend's total-order assumption (the merge heap, ``sorted()``,
    and the byte-identical-across-backends guarantee).  Infinities are
    ordered and pass through fine.
    """

    name = "float"
    numeric = True
    blank_input_skippable = True

    def decode(self, text: str) -> float:
        value = float(text)
        if math.isnan(value):
            raise ValueError(
                f"NaN records are unorderable and cannot be sorted: {text!r}"
            )
        return FloatRecord(value, text)

    def encode(self, record: Any) -> str:
        if isinstance(record, FloatRecord):
            return record.text
        return repr(record)

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        values = list(map(float, lines))
        # One C-level pass; any() short-circuits on the first NaN.
        if any(map(math.isnan, values)):
            bad = next(
                line for line, value in zip(lines, values)
                if math.isnan(value)
            )
            raise ValueError(
                f"NaN records are unorderable and cannot be sorted: "
                f"{_strip_line(bad)!r}"
            )
        return [
            FloatRecord(value, _strip_line(line))
            for value, line in zip(values, lines)
        ]

    def encode_block(self, records: Sequence[Any]) -> str:
        if not records:
            return ""
        encode = self.encode
        return "\n".join([encode(record) for record in records]) + "\n"


class StrFormat(RecordFormat):
    """One opaque (newline-free) string per line, compared as-is."""

    name = "str"
    numeric = False

    def decode(self, text: str) -> str:
        return text

    def encode(self, record: Any) -> str:
        return record

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        return [_strip_line(line) for line in lines]

    def encode_block(self, records: Sequence[Any]) -> str:
        if not records:
            return ""
        return "\n".join(records) + "\n"


def _parse_key(text: str) -> Any:
    """Key column value as a ``(type_rank, value)`` pair.

    Numeric-looking fields (rank 0) compare numerically and sort
    before text fields (rank 1), which compare lexicographically — a
    *total* order even for columns that mix numbers and text, where a
    bare int-or-str fallback would crash the merge heap with a
    ``TypeError`` on the first cross-type comparison.  A literal NaN
    is rejected — it is unordered against every float, so it would
    silently corrupt the merge order.  Python's underscore numeric
    literals (``int("1_2") == 12``) are NOT honoured: ID-like tokens
    such as ``1_2`` stay text, matching what any sort utility does.
    """
    if "_" in text:
        return (1, text)
    try:
        return (0, int(text))
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return (1, text)
        if math.isnan(value):
            raise ValueError(
                f"NaN key values are unorderable and cannot be "
                f"sorted: {text!r}"
            )
        return (0, value)


class DelimitedFormat(RecordFormat):
    """Delimited rows sorted by one or more columns (``--key N[,M...]``).

    A decoded record is the tuple ``(key, line)`` — tuple comparison
    orders by the key column(s) first and breaks ties on the full row
    text, so the sort is total and deterministic for any input.  A
    single-column key is a ``(type_rank, value)`` pair from
    :func:`_parse_key` (numeric fields sort before text fields); a
    multi-column key is a tuple of such pairs, compared column by
    column.  The encoded form is the original row, byte-for-byte.

    Blank and whitespace-only input lines are treated as skippable
    separators (``blank_input_skippable``): they are never data rows.

    **Empty vs. missing key columns** (ISSUE 7 satellite 2) — the two
    look alike but are different inputs and take explicitly different,
    backend-independent paths:

    * an *empty* key column (``a,,c`` with ``--key 1``: the delimiter
      is present, the field is ``""``) is data.  It parses as the text
      pair ``(1, "")``, which sorts after every numeric key and before
      every non-empty text key — GNU ``sort -t, -k2`` places empty
      fields the same way.
    * a *missing* key column (``a`` with ``--key 1``: too few
      delimiters) is a malformed row and raises ``ValueError("row has
      N column(s), key column M does not exist: ...")``.

    Both behaviors are identical across the serial, parallel, and ops
    backends because every backend decodes rows through this one
    method — there is no second parse path that could disagree
    (``tests/test_binary_spill.py`` pins this per backend).
    """

    name = "delimited"
    numeric = False  # records are tuples; no arithmetic on them
    blank_input_skippable = True

    def __init__(
        self,
        delimiter: str = ",",
        key_column: Union[int, Sequence[int]] = 0,
    ) -> None:
        if len(delimiter) != 1 or delimiter == "\n":
            raise ValueError(
                f"delimiter must be a single non-newline character, "
                f"got {delimiter!r}"
            )
        if isinstance(key_column, int):
            columns = (key_column,)
        else:
            columns = tuple(key_column)
            if not columns:
                raise ValueError("at least one key column is required")
        for column in columns:
            if not isinstance(column, int) or column < 0:
                raise ValueError(
                    f"key columns must be non-negative integers, "
                    f"got {column!r}"
                )
        self.delimiter = delimiter
        #: All key columns, in comparison order.
        self.key_columns = columns
        #: The first key column (historical single-column attribute).
        self.key_column = columns[0]
        self.key_arity = len(columns)
        spec = ",".join(map(str, columns))
        self.name = f"csv[{spec}]" if delimiter == "," else (
            f"tsv[{spec}]" if delimiter == "\t"
            else f"delimited[{delimiter!r}:{spec}]"
        )

    def _key_of_fields(self, fields: Sequence[str], text: str) -> Any:
        last = max(self.key_columns)
        if last >= len(fields):
            raise ValueError(
                f"row has {len(fields)} column(s), key column "
                f"{last} does not exist: {text!r}"
            )
        if len(self.key_columns) == 1:
            return _parse_key(fields[self.key_columns[0]])
        return tuple(_parse_key(fields[c]) for c in self.key_columns)

    def decode(self, text: str) -> Any:
        fields = text.split(self.delimiter)
        return (self._key_of_fields(fields, text), text)

    def encode(self, record: Any) -> str:
        return record[1]

    def key(self, record: Any) -> Any:
        return record[0]

    def fields(self, record: Any) -> List[str]:
        return record[1].split(self.delimiter)

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        decode = self.decode
        return [decode(_strip_line(line)) for line in lines]

    def encode_block(self, records: Sequence[Any]) -> str:
        if not records:
            return ""
        return "\n".join([record[1] for record in records]) + "\n"

    def __reduce__(self) -> Tuple[Any, ...]:
        # The name attribute is derived; reconstruct from the inputs so
        # instances stay picklable for spawn workers.
        return (DelimitedFormat, (self.delimiter, self.key_columns))


class CallableFormat(RecordFormat):
    """Adapter for the legacy ``encode``/``decode`` callable pair.

    Keeps :class:`~repro.sort.spill.FileSpillSort`'s original
    constructor contract working; block operations fall back to one
    call per record, which is exactly the seed behaviour (and the
    line-at-a-time baseline ``benchmarks/bench_block_io.py`` measures).
    """

    name = "callable"
    numeric = False
    blank_input_skippable = True  # the seed CLI's integer tolerance

    def __init__(
        self,
        encode: Callable[[Any], str],
        decode: Callable[[str], Any],
    ) -> None:
        self._encode = encode
        self._decode = decode

    def decode(self, text: str) -> Any:
        return self._decode(text)

    def encode(self, record: Any) -> str:
        return self._encode(record)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (CallableFormat, (self._encode, self._decode))


def _key_normalizer(fmt: "RecordFormat") -> Callable[[Any], bytes]:
    """The order-preserving key encoder for ``fmt``'s key type."""
    if isinstance(fmt, BinaryRecordFormat):
        return fmt._normalize
    if isinstance(fmt, IntFormat):
        return keycodec.encode_int_key
    if isinstance(fmt, FloatFormat):
        return keycodec.encode_float_key
    if isinstance(fmt, StrFormat):
        return keycodec.encode_str_key
    if isinstance(fmt, DelimitedFormat):
        arity = fmt.key_arity
        return lambda key: keycodec.encode_column_key(key, arity)
    raise ValueError(
        f"format {fmt.name!r} has no binary key codec; binary spill "
        f"needs one of the built-in formats (int/float/str/delimited)"
    )


def _key_denormalizer(fmt: "RecordFormat") -> Callable[[bytes], Any]:
    """The inverse of :func:`_key_normalizer` (up to ``==``)."""
    if isinstance(fmt, BinaryRecordFormat):
        return fmt._denormalize
    if isinstance(fmt, IntFormat):
        return keycodec.decode_int_key
    if isinstance(fmt, FloatFormat):
        return keycodec.decode_float_key
    if isinstance(fmt, StrFormat):
        return keycodec.decode_str_key
    if isinstance(fmt, DelimitedFormat):
        arity = fmt.key_arity
        return lambda data: keycodec.decode_column_key(data, arity)
    raise ValueError(f"format {fmt.name!r} has no binary key codec")


def normalize_key(fmt: "RecordFormat", key: Any) -> bytes:
    """``fmt``'s sort key as order-preserving bytes (DESIGN.md §14).

    The contract — verified by ``tests/test_keycodec.py`` across all
    formats and input distributions — is order isomorphism
    (``normalize_key(a) < normalize_key(b)`` iff key order says
    ``a < b``) and equality faithfulness (equal keys yield identical
    bytes, so tie-breaks and group boundaries cannot diverge).
    """
    return _key_normalizer(fmt)(key)


def denormalize(fmt: "RecordFormat", data: bytes) -> Any:
    """Decode :func:`normalize_key` bytes back to a key.

    Round-trips up to ``==``: equal keys encode identically by
    design, so e.g. a delimited ``1.0`` comes back as ``1`` (they are
    the same key) and ``-0.0`` comes back as ``0.0``.
    """
    return _key_denormalizer(fmt)(data)


class BinaryRecordFormat(RecordFormat):
    """Delimited rows that carry order-preserving key bytes.

    A record is the pair ``(key_bytes, payload_bytes)``: ``key_bytes``
    is :func:`normalize_key` of the row's parsed key column(s),
    ``payload_bytes`` the row itself as UTF-8.  Python's tuple
    comparison then compares raw bytes — key first, the row as the
    tie-break — which is exactly :class:`DelimitedFormat`'s ``(key,
    row text)`` order, so run generation, the merge heap, shard cut
    points and the ops operators order rows with C-level ``bytes``
    compares and never re-parse a key in a hot loop.

    :func:`resolve_format` gives ``csv`` and ``tsv`` this shape, and
    only delimited rows take it: a scalar record *is* its key, so key
    bytes would buy no cheaper comparison, and for ints they would
    take away the arithmetic 2WRS's victim buffer and Mean heuristic
    run on (DESIGN.md §14).

    The wrapper speaks both boundaries:

    * the *text* side (``decode``/``decode_block`` on input lines,
      ``encode``/``encode_block`` back to output lines) normalises on
      the way in and emits the stored row untouched on the way out,
      so output bytes are the input rows, reordered;
    * the *binary* side is handled by ``repro.engine.block_io``:
      ``spill_binary`` makes every spill block body length-prefixed
      ``(key, payload)`` records, which move the tuples to and from
      spill files without any re-encoding.

    ``fields``/``project`` split the stored row, so the operators'
    output stage never parses a key a second time.
    """

    numeric = False
    #: block_io writes this format's block bodies as binary records.
    spill_binary = True

    def __init__(self, base: DelimitedFormat) -> None:
        if not isinstance(base, DelimitedFormat):
            raise TypeError(
                f"binary key bytes are for delimited rows only; got "
                f"{type(base).__name__}"
            )
        self.base = base
        # The user-facing format is still csv/tsv; the body encoding
        # is a spill detail (block_io.body_encoding names it).
        self.name = base.name
        self.blank_input_skippable = base.blank_input_skippable
        self.delimiter = base.delimiter
        self.key_columns = base.key_columns
        self.key_arity = base.key_arity
        self._normalize = _key_normalizer(base)
        self._denormalize = _key_denormalizer(base)

    # -- text side (input/output boundary) ------------------------------------

    def decode(self, text: str) -> Any:
        key, row = self.base.decode(text)
        return (self._normalize(key), row.encode("utf-8"))

    def encode(self, record: Any) -> str:
        return record[1].decode("utf-8")

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        normalize = self._normalize
        return [
            (normalize(key), row.encode("utf-8"))
            for key, row in self.base.decode_block(lines)
        ]

    def encode_block(self, records: Sequence[Any]) -> str:
        if not records:
            return ""
        payloads = b"\n".join([record[1] for record in records])
        return (payloads + b"\n").decode("utf-8")

    # -- keys and fields -------------------------------------------------------

    def key(self, record: Any) -> bytes:
        return record[0]

    def fields(self, record: Any) -> List[str]:
        return record[1].decode("utf-8").split(self.delimiter)

    def __reduce__(self) -> Tuple[Any, ...]:
        # Reconstruct through the constructor so spawn workers rebuild
        # the codec closures (they are not picklable themselves).
        return (BinaryRecordFormat, (self.base,))


#: Shared stateless instances (all formats are stateless and reusable).
INT = IntFormat()
FLOAT = FloatFormat()
STR = StrFormat()

#: Names accepted by :func:`resolve_format` and the CLI ``--format``.
FORMAT_NAMES = ("int", "float", "str", "csv", "tsv")


def resolve_format(
    name: str,
    key: Union[int, Sequence[int]] = 0,
    delimiter: Optional[str] = None,
) -> RecordFormat:
    """Build the :class:`RecordFormat` a CLI spec names.

    ``key`` — an int or a sequence of ints for multi-column keys — and
    ``delimiter`` (for exotic separators) only apply to the delimited
    formats; ``csv`` and ``tsv`` fix the separator.

    The name decides the record shape, and with it the spill body:
    ``csv``/``tsv`` rows carry order-preserving key bytes
    (:class:`BinaryRecordFormat`, binary bodies), ints spill as int64
    arrays, floats and strings as text.
    """
    if name == "int":
        return INT
    if name == "float":
        return FLOAT
    if name == "str":
        return STR
    if name == "csv":
        return BinaryRecordFormat(DelimitedFormat(delimiter or ",", key))
    if name == "tsv":
        return BinaryRecordFormat(DelimitedFormat(delimiter or "\t", key))
    raise ValueError(
        f"unknown record format {name!r}; known: {', '.join(FORMAT_NAMES)}"
    )
