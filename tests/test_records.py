"""Tests for the pluggable record formats (repro.core.records)."""

import pickle

import pytest

from repro.core.records import (
    FLOAT,
    FORMAT_NAMES,
    INT,
    STR,
    CallableFormat,
    DelimitedFormat,
    denormalize,
    resolve_format,
)


class TestScalarFormats:
    @pytest.mark.parametrize(
        "fmt,values",
        [
            (INT, [-5, 0, 3, 1_000_000_007]),
            (FLOAT, [-1.25, 0.0, 3.5, 1e-9, 12345.6789]),
            (STR, ["", "apple", "pear with spaces", "ünïcode"]),
        ],
        ids=["int", "float", "str"],
    )
    def test_line_round_trip(self, fmt, values):
        for value in values:
            assert fmt.decode(fmt.encode(value)) == value

    @pytest.mark.parametrize(
        "fmt,values",
        [
            (INT, [7, -3, 42]),
            (FLOAT, [1.5, -2.25, 0.0]),
            (STR, ["b", "a", "c"]),
        ],
        ids=["int", "float", "str"],
    )
    def test_block_round_trip(self, fmt, values):
        text = fmt.encode_block(values)
        # Blocks are written as-is to files and read back as raw lines
        # with their terminators.
        lines = text.splitlines(keepends=True)
        assert fmt.decode_block(lines) == values

    def test_block_of_nothing(self):
        assert INT.encode_block([]) == ""
        assert INT.decode_block([]) == []

    def test_block_matches_per_record_encoding(self):
        values = [3, 1, 2]
        assert INT.encode_block(values) == "".join(
            f"{INT.encode(v)}\n" for v in values
        )

    def test_scalar_key_is_identity(self):
        assert INT.key(42) == 42
        assert STR.key("abc") == "abc"

    def test_numeric_flags(self):
        assert INT.numeric and FLOAT.numeric
        assert not STR.numeric
        assert not DelimitedFormat().numeric

    def test_float_repr_round_trips_exactly(self):
        value = 0.1 + 0.2  # famously not 0.3
        assert FLOAT.decode(FLOAT.encode(value)) == value

    def test_float_rejects_nan(self):
        # NaN is unordered against everything: one NaN record would
        # silently corrupt the merge order of every backend.
        with pytest.raises(ValueError, match="NaN"):
            FLOAT.decode("nan")
        with pytest.raises(ValueError, match="NaN"):
            FLOAT.decode_block(["1.0\n", "nan\n", "2.0\n"])

    def test_float_accepts_infinities(self):
        assert FLOAT.decode_block(["-inf\n", "1.5\n", "inf\n"]) == [
            float("-inf"),
            1.5,
            float("inf"),
        ]


class TestDelimitedFormat:
    def test_key_extraction_and_tie_break(self):
        fmt = DelimitedFormat(",", 1)
        a = fmt.decode("x,5,first")
        b = fmt.decode("y,5,second")
        c = fmt.decode("z,3,third")
        assert fmt.key(a) == (0, 5)
        # Same key: ties break on the full row text, so sorting is total.
        assert sorted([b, a, c]) == [c, a, b]

    def test_encode_preserves_row_bytes(self):
        fmt = DelimitedFormat(",", 0)
        row = "7,  spaced ,trailing,"
        assert fmt.encode(fmt.decode(row)) == row

    def test_numeric_then_text_keys(self):
        fmt = DelimitedFormat(",", 0)
        assert fmt.key(fmt.decode("12,a")) == (0, 12)
        assert fmt.key(fmt.decode("1.5,a")) == (0, 1.5)
        assert fmt.key(fmt.decode("west,a")) == (1, "west")

    def test_mixed_numeric_and_text_key_column_still_sorts(self):
        # A text column where one value looks numeric must not crash
        # the merge with a str-vs-int TypeError: numeric keys rank
        # before text keys, and each group compares within itself.
        fmt = DelimitedFormat(",", 1)
        rows = ["a,1", "b,xyz", "c,3", "d,2.5", "e,abc"]
        records = sorted(fmt.decode(r) for r in rows)
        assert [fmt.encode(r) for r in records] == [
            "a,1",
            "d,2.5",
            "c,3",
            "e,abc",
            "b,xyz",
        ]

    def test_underscore_tokens_stay_text(self):
        # int("1_2") == 12 in Python, but an ID-like token must not be
        # silently coerced to a number.
        fmt = DelimitedFormat(",", 0)
        assert fmt.key(fmt.decode("1_2,a")) == (1, "1_2")
        rows = sorted(fmt.decode(r) for r in ["1_2,a", "9,b", "03,c"])
        assert [fmt.encode(r) for r in rows] == ["03,c", "9,b", "1_2,a"]

    def test_nan_key_column_rejected(self):
        fmt = DelimitedFormat(",", 1)
        with pytest.raises(ValueError, match="NaN"):
            fmt.decode("row1,nan,x")

    def test_blank_skippability_by_format(self):
        # Whitespace lines can never be numeric or delimited records
        # (rows), but for the str format they ARE records and must not
        # be skippable.
        assert INT.blank_input_skippable
        assert FLOAT.blank_input_skippable
        assert DelimitedFormat().blank_input_skippable
        assert not STR.blank_input_skippable

    def test_missing_key_column_is_a_clear_error(self):
        fmt = DelimitedFormat(",", 3)
        with pytest.raises(ValueError, match="key column 3"):
            fmt.decode("only,two,columns".replace("three", ""))

    def test_block_round_trip(self):
        fmt = DelimitedFormat(",", 1)
        rows = ["a,2,x", "b,1,y", "c,3,z"]
        records = fmt.decode_block([r + "\n" for r in rows])
        assert [fmt.key(r) for r in records] == [(0, 2), (0, 1), (0, 3)]
        assert fmt.encode_block(records) == "".join(r + "\n" for r in rows)

    def test_tsv(self):
        fmt = resolve_format("tsv", key=1)
        record = fmt.decode("alpha\t9\tomega")
        # tsv rows carry key bytes that decode back to the parsed key.
        assert denormalize(fmt, fmt.key(record)) == (0, 9)
        assert fmt.encode(record) == "alpha\t9\tomega"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DelimitedFormat(",,", 0)
        with pytest.raises(ValueError):
            DelimitedFormat("\n", 0)
        with pytest.raises(ValueError):
            DelimitedFormat(",", -1)

    def test_picklable_for_spawn_workers(self):
        fmt = DelimitedFormat(";", 2)
        clone = pickle.loads(pickle.dumps(fmt))
        assert clone.delimiter == ";"
        assert clone.key_column == 2
        assert clone.key(clone.decode("a;b;5")) == (0, 5)


class TestCallableFormat:
    def test_wraps_legacy_pair(self):
        fmt = CallableFormat(repr, float)
        assert fmt.decode(fmt.encode(2.5)) == 2.5
        text = fmt.encode_block([1.5, 2.5])
        assert fmt.decode_block(text.splitlines(keepends=True)) == [1.5, 2.5]

    def test_picklable_with_top_level_callables(self):
        fmt = CallableFormat(str, int)
        clone = pickle.loads(pickle.dumps(fmt))
        assert clone.decode("7") == 7


class TestResolveFormat:
    @pytest.mark.parametrize("name", FORMAT_NAMES)
    def test_known_names_resolve(self, name):
        assert resolve_format(name, key=1) is not None

    def test_unknown_name_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown record format"):
            resolve_format("xml")

    def test_scalar_formats_are_shared_instances(self):
        assert resolve_format("int") is INT
        assert resolve_format("str") is STR
