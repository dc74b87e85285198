"""DelimitedFormat key edge cases the relational operators hit.

Missing key columns, duplicate header-like rows, multi-column keys,
field projection, and numeric-vs-text ranked keys flowing through
join and group-by without a ``TypeError``.
"""

import pickle

import pytest

from repro.core.config import GeneratorSpec
from repro.core.records import DelimitedFormat, INT, STR, resolve_format
from repro.engine.planner import SortEngine
from repro.ops import Distinct, GroupByAggregate, SortMergeJoin


def engine_for(fmt, memory=16):
    return SortEngine(GeneratorSpec("lss", memory), record_format=fmt)


class TestMissingKeyColumn:
    def test_decode_names_row_and_column(self):
        fmt = DelimitedFormat(",", 3)
        with pytest.raises(ValueError, match="key column 3 does not exist"):
            fmt.decode("a,b")

    def test_multi_column_checks_largest(self):
        fmt = DelimitedFormat(",", (0, 5))
        with pytest.raises(ValueError, match="key column 5"):
            fmt.decode("a,b,c")

    def test_operator_surfaces_the_error(self):
        fmt = DelimitedFormat(",", 2)
        op = Distinct(engine_for(fmt))
        rows = ["a,b,c", "x,y"]  # second row lacks the key column
        with pytest.raises(ValueError, match="does not exist"):
            list(op.run(fmt.decode(row) for row in rows))


class TestHeaderLikeRows:
    """CSV exports repeat header rows when files are concatenated;
    dedup must collapse them like any other duplicate record."""

    def test_duplicate_headers_dedup_to_one(self):
        fmt = DelimitedFormat(",", 0)
        rows = ["id,name", "3,carol", "id,name", "1,alice", "id,name"]
        op = Distinct(engine_for(fmt))
        out = [
            fmt.encode(r) for r in op.run([fmt.decode(row) for row in rows])
        ]
        # Numeric ids rank before the text header key "id".
        assert out == ["1,alice", "3,carol", "id,name"]


class TestMultiColumnKeys:
    def test_orders_column_by_column(self):
        fmt = DelimitedFormat(",", (1, 0))
        rows = ["b,1", "a,2", "a,1", "b,0"]
        decoded = sorted(fmt.decode(row) for row in rows)
        assert [fmt.encode(r) for r in decoded] == [
            "b,0", "a,1", "b,1", "a,2"
        ]

    def test_arity_and_name(self):
        fmt = DelimitedFormat(",", (0, 2))
        assert fmt.key_arity == 2
        assert fmt.key_column == 0
        assert fmt.name == "csv[0,2]"
        assert DelimitedFormat(",", 1).key_arity == 1

    def test_resolve_format_accepts_sequences(self):
        fmt = resolve_format("tsv", key=(1, 0))
        assert fmt.key_columns == (1, 0)
        assert fmt.name == "tsv[1,0]"

    def test_pickle_round_trip(self):
        fmt = DelimitedFormat(",", (0, 2))
        clone = pickle.loads(pickle.dumps(fmt))
        assert clone.key_columns == (0, 2)
        assert clone.decode("a,b,c") == fmt.decode("a,b,c")

    def test_empty_key_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one key column"):
            DelimitedFormat(",", ())

    def test_negative_key_column_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DelimitedFormat(",", (0, -1))

    def test_multi_column_group_by(self):
        fmt = DelimitedFormat(",", (0, 1))
        rows = ["us,web,1", "us,app,2", "us,web,3", "de,web,4"]
        op = GroupByAggregate(
            engine_for(fmt), ("count", "sum"), value_column=2
        )
        out = list(op.run([fmt.decode(r) for r in rows]))
        assert out == ["de,web,1,4", "us,app,1,2", "us,web,2,4"]

    def test_multi_column_join(self):
        fmt = DelimitedFormat(",", (0, 1))
        left = [fmt.decode("us,web,1"), fmt.decode("us,app,2")]
        right = [fmt.decode("us,web,hit"), fmt.decode("de,web,miss")]
        op = SortMergeJoin(engine_for(fmt), engine_for(fmt))
        out = list(op.run(left, right))
        assert out == ["us,web,1,hit"]


class TestFieldProjection:
    def test_delimited_fields_and_project(self):
        fmt = DelimitedFormat(",", 1)
        record = fmt.decode("a,b,c")
        assert fmt.fields(record) == ["a", "b", "c"]
        assert fmt.project(record, (2, 0)) == ["c", "a"]

    def test_project_missing_column_raises(self):
        fmt = DelimitedFormat(",", 0)
        with pytest.raises(ValueError, match="column\\(s\\) 9 do not exist"):
            fmt.project(fmt.decode("a,b"), (9,))

    def test_project_negative_column_raises(self):
        # Python's from-the-end indexing would silently project the
        # wrong column for API callers passing computed indexes.
        fmt = DelimitedFormat(",", 0)
        with pytest.raises(ValueError, match="-1 do not exist"):
            fmt.project(fmt.decode("a,b,c"), (-1,))

    def test_scalar_formats_expose_one_field(self):
        assert INT.fields(42) == ["42"]
        assert INT.project(42, (0,)) == ["42"]
        assert STR.fields("hi") == ["hi"]
        with pytest.raises(ValueError, match="do not exist"):
            INT.project(42, (1,))


class TestRankedKeysThroughOperators:
    """Key columns mixing numbers and text must never TypeError."""

    ROWS = ["10,a", "beta,b", "2,c", "10.5,d", "alpha,e", "2,f"]

    def fmt(self):
        return DelimitedFormat(",", 0)

    def test_group_by_mixed_keys(self):
        fmt = self.fmt()
        op = GroupByAggregate(engine_for(fmt, memory=2), ("count",))
        out = list(op.run([fmt.decode(r) for r in self.ROWS]))
        # Numbers ascend first, then text lexicographically.
        assert out == ["2,2", "10,1", "10.5,1", "alpha,1", "beta,1"]

    def test_join_mixed_keys(self):
        fmt = self.fmt()
        op = SortMergeJoin(
            engine_for(fmt, memory=2), engine_for(self.fmt(), memory=2)
        )
        left = [fmt.decode(r) for r in self.ROWS]
        right = [fmt.decode("10,x"), fmt.decode("alpha,y")]
        out = list(op.run(left, right))
        assert out == ["10,a,x", "alpha,e,y"]

    def test_distinct_by_key_mixed(self):
        fmt = self.fmt()
        op = Distinct(engine_for(fmt, memory=2), by="key")
        out = [
            fmt.encode(r) for r in op.run([fmt.decode(r) for r in self.ROWS])
        ]
        assert out == ["2,c", "10,a", "10.5,d", "alpha,e", "beta,b"]

    def test_numeric_equivalence_groups_across_spellings(self):
        # "2" and "2.0" parse to equal ranked keys; group-by must fold
        # them into one group keyed by the first row in sorted order.
        fmt = self.fmt()
        op = GroupByAggregate(engine_for(fmt), ("count",))
        rows = ["2.0,a", "2,b"]
        out = list(op.run([fmt.decode(r) for r in rows]))
        assert out == ["2,2"]
