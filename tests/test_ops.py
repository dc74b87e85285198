"""The repro.ops operators: semantics, memory bounds, backend identity.

Each operator is checked three ways:

* **semantics** against trivial Python oracles (set/dict/sorted);
* **byte identity** across execution modes — in-memory vs spilled
  (tiny ``memory``) and serial vs ``workers=2`` must produce the same
  output, record for record;
* **bounded memory** via the engine's SpillSession peak
  instrumentation: the aggregating merge never materialises a group.
"""

import random

import pytest

from repro.core.config import GeneratorSpec
from repro.core.records import INT, STR, resolve_format
from repro.engine.planner import SortEngine
from repro.merge.kway import grouped, kway_merge
from repro.ops import (
    AGGREGATES,
    Distinct,
    GroupByAggregate,
    SortMergeJoin,
    TopK,
)
from repro.ops.base import OperatorPlan

MEMORY = 64


def small_engine(record_format=INT, memory=MEMORY, **kwargs):
    return SortEngine(
        GeneratorSpec("lss", memory), record_format=record_format, **kwargs
    )


def int_corpus(n=2_000, dupes=True, seed=11):
    rng = random.Random(seed)
    top = n // 4 if dupes else 10 * n
    return [rng.randint(0, top) for _ in range(n)]


def csv_corpus(n=2_000, keys=40, seed=13):
    rng = random.Random(seed)
    fmt = resolve_format("csv", key=0)
    rows = [
        f"k{rng.randint(0, keys):03d},{rng.randint(-100, 100)},"
        f"p{rng.randint(0, 9)}"
        for _ in range(n)
    ]
    return fmt, [fmt.decode(row) for row in rows]


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


class TestPlanOperator:
    """Each operator plans once; the plan shows the executed mode."""

    def test_topk_heap_short_circuit(self):
        op = TopK(small_engine(memory=100), 10)
        list(op.run(int_corpus(500)))
        assert op.plan.mode == "heap"
        assert op.plan.sort_plan is None

    def test_topk_large_k_delegates_to_sort(self):
        op = TopK(small_engine(memory=100), 1_000)
        list(op.run(int_corpus(500)))
        assert op.plan.mode == "sort"
        assert op.plan.sort_plan is not None

    def test_topk_parallel_never_heap(self):
        op = TopK(small_engine(memory=100, workers=2), 10)
        list(op.run(int_corpus(500)))
        assert op.plan.mode == "sort"
        assert op.plan.sort_plan.mode == "parallel"

    def test_small_known_input_is_in_memory(self):
        op = Distinct(small_engine(memory=100))
        list(op.run(int_corpus(50), input_records=50))
        assert op.plan.mode == "in_memory"

    def test_unknown_input_sorts(self):
        op = GroupByAggregate(small_engine(memory=100))
        list(op.run(iter(int_corpus(500))))
        assert op.plan.mode == "sort"

    def test_topk_needs_k(self):
        with pytest.raises(TypeError):
            TopK(small_engine())


# ---------------------------------------------------------------------------
# grouped merge
# ---------------------------------------------------------------------------


class TestGroupedMerge:
    def test_groups_span_runs(self):
        runs = [[1, 1, 3, 5], [1, 2, 3], [3, 3, 9]]
        groups = [
            (key, list(group))
            for key, group in grouped(kway_merge(runs), lambda r: r)
        ]
        assert groups == [
            (1, [1, 1, 1]),
            (2, [2]),
            (3, [3, 3, 3, 3]),
            (5, [5]),
            (9, [9]),
        ]

    def test_unconsumed_groups_are_skipped(self):
        keys = [key for key, _ in grouped(iter([1, 1, 2, 3, 3]), lambda r: r)]
        assert keys == [1, 2, 3]


# ---------------------------------------------------------------------------
# distinct
# ---------------------------------------------------------------------------


class TestDistinct:
    def test_matches_sorted_set(self):
        data = int_corpus()
        assert list(Distinct(small_engine()).run(data)) == sorted(set(data))

    def test_report_counts(self):
        data = [3, 1, 3, 3, 2]
        op = Distinct(small_engine())
        out = list(op.run(data))
        report = op.report
        assert out == [1, 2, 3]
        assert (report.rows_in, report.rows_out, report.groups) == (5, 3, 3)
        assert report.operator == "distinct"

    def test_by_key_keeps_first_row_per_key(self):
        fmt = resolve_format("csv", key=0)
        rows = ["a,2", "a,1", "b,9"]
        op = Distinct(small_engine(fmt), by="key")
        out = list(op.run([fmt.decode(r) for r in rows]))
        # First record in (key, row) order: "a,1" beats "a,2".
        assert [fmt.encode(r) for r in out] == ["a,1", "b,9"]

    def test_by_record_keeps_distinct_rows_sharing_a_key(self):
        fmt = resolve_format("csv", key=0)
        rows = ["a,2", "a,1", "a,1"]
        op = Distinct(small_engine(fmt))
        out = list(op.run([fmt.decode(r) for r in rows]))
        assert [fmt.encode(r) for r in out] == ["a,1", "a,2"]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="by must be one of"):
            Distinct(small_engine(), by="hash")

    def test_in_memory_vs_spilled_identical(self):
        data = int_corpus()
        spilled = list(Distinct(small_engine(memory=16)).run(list(data)))
        in_memory = list(
            Distinct(small_engine(memory=100_000)).run(list(data))
        )
        assert spilled == in_memory

    def test_serial_vs_parallel_identical(self):
        data = int_corpus(600)
        serial = list(Distinct(small_engine()).run(list(data)))
        parallel = list(Distinct(small_engine(workers=2)).run(list(data)))
        assert serial == parallel

    def test_empty_input(self):
        op = Distinct(small_engine())
        assert list(op.run([])) == []
        assert op.report.rows_in == 0

    def test_abandoned_stream_cleans_up_and_reports(self, tmp_path):
        op = Distinct(
            SortEngine(GeneratorSpec("lss", 16), tmp_dir=str(tmp_path))
        )
        stream = op.run(iter(int_corpus(500)))
        next(stream)
        stream.close()
        report = op.report
        assert report.rows_in == 500
        assert report.rows_out == 1
        # The engine's spill directory is gone despite early abandon.
        assert not any(tmp_path.iterdir())

    def test_executed_plan_reported_for_small_input(self):
        engine = small_engine(memory=1_000)
        op = Distinct(engine)
        list(op.run(iter([3, 1, 2])))  # unknown size; probe fits memory
        assert op.plan.mode == "in_memory"
        assert op.plan.sort_plan.mode == "in_memory"


# ---------------------------------------------------------------------------
# group-by aggregate
# ---------------------------------------------------------------------------


def dict_aggregate(rows, aggregates):
    """Oracle: fold (key, value) pairs through a plain dict."""
    groups = {}
    for key, value in rows:
        groups.setdefault(key, []).append(value)
    out = []
    for key in sorted(groups):
        values = groups[key]
        fields = [key]
        for aggregate in aggregates:
            if aggregate == "count":
                fields.append(str(len(values)))
            elif aggregate == "sum":
                fields.append(str(sum(values)))
            elif aggregate == "min":
                fields.append(str(min(values)))
            elif aggregate == "max":
                fields.append(str(max(values)))
            else:
                fields.append(repr(sum(values) / len(values)))
        out.append(",".join(fields))
    return out


class TestGroupByAggregate:
    def test_all_aggregates_against_dict_oracle(self):
        fmt, records = csv_corpus()
        pairs = [
            (fmt.fields(r)[0], int(fmt.fields(r)[1])) for r in records
        ]
        op = GroupByAggregate(
            small_engine(fmt), AGGREGATES, value_column=1
        )
        got = list(op.run(records))
        assert got == dict_aggregate(pairs, AGGREGATES)

    def test_scalar_format_aggregates_itself(self):
        op = GroupByAggregate(small_engine(), ("count", "sum"))
        got = list(op.run([5, 5, 2, 5]))
        assert got == ["2,1,2", "5,3,15"]

    def test_min_max_survive_mixed_numeric_text_values(self):
        fmt = resolve_format("csv", key=0)
        rows = ["a,5", "a,xyz", "a,-3", "a,abc"]
        op = GroupByAggregate(
            small_engine(fmt), ("min", "max"), value_column=1
        )
        got = list(op.run([fmt.decode(r) for r in rows]))
        # Numbers rank before text: min is -3, max is the largest text.
        assert got == ["a,-3,xyz"]

    def test_sum_over_text_value_raises(self):
        fmt = resolve_format("csv", key=0)
        op = GroupByAggregate(small_engine(fmt), ("sum",), value_column=1)
        with pytest.raises(ValueError, match="needs numeric values"):
            list(op.run([fmt.decode("a,oops")]))

    def test_value_column_required_for_delimited_sum(self):
        fmt = resolve_format("csv", key=0)
        with pytest.raises(ValueError, match="value_column"):
            GroupByAggregate(small_engine(fmt), aggregates=("sum",))

    def test_value_column_rejected_for_scalars(self):
        with pytest.raises(ValueError, match="only applies to delimited"):
            GroupByAggregate(small_engine(), value_column=1)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            GroupByAggregate(small_engine(), aggregates=("median",))

    def test_missing_value_column_raises_cleanly(self):
        fmt = resolve_format("csv", key=0)
        op = GroupByAggregate(small_engine(fmt), ("sum",), value_column=7)
        with pytest.raises(ValueError, match="do not exist"):
            list(op.run([fmt.decode("a,1")]))

    def test_groups_never_materialise(self):
        """Peak buffered records stay within memory + fan_in * buffer."""
        fmt, records = csv_corpus(6_000, keys=3)  # huge skewed groups
        engine = small_engine(
            fmt, memory=64, fan_in=4, buffer_records=32
        )
        op = GroupByAggregate(engine, ("count", "sum"), value_column=1)
        out = list(op.run(records))
        assert len(out) <= 4
        assert engine.plan.mode == "spill"
        assert engine.max_resident_records <= 64 + 4 * 32

    def test_in_memory_vs_spilled_identical(self):
        fmt, records = csv_corpus()
        aggregates = ("count", "sum", "avg")
        spilled, in_memory = (
            GroupByAggregate(
                small_engine(fmt, memory=memory), aggregates, value_column=1
            )
            for memory in (16, 100_000)
        )
        assert list(spilled.run(list(records))) == list(
            in_memory.run(list(records))
        )

    def test_serial_vs_parallel_identical(self):
        fmt, records = csv_corpus(800)
        serial = GroupByAggregate(small_engine(fmt))
        parallel = GroupByAggregate(small_engine(fmt, workers=2))
        assert list(serial.run(list(records))) == list(
            parallel.run(list(records))
        )

    def test_empty_input(self):
        fmt = resolve_format("csv", key=0)
        op = GroupByAggregate(small_engine(fmt))
        assert list(op.run([])) == []


# ---------------------------------------------------------------------------
# sort-merge join
# ---------------------------------------------------------------------------


def join_oracle(left_rows, right_rows):
    """Left-major nested-loop join over csv rows keyed on column 0."""
    out = []
    for left in sorted(left_rows, key=lambda r: (r.split(",")[0], r)):
        left_fields = left.split(",")
        for right in sorted(
            right_rows, key=lambda r: (r.split(",")[0], r)
        ):
            right_fields = right.split(",")
            if left_fields[0] == right_fields[0]:
                out.append(
                    ",".join(left_fields + right_fields[1:])
                )
    return out


def join_corpus(n=400, keys=30, seed=17):
    rng = random.Random(seed)
    left = [
        f"k{rng.randint(0, keys):02d},{rng.randint(0, 999)}"
        for _ in range(n)
    ]
    right = [
        f"k{rng.randint(0, keys):02d},r{rng.randint(0, 999)}"
        for _ in range(n)
    ]
    return left, right


class TestSortMergeJoin:
    def run_join(
        self, left_rows, right_rows, memory=MEMORY, workers=1, **kwargs
    ):
        fmt = resolve_format("csv", key=0)
        op = SortMergeJoin(
            small_engine(fmt, memory=memory, workers=workers),
            small_engine(fmt, memory=memory, workers=workers),
            **kwargs,
        )
        out = list(
            op.run(
                [fmt.decode(r) for r in left_rows],
                [fmt.decode(r) for r in right_rows],
            )
        )
        return out, op

    def test_matches_nested_loop_oracle(self):
        left, right = join_corpus()
        got, _ = self.run_join(left, right)
        assert got == join_oracle(left, right)

    def test_duplicate_keys_cross_product(self):
        got, op = self.run_join(["a,1", "a,2"], ["a,x", "a,y", "a,z"])
        assert got == [
            "a,1,x", "a,1,y", "a,1,z",
            "a,2,x", "a,2,y", "a,2,z",
        ]
        report = op.report
        assert report.matches == 6
        assert report.groups == 1
        assert report.rows_in == 5

    def test_skew_fallback_spills_loudly(self, capsys):
        left = ["hot,%d" % i for i in range(4)] + ["cold,0"]
        right = ["hot,r%03d" % i for i in range(50)] + ["cold,r0"]
        got, op = self.run_join(left, right, buffer_limit=8)
        assert got == join_oracle(left, right)
        assert op.report.skew_spills == 1
        assert "spilling" in capsys.readouterr().err

    def test_checksummed_skew_spill_round_trips(self):
        # The join's own skew spill file is a checksummed block stream.
        fmt = resolve_format("csv", key=0)
        op = SortMergeJoin(
            SortEngine(GeneratorSpec("lss", MEMORY), record_format=fmt),
            SortEngine(
                GeneratorSpec("lss", MEMORY),
                record_format=resolve_format("csv", key=0),
            ),
            buffer_limit=8,
        )
        left = ["k,%d" % i for i in range(3)]
        right = ["k,r%03d" % i for i in range(50)]
        got = list(
            op.run(
                [fmt.decode(r) for r in left],
                [fmt.decode(r) for r in right],
            )
        )
        assert op.report.skew_spills == 1
        assert got == join_oracle(left, right)

    def test_skewed_output_identical_to_unspilled(self):
        left, right = join_corpus(200, keys=2)  # massive duplicate groups
        spilled, op = self.run_join(left, right, buffer_limit=4)
        assert op.report.skew_spills > 0
        plain, _ = self.run_join(left, right)
        assert spilled == plain

    def test_scalar_join_is_intersection_with_multiplicity(self):
        op = SortMergeJoin(small_engine(), small_engine())
        got = list(op.run([3, 1, 3, 9], [3, 2, 9, 9]))
        assert got == ["3", "3", "9", "9"]

    def test_mismatched_key_kinds_rejected(self):
        with pytest.raises(ValueError, match="cannot join"):
            SortMergeJoin(small_engine(INT), small_engine(STR))

    def test_mismatched_key_arity_rejected(self):
        left = small_engine(resolve_format("csv", key=(0, 1)))
        right = small_engine(resolve_format("csv", key=0))
        with pytest.raises(ValueError, match="arities differ"):
            SortMergeJoin(left, right)

    def test_same_engine_rejected(self):
        engine = small_engine(resolve_format("csv", key=0))
        with pytest.raises(ValueError, match="separate engines"):
            SortMergeJoin(engine, engine)

    def test_differing_key_columns_per_side(self):
        left_fmt = resolve_format("csv", key=0)
        right_fmt = resolve_format("csv", key=1)
        op = SortMergeJoin(small_engine(left_fmt), small_engine(right_fmt))
        got = list(
            op.run([left_fmt.decode("a,1")], [right_fmt.decode("zzz,a")])
        )
        assert got == ["a,1,zzz"]

    def test_in_memory_vs_spilled_identical(self):
        left, right = join_corpus()
        spilled, _ = self.run_join(left, right, memory=8)
        in_memory, _ = self.run_join(left, right, memory=100_000)
        assert spilled == in_memory

    def test_serial_vs_parallel_identical(self):
        left, right = join_corpus()
        serial, _ = self.run_join(left, right)
        parallel, _ = self.run_join(left, right, workers=2)
        assert serial == parallel

    def test_disjoint_keys_join_empty(self):
        got, op = self.run_join(["a,1"], ["b,2"])
        assert got == []
        assert op.report.matches == 0

    def test_empty_sides(self):
        assert self.run_join([], ["a,1"])[0] == []
        assert self.run_join(["a,1"], [])[0] == []
        assert self.run_join([], [])[0] == []

    def test_plan_reflects_wider_side(self):
        # Tiny left, spilling right: the reported plan must not claim
        # the whole join ran in memory.
        left = ["a,1"]
        right = [f"k{i:04d},{i}" for i in range(2_000)] + ["a,x"]
        got, op = self.run_join(left, right, memory=100)
        assert got == ["a,1,x"]
        assert op.plan.mode == "sort"


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------


class TestTopK:
    def test_matches_sorted_head(self):
        data = int_corpus()
        op = TopK(small_engine(memory=1_000), 25)
        assert list(op.run(data)) == sorted(data)[:25]

    def test_heap_short_circuit_is_planned(self):
        engine = small_engine(memory=1_000)
        op = TopK(engine, 10)
        out = list(op.run(iter(int_corpus(500))))
        assert op.plan.mode == "heap"
        assert "HEAP" in op.report.algorithm
        assert len(out) == 10

    def test_heap_vs_sorted_path_identical(self):
        data = int_corpus()
        k = 200
        heap_out = list(TopK(small_engine(memory=1_000), k).run(list(data)))
        sort_out = list(TopK(small_engine(memory=16), k).run(list(data)))
        assert heap_out == sort_out == sorted(data)[:k]

    def test_serial_vs_parallel_identical(self):
        data = int_corpus(800)
        serial = list(TopK(small_engine(memory=32), 100).run(list(data)))
        parallel = list(
            TopK(small_engine(memory=32, workers=2), 100).run(list(data))
        )
        assert serial == parallel

    def test_k_larger_than_input(self):
        data = [3, 1, 2]
        assert list(TopK(small_engine(), 100).run(data)) == [1, 2, 3]

    def test_k_zero(self):
        op = TopK(small_engine(), 0)
        assert list(op.run([5, 1])) == []
        assert op.report.rows_in == 2

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            TopK(small_engine(), -1)

    def test_sorted_path_reports_rows(self):
        op = TopK(small_engine(memory=16), 40)
        out = list(op.run(int_corpus(500)))
        report = op.report
        assert len(out) == 40
        assert report.rows_in == 500
        assert report.rows_out == 40
        # The truncated sort still surfaces its run-phase stats.
        assert report.records == 500
        assert report.runs > 0
        assert report.run_phase.cpu_ops > 0

    def test_plan_is_operator_plan(self):
        engine = small_engine()
        op = TopK(engine, 5)
        list(op.run([1, 2, 3]))
        assert isinstance(op.plan, OperatorPlan)

    def test_heap_path_stable_for_equal_unequal_encodings(self):
        # 0.0 == -0.0 but repr differs: the heap path must keep the
        # stable-sort order (input order among equals) or the two
        # paths stop being byte-identical.
        from repro.core.records import FLOAT

        data = [0.0, -0.0, 1.0, -0.0, 0.0]
        heap_out = list(TopK(small_engine(FLOAT, memory=100), 4).run(data))
        sort_out = list(TopK(small_engine(FLOAT, memory=2), 4).run(data))
        want = sorted(data)[:4]
        assert [repr(v) for v in heap_out] == [repr(v) for v in want]
        assert [repr(v) for v in sort_out] == [repr(v) for v in want]
