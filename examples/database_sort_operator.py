"""Database operators under a fixed memory quantum, on ``repro.ops``.

The paper motivates 2WRS with database workloads: operators receive a
stream of tuples from upstream operators (scans, joins) under a fixed
memory grant, spill runs to disk, and merge them.  This example runs
two real operators over a synthetic "orders" table through the
:class:`~repro.engine.SortEngine` and the :mod:`repro.ops` subsystem
(DESIGN.md §12), with real files and real wall-clock timings:

* **ORDER BY priority** — the paper's Chapter 7 scenario: a table
  stored by ``order_id`` scanned and sorted on an *anticorrelated*
  column yields a (noisy) descending key stream, RS's worst case and
  2WRS's headline win.
* **GROUP BY region** — the same scan folded through
  :class:`~repro.ops.GroupByAggregate`: counts, revenue sums and
  averages per region computed during the final merge pass, no group
  ever materialised.

Run with::

    python examples/database_sort_operator.py
"""

import random

from repro.core.config import GeneratorSpec
from repro.core.records import DelimitedFormat
from repro.engine import SortEngine
from repro.ops import GroupByAggregate

MEMORY_QUANTUM = 2_000  # records the DBMS grants each operator
TABLE_ROWS = 100_000
REGIONS = ("emea", "apac", "amer", "latam")


def orders_table(rows, seed=7):
    """csv rows ``order_id,priority,region,revenue``.

    The table is stored sorted by ``order_id``; ``priority`` is
    anticorrelated with it, so an ORDER BY priority scan sees a noisy
    descending key stream.
    """
    rng = random.Random(seed)
    for order_id in range(rows):
        priority = (rows - order_id) * 1_000 + rng.randint(1, 999)
        region = REGIONS[rng.randrange(len(REGIONS))]
        revenue = rng.randint(1, 500)
        yield f"{order_id},{priority},{region},{revenue}"


def order_by_priority(algorithm):
    """ORDER BY priority with one generator algorithm; print its report."""
    fmt = DelimitedFormat(",", key_column=1)
    engine = SortEngine(
        GeneratorSpec(algorithm, MEMORY_QUANTUM), record_format=fmt
    )
    rows = (fmt.decode(line) for line in orders_table(TABLE_ROWS))
    first = None
    for record in engine.sort(rows, input_records=TABLE_ROWS):
        if first is None:
            first = fmt.encode(record)
    report = engine.report
    print(
        f"{report.algorithm:<6} runs={report.runs:4d}  "
        f"run wall={report.run_phase.wall_time:6.2f}s  "
        f"merge wall={report.merge_phase.wall_time:6.2f}s  "
        f"(first row out: {first})"
    )
    return report


def group_by_region():
    """GROUP BY region: count, revenue sum and average per region."""
    fmt = DelimitedFormat(",", key_column=2)
    engine = SortEngine(
        GeneratorSpec("2wrs", MEMORY_QUANTUM), record_format=fmt
    )
    rows = (fmt.decode(line) for line in orders_table(TABLE_ROWS))
    op = GroupByAggregate(
        engine, aggregates=("count", "sum", "avg"), value_column=3
    )
    print("region  orders  revenue  avg")
    for row in op.run(rows):
        region, count, total, avg = row.split(",")
        print(f"{region:<7} {count:>6}  {total:>7}  {float(avg):6.1f}")
    report = op.report
    print(
        f"({report.rows_in} rows in, {report.groups} groups, "
        f"peak buffered {engine.max_resident_records} records)"
    )


def main():
    print(
        f"ORDER BY priority over {TABLE_ROWS} rows, "
        f"{MEMORY_QUANTUM}-record memory quantum\n"
    )
    rs = order_by_priority("rs")
    twrs = order_by_priority("2wrs")
    ratio = rs.runs / max(twrs.runs, 1)
    print(
        f"\n2WRS emits {ratio:.1f}x fewer runs — its BottomHeap absorbs "
        "the descending stream (paper measures ~2.5x end-to-end, "
        "Figure 6.7).\n"
    )
    print(f"GROUP BY region over the same scan:\n")
    group_by_region()


if __name__ == "__main__":
    main()
