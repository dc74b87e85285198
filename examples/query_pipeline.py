"""A whole query as composed streaming operators: distinct → join → topk.

The query, in SQL::

    SELECT u.name, e.page, e.latency_ms
    FROM (SELECT DISTINCT user_id, page, latency_ms FROM events) e
    JOIN users u ON u.user_id = e.user_id
    ORDER BY e.latency_ms
    LIMIT 10

Every stage is a :mod:`repro.ops` operator over its own
:class:`~repro.engine.SortEngine`, chained through plain Python
iterators: the dedup'd event stream feeds the join as it is produced,
and the join's output rows feed the top-k — which here fits its
bounded heap, so the final stage never sorts at all.  Peak memory
stays within each engine's budget no matter how large the tables get.

Run with::

    python examples/query_pipeline.py
"""

import random

from repro.core.config import GeneratorSpec
from repro.core.records import DelimitedFormat
from repro.engine import SortEngine
from repro.ops import Distinct, SortMergeJoin, TopK

MEMORY = 1_000
EVENTS = 50_000
USERS = 400
PAGES = ("home", "search", "cart", "checkout", "help")


def events_table(rows, seed=3):
    """csv ``user_id,page,latency_ms`` — duplicated events on purpose
    (retries, at-least-once delivery), which DISTINCT must fold."""
    rng = random.Random(seed)
    for _ in range(rows):
        user = rng.randint(0, USERS * 2)  # some users have no account
        page = PAGES[rng.randrange(len(PAGES))]
        latency = rng.randint(1, 2_000)
        row = f"{user},{page},{latency}"
        yield row
        if rng.random() < 0.3:
            yield row  # duplicate delivery


def users_table(seed=4):
    """csv ``user_id,name`` for the registered users only."""
    rng = random.Random(seed)
    for user in range(USERS):
        yield f"{user},user{user:04d}-{rng.randint(100, 999)}"


def main():
    # Stage 1: DISTINCT over events, keyed (and sorted) by user_id.
    events_fmt = DelimitedFormat(",", key_column=0)
    distinct = Distinct(
        SortEngine(GeneratorSpec("2wrs", MEMORY), record_format=events_fmt)
    )
    distinct_rows = distinct.run(
        events_fmt.decode(line) for line in events_table(EVENTS)
    )

    # Stage 2: JOIN the dedup'd events with users on user_id.  The
    # left stream is stage 1's iterator — no intermediate file.  Each
    # side sorts through its own engine.
    users_fmt = DelimitedFormat(",", key_column=0)
    join = SortMergeJoin(
        SortEngine(GeneratorSpec("2wrs", MEMORY), record_format=events_fmt),
        SortEngine(GeneratorSpec("2wrs", MEMORY), record_format=users_fmt),
    )
    joined_rows = join.run(
        distinct_rows,
        (users_fmt.decode(line) for line in users_table()),
    )

    # Stage 3: TOP 10 by latency.  Join output rows are csv text
    # ``user_id,page,latency_ms,name``; re-key them on the latency
    # column.  k=10 <= memory, so top-k short-circuits to a bounded
    # heap — this stage does no sorting and no disk I/O.
    out_fmt = DelimitedFormat(",", key_column=2)
    topk = TopK(
        SortEngine(GeneratorSpec("2wrs", MEMORY), record_format=out_fmt),
        k=10,
    )
    fastest = topk.run(out_fmt.decode(row) for row in joined_rows)

    print("fastest 10 joined page views (user, page, latency, name):")
    for record in fastest:
        print("  " + out_fmt.encode(record))

    print()
    for label, op in (("distinct", distinct), ("join", join), ("topk", topk)):
        report = op.report
        print(
            f"{label:<9} rows_in={report.rows_in:>6}  "
            f"rows_out={report.rows_out:>6}  groups={report.groups:>5}  "
            f"algorithm={report.algorithm}"
        )


if __name__ == "__main__":
    main()
