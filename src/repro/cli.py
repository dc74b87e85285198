"""Command-line interface: sort files and inspect run generation.

Examples::

    # external-sort newline-separated integers
    python -m repro.cli sort --algorithm 2wrs --memory 1000 in.txt -o out.txt

    # same sort, partitioned across 4 worker processes; each shard
    # sorts with a fixed 1000 // 4 share of the memory budget
    python -m repro.cli sort --memory 1000 --workers 4 in.txt -o out.txt

    # typed records: floats, opaque strings, or delimited rows sorted
    # by one column (0-based; csv and tsv fix the separator)
    python -m repro.cli sort --format float measurements.txt
    python -m repro.cli sort --format str words.txt
    python -m repro.cli sort --format csv --key 2 events.csv -o by_time.csv

    # crash-safe sorting: journaled progress under out.txt.sortwork,
    # restartable after any failure with the same command (DESIGN.md §11)
    python -m repro.cli sort --resume in.txt -o out.txt

    # relational operators on the sort engine (DESIGN.md §12):
    # dedup, group-by aggregation, sort-merge equi-join, top-k
    python -m repro.cli distinct --format str words.txt
    python -m repro.cli agg --format csv --key 0 --value 1 \
        --agg count,sum,avg events.csv
    python -m repro.cli join --format csv --key 0 orders.csv users.csv
    python -m repro.cli topk -k 100 --memory 10000 in.txt

    # merge already-sorted files without re-sorting (like sort -m)
    python -m repro.cli merge run1.txt run2.txt -o merged.txt

    # LSM key-value store built on the sort engine (DESIGN.md §17):
    # WAL-durable puts/deletes, SSTable flushes, merge-compaction
    python -m repro.cli store put db user:1 alice
    python -m repro.cli store get db user:1
    python -m repro.cli store ingest db oplog.txt
    python -m repro.cli store scan db -o items.txt

    # compare run generation across algorithms without sorting
    python -m repro.cli runs --memory 1000 in.txt

    # regenerate a paper experiment
    python -m repro.cli experiment table_5_13_run_lengths

    # generate one of the paper's datasets
    python -m repro.cli dataset mixed_balanced --records 100000 > in.txt

All sorting routes through :class:`repro.engine.SortEngine`
(DESIGN.md §9), which plans in-memory vs spill vs partitioned-parallel
execution and moves records in blocks through the configured
``--format``; the operator subcommands stream over the engine
(DESIGN.md §12) and share its memory bounds, checksummed spill blocks
and ``--resume`` work directories.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
# argparse translates its messages through gettext, which imports
# locale when the first parser is built; load it with this module.
import locale  # noqa: F401
import os
import shutil
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, ContextManager, List, Optional, TextIO

from repro.core.config import ALGORITHMS, GeneratorSpec, RECOMMENDED, TwoWayConfig
from repro.core.heuristics import INPUT_HEURISTICS, OUTPUT_HEURISTICS
from repro.core.records import FORMAT_NAMES, STR, resolve_format
from repro.engine.block_io import (
    BlockWriter,
    DEFAULT_BLOCK_RECORDS,
    iter_records,
)
from repro.engine.errors import SortError
from repro.engine.resilience import (
    JOURNAL_NAME,
    atomic_output,
    input_fingerprint,
    wipe_directory,
)
from repro.engine.planner import (
    PARTITION_STRATEGIES,
    SortEngine,
    spec_for_format,
)
from repro.engine.spill_codec import AUTO_CODEC, SPILL_CODECS
from repro.merge.kway import DEFAULT_FAN_IN
from repro.sort.spill import DEFAULT_BUFFER_RECORDS

# The modules above are the whole sort path except the default run
# generator, which GeneratorSpec.build imports on first use; loading it
# here keeps ``main`` free of import work.  Every other subcommand
# imports its own backend (operators, store, service, experiments)
# when it runs, and the simulator loads only for ``runs --report``
# and the experiments (DESIGN.md §2).
import repro.core.two_way  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.store import Store

# Everything imported above lives as long as the process.  Frozen, it
# leaves the collector's generations, so a short CLI run pays no
# gen-1 pass over thousands of import-time objects.
gc.freeze()


def _make_spec(args: argparse.Namespace) -> GeneratorSpec:
    two_way = None
    if args.algorithm == "2wrs":
        two_way = TwoWayConfig(
            buffer_setup=args.buffer_setup,
            buffer_fraction=args.buffer_fraction,
            input_heuristic=args.input_heuristic,
            output_heuristic=args.output_heuristic,
            seed=args.seed,
        )
    return GeneratorSpec(
        algorithm=args.algorithm, memory=args.memory, two_way=two_way
    )


def _record_format(args: argparse.Namespace, key=None):
    key = key if key is not None else args.key
    if key is not None and args.format not in ("csv", "tsv"):
        # Silently ignoring --key would sort by the wrong thing.
        raise SystemExit(
            f"repro: error: --key only applies to the delimited formats "
            f"(csv, tsv), not --format {args.format}"
        )
    return resolve_format(args.format, key=key if key is not None else 0)


def _open_input(path: Optional[str]) -> ContextManager[TextIO]:
    """Context manager over the input; never closes handles it did not open.

    stdin is wrapped in :func:`~contextlib.nullcontext` so ``with``
    leaves it open — the CLI must only close files it opened itself.
    """
    if path is None or path == "-":
        return nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def _open_output(path: Optional[str]) -> ContextManager[TextIO]:
    """stdout passthrough, or an atomic publish of ``path``.

    Every file-bound subcommand (sort, merge, distinct, agg, join,
    topk) publishes through :func:`~repro.engine.resilience
    .atomic_output`: the output is written as ``path + ".tmp"`` and
    renamed into place only after an fsync, so a job killed mid-final-
    merge never leaves a truncated file at the target path.
    """
    if path is None:
        return nullcontext(sys.stdout)
    return atomic_output(path)


def _durable_work_dir(
    args: argparse.Namespace,
    inputs: Optional[tuple] = None,
    suffix: str = ".sortwork",
) -> Optional[str]:
    """The stable work directory of a ``--resume`` run, or None.

    Derived from the output path (``out.txt`` -> ``out.txt.sortwork``)
    unless ``--work-dir`` names one explicitly.  Resuming needs real
    input files (the journal skips *re-sorting*, not re-reading) and a
    stable place for the journal, so stdin/stdout pipes are rejected
    with a clear message instead of a confusing failure later.  The
    two-input join passes its own ``inputs`` and derives
    ``OUTPUT.joinwork``.
    """
    if args.work_dir is None and not args.resume:
        return None
    if inputs is None:
        inputs = (args.input,)
    if args.resume and any(path in (None, "-") for path in inputs):
        raise SystemExit(
            "repro: error: --resume requires real input files (the "
            "resumed attempt re-reads them); stdin cannot be replayed"
        )
    if args.work_dir is not None:
        return args.work_dir
    if args.output is None:
        raise SystemExit(
            "repro: error: --resume needs -o/--output (the work "
            "directory is derived from it) or an explicit --work-dir"
        )
    return args.output + suffix


def _engine_for(
    args: argparse.Namespace,
    record_format,
    work_dir: Optional[str] = None,
    fingerprint: Optional[str] = None,
) -> SortEngine:
    """One configured engine from a sort-or-operator namespace.

    ``merge`` namespaces carry no parallel knobs (the command cannot
    honour them), hence the defaults.
    """
    return SortEngine(
        _make_spec(args),
        record_format=record_format,
        workers=getattr(args, "workers", 1),
        partition=getattr(args, "partition", "hash"),
        fan_in=args.fan_in,
        buffer_records=args.merge_buffer,
        block_records=args.block_records,
        spill_codec=getattr(args, "spill_codec", "none"),
        work_dir=work_dir,
        input_fingerprint=fingerprint,
    )


def _sort_failure(command: str, exc: Exception, *work_dirs) -> int:
    """Report a controlled failure (corrupt block, injected fault, dead
    worker, disk error) cleanly; in durable mode the journal and
    surviving runs are kept for ``--resume``.  The hint only prints for
    work directories where a sort journal actually exists — a failure
    *before* durable work started (unreadable input, a foreign
    ``--work-dir`` the journal refused to wipe) has nothing to resume.
    """
    print(f"repro: {command} failed: {exc}", file=sys.stderr)
    for work_dir in work_dirs:
        if work_dir is not None and os.path.isfile(
            os.path.join(work_dir, JOURNAL_NAME)
        ):
            print(
                f"repro: completed work kept in {work_dir!r}; rerun "
                f"with --resume to continue from it",
                file=sys.stderr,
            )
    return 1


def _discard_work(derived: bool, *attempts) -> None:
    """Remove what a durable attempt wrote before a data error stopped it.

    A data error (an undecodable line, a non-numeric value under
    ``sum``) recurs at the same record on every attempt, and a journal
    resumes only the unchanged input file, so no ``--resume`` can use
    the work.  ``attempts`` are ``(engine, work_dir)`` pairs; only a
    work directory whose engine got past planning is touched, because
    an error while probing the input comes before the journal opens,
    and the directory may still hold another attempt's work.  A
    derived directory (``OUT.sortwork``, a join's side directory) is
    removed; a user's ``--work-dir`` is emptied.
    """
    for engine, work_dir in attempts:
        if engine.backend is None or not work_dir or not os.path.isdir(work_dir):
            continue
        if derived:
            shutil.rmtree(work_dir, ignore_errors=True)
        else:
            wipe_directory(work_dir)
        print(
            f"repro: removed the work in {work_dir!r}: the same record "
            f"fails every attempt, so there is nothing to resume",
            file=sys.stderr,
        )


def cmd_sort(args: argparse.Namespace) -> int:
    work_dir = _durable_work_dir(args)
    engine = _engine_for(
        args,
        _record_format(args),
        work_dir,
        input_fingerprint(args.input) if work_dir else None,
    )
    try:
        with _open_input(args.input) as handle, _open_output(args.output) as out:
            # End-to-end streaming: records decode and encode in blocks,
            # runs spill to temp files as they are generated, and the
            # merge reads them back lazily, so no list of all runs (or
            # of the merged output) is ever materialised.
            engine.sort_stream(handle, out, resume=args.resume)
    except ValueError as exc:
        # Data-level failure: an undecodable record in the input.
        print(f"repro: sort failed: {exc}", file=sys.stderr)
        _discard_work(args.work_dir is None, (engine, work_dir))
        return 1
    except (SortError, OSError) as exc:
        return _sort_failure("sort", exc, work_dir)
    _print_sort_report(engine, args.report)
    return 0


def _print_sort_report(engine: SortEngine, verbose: bool) -> None:
    """Unified ``--report`` rendering for every execution mode."""
    report = engine.report
    if not verbose:
        print(
            f"{report.algorithm}: {report.records} records in "
            f"{report.runs} runs "
            f"(avg {report.average_run_length:.0f} records)",
            file=sys.stderr,
        )
        return
    # summary() opens with the same records/runs header line, so the
    # plain stats line would print twice with --report.
    print(report.summary(), file=sys.stderr)
    plan = engine.plan
    backend = engine.backend
    if plan.mode == "in_memory":
        print(f"  plan   in-memory: {plan.reason}", file=sys.stderr)
        return
    if plan.mode == "parallel":
        # Combined report first (cpu_ops summed across shards, wall
        # times measured in the parent), then one line per worker.
        print(
            f"  partition strategy={backend.partition}  "
            f"wall={backend.partition_wall:.3f}s  "
            f"shards={backend.shard_records}",
            file=sys.stderr,
        )
        for i, worker in enumerate(backend.worker_reports):
            print(
                f"  worker {i}: {worker.records} records in "
                f"{worker.runs} runs  "
                f"memory={backend.worker_memories[i]}  "
                f"run_wall={worker.run_phase.wall_time:.3f}s  "
                f"merge_wall={worker.merge_phase.wall_time:.3f}s",
                file=sys.stderr,
            )
    print(
        f"  spill  passes={engine.merge_passes}  "
        f"peak_buffered={engine.max_resident_records} records  "
        f"readers<={engine.max_open_readers}",
        file=sys.stderr,
    )
    if engine.work_dir is not None:
        print(
            f"  resume runs_reused={engine.runs_reused}  "
            f"merges_reused={engine.merges_reused}  "
            f"shards_reused={engine.shards_reused}",
            file=sys.stderr,
        )


def _engine_detail_lines(engine: Optional[SortEngine], label: str) -> None:
    """The spill instrumentation line of one engine's last sort.

    In-memory sorts have no spill structure to show; ``merge_files``
    sets no plan at all but always merges, so a missing plan prints.
    """
    if engine is None:
        return
    if engine.plan is not None and engine.plan.mode == "in_memory":
        return
    print(
        f"  {label:<6} passes={engine.merge_passes}  "
        f"peak_buffered={engine.max_resident_records} records  "
        f"readers<={engine.max_open_readers}",
        file=sys.stderr,
    )


def _print_operator_report(op, engines, verbose: bool) -> None:
    """Unified ``--report`` rendering for the operator subcommands.

    ``engines`` lists ``(label, engine)`` pairs whose spill
    instrumentation should print in verbose mode (empty for the
    top-k heap path, two entries for the join).
    """
    report = op.report
    if not verbose:
        print(
            f"{report.algorithm}: {report.rows_in} rows in, "
            f"{report.rows_out} rows out ({report.groups} groups)",
            file=sys.stderr,
        )
        return
    print(report.summary(), file=sys.stderr)
    plan = op.plan
    print(f"  plan   {plan.mode}: {plan.reason}", file=sys.stderr)
    for label, engine in engines:
        _engine_detail_lines(engine, label)


def _run_unary_operator(
    args: argparse.Namespace,
    command: str,
    make_op,
    output_format=None,
) -> int:
    """Shared body of the single-input operator subcommands.

    ``make_op(engine)`` builds the operator (constructor ValueErrors
    become usage errors); ``output_format`` overrides the writer's
    record format for operators whose output rows are plain text.
    """
    record_format = _record_format(args)
    work_dir = _durable_work_dir(args)
    engine = _engine_for(
        args, record_format, work_dir,
        input_fingerprint(args.input) if work_dir else None,
    )
    try:
        op = make_op(engine)
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    # TopK's heap scan reads csv/tsv rows as the base format's tuples.
    input_format = (
        op.input_format() if hasattr(op, "input_format")
        else engine.record_format
    )
    try:
        with _open_input(args.input) as handle, _open_output(args.output) as out:
            # Both CLI boundaries stay plain text whatever the working
            # format (csv/tsv rows carry key bytes in between).
            records = iter_records(
                handle, input_format, args.block_records,
                skip_blank=True, codec=None,
            )
            writer = BlockWriter(
                out, output_format or input_format,
                args.block_records, codec=None,
            )
            writer.write_all(op.run(records, resume=args.resume))
            writer.flush()
    except ValueError as exc:
        # Data-level failure: non-numeric value under sum/avg, ragged
        # rows, undecodable records.
        print(f"repro: {command} failed: {exc}", file=sys.stderr)
        _discard_work(args.work_dir is None, (engine, work_dir))
        return 1
    except (SortError, OSError) as exc:
        return _sort_failure(command, exc, work_dir)
    engines = [] if op.plan.mode == "heap" else [("spill", engine)]
    _print_operator_report(op, engines, args.report)
    return 0


def cmd_distinct(args: argparse.Namespace) -> int:
    from repro.ops.distinct import Distinct

    return _run_unary_operator(
        args, "distinct", lambda engine: Distinct(engine, by=args.by)
    )


def cmd_agg(args: argparse.Namespace) -> int:
    from repro.ops.aggregate import GroupByAggregate

    return _run_unary_operator(
        args, "agg",
        lambda engine: GroupByAggregate(
            engine, aggregates=args.agg, value_column=args.value
        ),
        # Output rows are delimited text, whatever the input format.
        output_format=STR,
    )


def cmd_topk(args: argparse.Namespace) -> int:
    from repro.ops.topk import TopK

    return _run_unary_operator(
        args, "topk", lambda engine: TopK(engine, args.k)
    )


def _join_work_dirs(args: argparse.Namespace):
    """Per-side durable work directories for a ``--resume`` join."""
    base = _durable_work_dir(
        args, inputs=(args.left, args.right), suffix=".joinwork"
    )
    if base is None:
        return None, None
    return os.path.join(base, "left"), os.path.join(base, "right")


def cmd_join(args: argparse.Namespace) -> int:
    from repro.ops.join import SortMergeJoin

    if args.left == "-" and args.right == "-":
        raise SystemExit(
            "repro: error: at most one join input may be stdin ('-')"
        )
    left_format = _record_format(args)
    right_format = _record_format(
        args, key=args.right_key if args.right_key is not None else args.key
    )
    left_work, right_work = _join_work_dirs(args)
    left_engine = _engine_for(
        args, left_format, left_work,
        input_fingerprint(args.left) if left_work else None,
    )
    right_engine = _engine_for(
        args, right_format, right_work,
        input_fingerprint(args.right) if right_work else None,
    )
    try:
        op = SortMergeJoin(
            left_engine, right_engine, buffer_limit=args.buffer_limit
        )
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    try:
        with _open_input(args.left) as left_handle, \
                _open_input(args.right) as right_handle, \
                _open_output(args.output) as out:
            left_records = iter_records(
                left_handle, left_engine.record_format, args.block_records,
                skip_blank=True, codec=None,
            )
            right_records = iter_records(
                right_handle, right_engine.record_format, args.block_records,
                skip_blank=True, codec=None,
            )
            writer = BlockWriter(out, STR, args.block_records, codec=None)
            writer.write_all(
                op.run(left_records, right_records, resume=args.resume)
            )
            writer.flush()
    except ValueError as exc:
        # Data-level failure: undecodable rows, missing key columns.
        print(f"repro: join failed: {exc}", file=sys.stderr)
        _discard_work(
            True, (left_engine, left_work), (right_engine, right_work)
        )
        if left_work is not None and args.work_dir is None:
            try:
                os.rmdir(os.path.dirname(left_work))
            except OSError:
                pass
        return 1
    except (SortError, OSError) as exc:
        return _sort_failure("join", exc, left_work, right_work)
    # A fully successful durable join leaves two empty side dirs under
    # the base; tidy the base away (rmdir refuses non-empty).
    if left_work is not None:
        base = os.path.dirname(left_work)
        try:
            os.rmdir(base)
        except OSError:
            pass
    _print_operator_report(
        op, [("left", left_engine), ("right", right_engine)], args.report
    )
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """Merge already-sorted files without re-sorting (like ``sort -m``)."""
    record_format = _record_format(args)
    engine = _engine_for(args, record_format)
    try:
        with _open_output(args.output) as out:
            writer = BlockWriter(
                out, engine.record_format, args.block_records, codec=None
            )
            if args.inputs:
                writer.write_all(engine.merge_files(args.inputs))
            writer.flush()
    except ValueError as exc:
        # Data-level failure: undecodable records in an input file.
        print(f"repro: merge failed: {exc}", file=sys.stderr)
        return 1
    except (SortError, OSError) as exc:
        return _sort_failure("merge", exc)
    report = engine.report
    if report is None:
        # Zero input files: nothing merged, empty output, exit 0 —
        # the same contract as `sort` over empty input.
        print("MERGE[0]: 0 records from 0 files", file=sys.stderr)
        return 0
    if not args.report:
        print(
            f"{report.algorithm}: {report.records} records from "
            f"{len(args.inputs)} files",
            file=sys.stderr,
        )
        return 0
    print(report.summary(), file=sys.stderr)
    _engine_detail_lines(engine, "spill")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    record_format = _record_format(args)
    try:
        with _open_input(args.input) as handle:
            data = list(
                iter_records(
                    handle, record_format, DEFAULT_BLOCK_RECORDS,
                    skip_blank=True, codec=None,
                )
            )
    except (ValueError, OSError) as exc:
        # An undecodable record or an unreadable input file.
        print(f"repro: runs failed: {exc}", file=sys.stderr)
        return 1
    header = f"{'algorithm':<10} {'runs':>6} {'avg length':>12} {'cpu ops':>12}"
    if args.report:
        header += f" {'run time':>10} {'total time':>11}"
        # The simulator (and its disk model) loads only for --report.
        from repro.sort.external import ExternalSort
    print(header)
    for name in ALGORITHMS:
        namespace = argparse.Namespace(**vars(args))
        namespace.algorithm = name
        spec = spec_for_format(_make_spec(namespace), record_format)
        if args.report:
            # Full simulated pipeline (analytic CPU + simulated disk),
            # so the paper's two headline timings (run phase,
            # run+merge) appear per algorithm.
            pipeline = ExternalSort(spec.build(), fan_in=args.fan_in)
            _, report = pipeline.sort(iter(data))
            print(
                f"{report.algorithm:<10} {report.runs:>6} "
                f"{report.average_run_length:>12.1f} "
                f"{report.run_phase.cpu_ops:>12}"
                f" {report.run_time:>9.3f}s {report.total_time:>10.3f}s"
            )
        else:
            generator = spec.build()
            for _ in generator.generate_runs(iter(data)):
                pass
            stats = generator.stats
            print(
                f"{generator.name:<10} {stats.runs_out:>6} "
                f"{stats.average_run_length:>12.1f} {stats.cpu_ops:>12}"
            )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    if args.name not in EXPERIMENTS:
        known = "\n  ".join(EXPERIMENTS)
        print(f"unknown experiment {args.name!r}; known:\n  {known}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.workloads.generators import make_input

    records = make_input(args.name, args.records, seed=args.seed)
    for value in records:
        sys.stdout.write(f"{value}\n")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the linter (and its dynamic R005 imports) should
    # not load for ordinary sort commands.
    from repro.lint import main as lint_main

    # Always pass the (possibly empty) list: None would make the lint
    # main() fall back to sys.argv, which here still holds 'lint'.
    return lint_main(args.paths)


def _service_client(args: argparse.Namespace):
    """A client for ``--server`` or the server's ``--endpoint-file``."""
    from repro.service.client import ServiceClient, read_endpoint

    if args.server:
        return ServiceClient(args.server)
    return ServiceClient(read_endpoint(args.endpoint_file))


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_serve(args: argparse.Namespace) -> int:
    quotas = {}
    for item in args.tenant_quota or ():
        tenant, sep, limit = item.partition("=")
        if not sep or not tenant or not limit.isdigit() or int(limit) < 1:
            raise SystemExit(
                f"--tenant-quota expects TENANT=RECORDS, got {item!r}"
            )
        quotas[tenant] = int(limit)
    # Deferred import: asyncio/service machinery only loads for the
    # service subcommands, not for plain sorts.
    import asyncio

    from repro.service.server import SortService

    # The server's modules (operators, store, asyncio) live as long as
    # the process too; frozen like the sort path's, they stay out of
    # every collection the long-running server makes.
    gc.freeze()
    service = SortService(
        args.spool,
        host=args.host,
        port=args.port,
        total_memory=args.memory,
        job_workers=args.job_workers,
        tenant_quotas=quotas or None,
        default_quota=args.default_quota,
    )
    try:
        asyncio.run(service.run(endpoint_file=args.endpoint_file))
    except KeyboardInterrupt:
        # Ctrl-C ran the same teardown as a ``shutdown`` request: the
        # running jobs were cancelled, not waited for, and re-attach by
        # id on the next serve.
        return 130
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    needs_input = args.op not in ("store_scan", "store_compact")
    if not args.id and not args.input and needs_input:
        sys.stderr.write("submit needs an input file (or --id)\n")
        return 2
    if not args.id and args.op.startswith("store_") and not args.store:
        sys.stderr.write(f"submit --op {args.op} needs --store DIR\n")
        return 2
    client = _service_client(args)
    try:
        if args.id:
            payload = client.submit_id(args.id)
        else:
            # Abspath here, client-side: the server may well run in a
            # different working directory than the submitting shell.
            job = {
                "op": args.op,
                "tenant": args.tenant,
                "memory": args.memory,
                "algorithm": args.algorithm,
                "fan_in": args.fan_in,
                "format": args.format,
                "spill_codec": args.spill_codec,
            }
            if args.input:
                job["input"] = os.path.abspath(args.input)
            if args.store:
                job["store"] = os.path.abspath(args.store)
            if args.output:
                job["output"] = os.path.abspath(args.output)
            if args.key is not None:
                job["key"] = args.key
            if args.right_key is not None:
                job["right_key"] = args.right_key
            if args.right_input:
                job["right_input"] = os.path.abspath(args.right_input)
            if args.by != "record":
                job["by"] = args.by
            if args.agg != ("count",):
                job["aggregates"] = list(args.agg)
            if args.value is not None:
                job["value"] = args.value
            if args.k:
                job["k"] = args.k
            payload = client.submit(job)
        if args.wait:
            payload = client.wait(payload["id"])
    except (ServiceError, TimeoutError, ConnectionError) as exc:
        sys.stderr.write(f"submit failed: {exc}\n")
        return 1
    _print_json(payload)
    return 0 if payload.get("status") != "failed" else 1


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        if args.id:
            _print_json(client.status(args.id))
        else:
            _print_json(client.jobs())
    except (ServiceError, ConnectionError) as exc:
        sys.stderr.write(f"status failed: {exc}\n")
        return 1
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        # _open_output publishes the local copy atomically too: a
        # killed fetch must not leave a truncated file that looks done.
        with _open_output(args.output) as sink:
            client.result(args.id, sink)
    except (ServiceError, ConnectionError) as exc:
        sys.stderr.write(f"result failed: {exc}\n")
        return 1
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        _print_json(client.cancel(args.id))
    except (ServiceError, ConnectionError) as exc:
        sys.stderr.write(f"cancel failed: {exc}\n")
        return 1
    return 0


def _store_open(args: argparse.Namespace) -> Store:
    from repro.store import Store

    return Store(
        args.dir,
        memory=args.memory,
        block_records=args.block_records,
        codec=args.codec,
        fan_in=args.fan_in,
        sync=not args.no_sync,
        auto_compact=not args.no_auto_compact,
    )


def _store_put(store: Store, args: argparse.Namespace) -> int:
    from repro.store.oplog import unescape_bytes

    store.put(unescape_bytes(args.key), unescape_bytes(args.value))
    return 0


def _store_get(store: Store, args: argparse.Namespace) -> int:
    from repro.store.oplog import escape_bytes, unescape_bytes

    key = unescape_bytes(args.key)
    value = store.get(key)
    if value is None:
        # Distinct from failure (1): the store is healthy, the key is
        # simply absent or deleted — the grep-style "no match" exit.
        print(
            f"repro: store get: key {args.key!r} not found",
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(escape_bytes(value) + "\n")
    return 0


def _store_delete(store: Store, args: argparse.Namespace) -> int:
    from repro.store.oplog import unescape_bytes

    store.delete(unescape_bytes(args.key))
    return 0


def _store_scan(store: Store, args: argparse.Namespace) -> int:
    from repro.store.oplog import format_item, unescape_bytes

    start = unescape_bytes(args.start) if args.start is not None else None
    end = unescape_bytes(args.end) if args.end is not None else None
    count = 0
    with _open_output(args.output) as out:
        for key, value in store.scan(start, end):
            out.write(format_item(key, value) + "\n")
            count += 1
    print(f"store scan: {count} item(s)", file=sys.stderr)
    return 0


def _store_ingest(store: Store, args: argparse.Namespace) -> int:
    from repro.store.oplog import parse_op_line

    applied = 0
    with _open_input(args.input) as handle:
        for lineno, line in enumerate(handle, start=1):
            parsed = parse_op_line(line, lineno)
            if parsed is None:
                continue
            op, key, value = parsed
            if op == "put":
                store.put(key, value)
            else:
                store.delete(key)
            applied += 1
    print(f"store ingest: {applied} operation(s) applied", file=sys.stderr)
    return 0


def _store_flush(store: Store, args: argparse.Namespace) -> int:
    name = store.flush()
    if name is None:
        print("store flush: memtable empty, nothing to write",
              file=sys.stderr)
    else:
        print(f"store flush: wrote {name}", file=sys.stderr)
    return 0


def _store_compact(store: Store, args: argparse.Namespace) -> int:
    name = store.compact()
    if name is None:
        print("store compact: store is empty", file=sys.stderr)
    else:
        print(f"store compact: merged into {name}", file=sys.stderr)
    return 0


def _store_verify(store: Store, args: argparse.Namespace) -> int:
    _print_json(store.verify())
    return 0


_STORE_ACTIONS = {
    "put": _store_put,
    "get": _store_get,
    "delete": _store_delete,
    "scan": _store_scan,
    "ingest": _store_ingest,
    "flush": _store_flush,
    "compact": _store_compact,
    "verify": _store_verify,
}


def cmd_store(args: argparse.Namespace) -> int:
    from repro.store.manifest import MANIFEST_NAME

    command = f"store {args.store_cmd}"
    if args.store_cmd in ("get", "scan", "verify") and not os.path.isfile(
        os.path.join(args.dir, MANIFEST_NAME)
    ):
        # Every store holds a MANIFEST from its first open on.  Opening
        # a path without one would initialise a store there; a read
        # creates nothing.
        print(f"repro: {command} failed: no store at {args.dir}",
              file=sys.stderr)
        return 1
    try:
        with _store_open(args) as store:
            return _STORE_ACTIONS[args.store_cmd](store, args)
    except ValueError as exc:
        # Data-level failure: malformed escape in a key/value token or
        # a bad oplog line.
        print(f"repro: {command} failed: {exc}", file=sys.stderr)
        return 1
    except (SortError, OSError) as exc:
        # StoreError/ManifestError are SortErrors; nothing here is
        # resumable from a sort journal, so no work-dir hint.
        return _sort_failure(command, exc)


def _fan_in(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"fan-in must be >= 2, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a value >= 0, got {value}")
    return value


def _fraction(text: str) -> float:
    """``--buffer-fraction`` value: a share of memory in [0, 1)."""
    value = float(text)
    # Written so that nan fails too.
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a fraction in [0, 1), got {text}"
        )
    return value


def _key_columns(text: str):
    """``--key`` value: one column (``2``) or several (``0,2``)."""
    try:
        columns = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a column number or comma-separated column "
            f"numbers (e.g. '2' or '0,2'), got {text!r}"
        ) from None
    if any(column < 0 for column in columns):
        raise argparse.ArgumentTypeError(
            f"key columns must be >= 0, got {text!r}"
        )
    return columns[0] if len(columns) == 1 else columns


def _aggregate_list(text: str):
    """``--agg`` value: comma-separated aggregate names."""
    from repro.ops.base import AGGREGATES

    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [name for name in names if name not in AGGREGATES]
    if not names or unknown:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated aggregates from "
            f"{', '.join(AGGREGATES)}, got {text!r}"
        )
    return names


# -- argument parser ------------------------------------------------------------
#
# One function per subcommand adds that subcommand's parser.  Each
# imports whatever its options need, so building the parser of one
# subcommand (what ``main`` does) loads no other subcommand's backend.


def _add_generator_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memory", type=_positive_int, default=10_000,
                   help="working memory in records (default 10000)")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="2wrs")
    p.add_argument("--buffer-setup", choices=("input", "both", "victim"),
                   default=RECOMMENDED.buffer_setup)
    p.add_argument("--buffer-fraction", type=_fraction,
                   default=RECOMMENDED.buffer_fraction)
    p.add_argument("--input-heuristic", choices=sorted(INPUT_HEURISTICS),
                   default=RECOMMENDED.input_heuristic)
    p.add_argument("--output-heuristic", choices=sorted(OUTPUT_HEURISTICS),
                   default=RECOMMENDED.output_heuristic)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fan-in", type=_fan_in, default=DEFAULT_FAN_IN,
                   help=f"merge fan-in (default {DEFAULT_FAN_IN})")
    p.add_argument("--format", choices=FORMAT_NAMES, default="int",
                   help="record type: one int/float/str per line, or "
                        "csv/tsv rows sorted by --key (default int)")
    p.add_argument("--key", type=_key_columns, default=None,
                   help="0-based key column (or comma-separated "
                        "columns, compared left to right), only valid "
                        "with --format csv/tsv (default 0); e.g. "
                        "--format csv --key 2 sorts rows by their "
                        "third field")
    p.add_argument("--report", action="store_true",
                   help="print phase timings (SortReport) to stderr")


def _add_engine_options(
    p: argparse.ArgumentParser,
    durable: bool = True,
    parallel: bool = True,
) -> None:
    """Execution knobs shared by sort and the operator subcommands.

    ``merge`` opts out of the knobs it cannot honour: it never
    partitions (``parallel=False``) and never journals
    (``durable=False``) — accepting those flags and silently
    ignoring them would mislead.
    """
    p.add_argument("--merge-buffer", type=_positive_int,
                   default=DEFAULT_BUFFER_RECORDS,
                   help="records buffered per run reader during the "
                        f"merge (default {DEFAULT_BUFFER_RECORDS})")
    p.add_argument("--block-records", type=_positive_int,
                   default=DEFAULT_BLOCK_RECORDS,
                   help="records encoded/decoded per block on the "
                        "input and output streams "
                        f"(default {DEFAULT_BLOCK_RECORDS})")
    p.add_argument("--reading",
                   choices=("auto", "naive", "forecasting",
                            "double_buffering"),
                   default="auto",
                   help="accepted for compatibility; the final merge "
                        "reads its runs synchronously, one block per "
                        "run at a time (DESIGN.md §9.3)")
    if parallel:
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="partition the input and sort the shards "
                            "in this many worker processes; each shard "
                            "sorts with a fixed memory // workers share "
                            "and at most memory // share shards run at "
                            "once (default 1 = serial)")
        p.add_argument("--partition", choices=PARTITION_STRATEGIES,
                       default="hash",
                       help="how records map to workers: 'hash' "
                            "balances any distribution, 'range' gives "
                            "each worker a disjoint key band from "
                            "sampled cut points (default hash)")
    p.add_argument("--binary-spill", action="store_true",
                   help="accepted for compatibility; csv/tsv rows "
                        "always spill as key bytes (DESIGN.md §14)")
    p.add_argument("--spill-codec",
                   choices=(AUTO_CODEC,) + SPILL_CODECS,
                   default="none",
                   help="per-block compression of spill/shard files "
                        "(DESIGN.md §15): 'zlib' is the cheap byte "
                        "compressor, 'lzma' the heavy one; 'auto' "
                        "means 'none', which was fastest in every "
                        "cell of the measured sweep (default none)")
    p.add_argument("--checksum", action="store_true",
                   help="accepted for compatibility; spill blocks are "
                        "always checksummed")
    if not durable:
        return
    p.add_argument("--resume", action="store_true",
                   help="run durably under a stable work directory "
                        "(journaled runs, shard completion markers) "
                        "and resume any compatible previous attempt "
                        "found there; output is byte-identical to an "
                        "uninterrupted run")
    p.add_argument("--work-dir", default=None,
                   help="stable directory for the durable sort "
                        "journal and spill files (default: derived "
                        "from the output path as OUTPUT.sortwork)")


def _add_io_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="input file ('-' = stdin)")
    p.add_argument("-o", "--output",
                   help="output file (default stdout)")


def _add_sort(sub: Any) -> None:
    p_sort = sub.add_parser("sort", help="externally sort typed records")
    _add_generator_options(p_sort)
    _add_engine_options(p_sort)
    _add_io_arguments(p_sort)
    p_sort.set_defaults(func=cmd_sort)


def _add_distinct(sub: Any) -> None:
    from repro.ops.base import DISTINCT_MODES

    p_distinct = sub.add_parser(
        "distinct",
        help="drop duplicate records via an external sort (like sort -u)",
    )
    _add_generator_options(p_distinct)
    _add_engine_options(p_distinct)
    p_distinct.add_argument(
        "--by", choices=DISTINCT_MODES, default="record",
        help="what counts as a duplicate: the whole record, or just its "
             "sort key (first record per key wins; default record)")
    _add_io_arguments(p_distinct)
    p_distinct.set_defaults(func=cmd_distinct)


def _add_agg(sub: Any) -> None:
    from repro.ops.base import AGGREGATES

    p_agg = sub.add_parser(
        "agg",
        help="group records by key and aggregate a value column",
    )
    _add_generator_options(p_agg)
    _add_engine_options(p_agg)
    p_agg.add_argument(
        "--agg", type=_aggregate_list, default=("count",),
        help="comma-separated aggregates per key group: "
             f"{', '.join(AGGREGATES)} (default count)")
    p_agg.add_argument(
        "--value", type=_non_negative_int, default=None,
        help="0-based column holding the aggregated value (required for "
             "sum/min/max/avg over delimited rows)")
    _add_io_arguments(p_agg)
    p_agg.set_defaults(func=cmd_agg)


def _add_join(sub: Any) -> None:
    p_join = sub.add_parser(
        "join",
        help="sort-merge equi-join of two inputs on their key columns",
    )
    _add_generator_options(p_join)
    _add_engine_options(p_join)
    p_join.add_argument(
        "--right-key", type=_key_columns, default=None,
        help="0-based key column(s) of the RIGHT input when they differ "
             "from --key")
    p_join.add_argument(
        "--buffer-limit", type=_positive_int, default=None,
        help="right-side records buffered per key group before the skew "
             "fallback spills to disk (default: the --memory budget)")
    p_join.add_argument("left", help="left input file ('-' = stdin)")
    p_join.add_argument("right", help="right input file ('-' = stdin)")
    p_join.add_argument("-o", "--output",
                        help="output file (default stdout)")
    p_join.set_defaults(func=cmd_join)


def _add_topk(sub: Any) -> None:
    p_topk = sub.add_parser(
        "topk",
        help="the k smallest records, ascending (like sort | head -k)",
    )
    _add_generator_options(p_topk)
    _add_engine_options(p_topk)
    p_topk.add_argument(
        "-k", type=_non_negative_int, required=True,
        help="how many records to keep; k <= --memory short-circuits to "
             "a bounded heap scan with no sort at all")
    _add_io_arguments(p_topk)
    p_topk.set_defaults(func=cmd_topk)


def _add_merge(sub: Any) -> None:
    p_merge = sub.add_parser(
        "merge",
        help="merge already-sorted files without re-sorting (like sort -m)",
    )
    _add_generator_options(p_merge)
    _add_engine_options(p_merge, durable=False, parallel=False)
    p_merge.add_argument("inputs", nargs="*",
                         help="pre-sorted input files (empty = empty "
                              "output, exit 0)")
    p_merge.add_argument("-o", "--output",
                         help="output file (default stdout)")
    p_merge.set_defaults(func=cmd_merge)


def _add_runs(sub: Any) -> None:
    p_runs = sub.add_parser(
        "runs", help="compare run generation across algorithms"
    )
    _add_generator_options(p_runs)
    p_runs.add_argument("input", nargs="?", help="input file ('-' = stdin)")
    p_runs.set_defaults(func=cmd_runs)


def _add_experiment(sub: Any) -> None:
    p_exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    p_exp.add_argument("name", help="experiment module name")
    p_exp.set_defaults(func=cmd_experiment)


def _add_dataset(sub: Any) -> None:
    from repro.workloads.generators import DISTRIBUTIONS

    p_data = sub.add_parser("dataset", help="emit one of the paper's datasets")
    p_data.add_argument("name", choices=sorted(DISTRIBUTIONS))
    p_data.add_argument("--records", type=int, default=100_000)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.set_defaults(func=cmd_dataset)


def _add_lint(sub: Any) -> None:
    p_lint = sub.add_parser(
        "lint",
        help="run the project-invariant linter (same as python -m repro.lint)",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: src/ tests/)")
    p_lint.set_defaults(func=cmd_lint)


def _add_store(sub: Any) -> None:
    from repro.store.store import (
        DEFAULT_MEMTABLE_RECORDS,
        DEFAULT_TABLE_BLOCK_RECORDS,
    )

    p_store = sub.add_parser(
        "store",
        help="LSM key-value store built on the sort engine (DESIGN.md §17)",
    )
    store_sub = p_store.add_subparsers(dest="store_cmd", required=True)

    def add_store_options(p: argparse.ArgumentParser) -> None:
        """Shared store knobs.  Every subcommand opens the same way —
        reads take the single-writer lock too, keeping the CLI a strict
        one-process-at-a-time tool over the directory."""
        p.add_argument("dir", help="store directory (created on first use)")
        p.add_argument("--memory", type=_positive_int,
                       default=DEFAULT_MEMTABLE_RECORDS,
                       help="memtable budget in records; reaching it "
                            "flushes an SSTable "
                            f"(default {DEFAULT_MEMTABLE_RECORDS})")
        p.add_argument("--block-records", type=_positive_int,
                       default=DEFAULT_TABLE_BLOCK_RECORDS,
                       help="records per SSTable block — the unit of "
                            "sparse indexing and of what a point lookup "
                            "decodes "
                            f"(default {DEFAULT_TABLE_BLOCK_RECORDS})")
        p.add_argument("--codec", choices=SPILL_CODECS,
                       default="none",
                       help="per-block compression of SSTable data, "
                            "same codecs as --spill-codec "
                            "(default none)")
        p.add_argument("--fan-in", type=_fan_in, default=DEFAULT_FAN_IN,
                       help="compaction fan-in: a level holding more "
                            "tables than this merges into the next "
                            f"(default {DEFAULT_FAN_IN})")
        p.add_argument("--no-sync", action="store_true",
                       help="skip the per-write WAL fsync (bulk loads: "
                            "much faster, but a crash may lose the "
                            "unsynced tail)")
        p.add_argument("--no-auto-compact", action="store_true",
                       help="never compact on flush; run 'store "
                            "compact' explicitly instead")

    key_help = ("key as escaped text: printable ASCII plus "
                "\\t \\n \\r \\\\ \\xNN for everything else")
    p_s_put = store_sub.add_parser("put", help="store one key/value pair")
    add_store_options(p_s_put)
    p_s_put.add_argument("key", help=key_help)
    p_s_put.add_argument("value", help="value (escaped like the key)")
    p_s_put.set_defaults(func=cmd_store)

    p_s_get = store_sub.add_parser(
        "get", help="print one key's value (exit 2 when absent)"
    )
    add_store_options(p_s_get)
    p_s_get.add_argument("key", help=key_help)
    p_s_get.set_defaults(func=cmd_store)

    p_s_del = store_sub.add_parser(
        "delete", help="delete one key (a tombstone shadows older puts)"
    )
    add_store_options(p_s_del)
    p_s_del.add_argument("key", help=key_help)
    p_s_del.set_defaults(func=cmd_store)

    p_s_scan = store_sub.add_parser(
        "scan",
        help="emit live KEY<TAB>VALUE lines in key order",
    )
    add_store_options(p_s_scan)
    p_s_scan.add_argument("--start", default=None,
                          help="first key to include (escaped text)")
    p_s_scan.add_argument("--end", default=None,
                          help="first key to exclude (escaped text)")
    p_s_scan.add_argument("-o", "--output",
                          help="output file (default stdout); published "
                               "atomically")
    p_s_scan.set_defaults(func=cmd_store)

    p_s_ingest = store_sub.add_parser(
        "ingest",
        help="apply an operation log: 'put<TAB>KEY<TAB>VALUE' / "
             "'del<TAB>KEY' lines",
    )
    add_store_options(p_s_ingest)
    p_s_ingest.add_argument("input", nargs="?",
                            help="oplog file ('-' = stdin)")
    p_s_ingest.set_defaults(func=cmd_store)

    p_s_flush = store_sub.add_parser(
        "flush", help="persist the memtable as a level-0 SSTable now"
    )
    add_store_options(p_s_flush)
    p_s_flush.set_defaults(func=cmd_store)

    p_s_compact = store_sub.add_parser(
        "compact",
        help="merge every table into one and reclaim deleted space",
    )
    add_store_options(p_s_compact)
    p_s_compact.set_defaults(func=cmd_store)

    p_s_verify = store_sub.add_parser(
        "verify",
        help="re-hash every table against the manifest and walk all "
             "blocks; prints a summary JSON",
    )
    add_store_options(p_s_verify)
    p_s_verify.set_defaults(func=cmd_store)


def _add_server_address(p: argparse.ArgumentParser) -> None:
    p.add_argument("--server", default=None, metavar="HOST:PORT",
                   help="address of a running repro serve instance")
    p.add_argument("--endpoint-file", default="repro-service.json",
                   help="endpoint file written by `repro serve`; used "
                        "when --server is not given (default "
                        "repro-service.json)")


def _add_serve(sub: Any) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run the resident sort service (DESIGN.md §16)",
    )
    p_serve.add_argument("--spool", default="repro-spool",
                         help="directory for job specs, work dirs and "
                              "results; re-attachable job state lives "
                              "here across restarts (default repro-spool)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=_non_negative_int, default=0,
                         help="TCP port (default 0 = pick a free one and "
                              "publish it in --endpoint-file)")
    p_serve.add_argument("--memory", type=_positive_int, default=100_000,
                         help="total memory pool in records, shared by "
                              "all running jobs (default 100000)")
    p_serve.add_argument("--job-workers", type=_positive_int, default=8,
                         help="concurrent job threads (default 8)")
    p_serve.add_argument("--tenant-quota", action="append", default=None,
                         metavar="TENANT=RECORDS",
                         help="per-tenant memory cap; repeatable")
    p_serve.add_argument("--default-quota", type=_positive_int,
                         default=None,
                         help="memory cap for tenants without an explicit "
                              "--tenant-quota (default: no cap)")
    p_serve.add_argument("--endpoint-file", default="repro-service.json",
                         help="publish the bound host:port here, "
                              "atomically (default repro-service.json)")
    p_serve.set_defaults(func=cmd_serve)


def _add_submit(sub: Any) -> None:
    from repro.ops.base import DISTINCT_MODES

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running service; prints its status JSON",
    )
    _add_server_address(p_submit)
    p_submit.add_argument("--id", default=None,
                          help="re-attach to a persisted job by id "
                               "instead of sending a spec (crash "
                               "recovery; resumes from its journal)")
    # Mirrors service.jobs.JOB_OPS; importing it here would load the
    # whole service package for every CLI run (a test pins the two).
    p_submit.add_argument("--op",
                          choices=("sort", "distinct", "agg", "topk",
                                   "join", "store_ingest", "store_scan",
                                   "store_compact"),
                          default="sort")
    p_submit.add_argument("--store", default=None,
                          help="server-side store directory for the "
                               "store_* ops")
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--memory", type=_positive_int, default=10_000)
    p_submit.add_argument("--algorithm", choices=ALGORITHMS, default="2wrs")
    p_submit.add_argument("--fan-in", type=_fan_in, default=8)
    p_submit.add_argument("--format", choices=FORMAT_NAMES, default="int")
    p_submit.add_argument("--key", type=_key_columns, default=None)
    p_submit.add_argument("--right-key", type=_key_columns, default=None)
    p_submit.add_argument("--right-input", default=None,
                          help="right side of a join")
    p_submit.add_argument("--by", choices=DISTINCT_MODES, default="record")
    p_submit.add_argument("--agg", type=_aggregate_list,
                          default=("count",))
    p_submit.add_argument("--value", type=_non_negative_int, default=None)
    p_submit.add_argument("-k", type=_non_negative_int, default=0)
    p_submit.add_argument("--binary-spill", action="store_true",
                          help="accepted for compatibility; csv/tsv rows "
                               "always spill as key bytes")
    p_submit.add_argument("--spill-codec",
                          choices=(AUTO_CODEC,) + SPILL_CODECS,
                          default="none")
    p_submit.add_argument("--checksum", action="store_true",
                          help="accepted for compatibility; spill blocks "
                               "are always checksummed")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job reaches a terminal "
                               "state; exit 1 if it failed")
    p_submit.add_argument("input", nargs="?", default=None,
                          help="input file (not used with --id)")
    p_submit.add_argument("-o", "--output", default=None,
                          help="server-side output path (default: the "
                               "job's spool directory)")
    p_submit.set_defaults(func=cmd_submit)


def _add_status(sub: Any) -> None:
    p_status = sub.add_parser(
        "status",
        help="status of one job (or all jobs) on a running service",
    )
    _add_server_address(p_status)
    p_status.add_argument("id", nargs="?", default=None,
                          help="job id (omit to list every job)")
    p_status.set_defaults(func=cmd_status)


def _add_result(sub: Any) -> None:
    p_result = sub.add_parser(
        "result",
        help="stream a finished job's output from a running service",
    )
    _add_server_address(p_result)
    p_result.add_argument("id", help="job id")
    p_result.add_argument("-o", "--output", default=None,
                          help="local file (default stdout); published "
                               "atomically")
    p_result.set_defaults(func=cmd_result)


def _add_cancel(sub: Any) -> None:
    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job",
    )
    _add_server_address(p_cancel)
    p_cancel.add_argument("id", help="job id")
    p_cancel.set_defaults(func=cmd_cancel)


#: Subcommand name -> the function that adds its parser, in help order.
_SUBCOMMANDS = {
    "sort": _add_sort,
    "distinct": _add_distinct,
    "agg": _add_agg,
    "join": _add_join,
    "topk": _add_topk,
    "merge": _add_merge,
    "runs": _add_runs,
    "experiment": _add_experiment,
    "dataset": _add_dataset,
    "lint": _add_lint,
    "store": _add_store,
    "serve": _add_serve,
    "submit": _add_submit,
    "status": _add_status,
    "result": _add_result,
    "cancel": _add_cancel,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    With ``command`` set to a subcommand name, only that subcommand's
    parser is built: it parses its own argv exactly as the full parser
    does, and building all of them costs about 12 ms and imports every
    backend, most of a small sort's fixed overhead.  An unknown
    ``command`` builds the full parser, which reports it.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-way replacement selection: external sorting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in _SUBCOMMANDS:
        _SUBCOMMANDS[command](sub)
    else:
        for add_parser in _SUBCOMMANDS.values():
            add_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if os.environ.get("REPRO_FAULT_PLAN"):
        # Deterministic fault injection for subprocess-level tests:
        # arm the plan found in the environment (no-op otherwise).
        from repro.testing.faults import activate_from_env

        activate_from_env()
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
