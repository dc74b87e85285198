"""Crash-safe resumable external sorting (DESIGN.md §11).

The streaming backends of PR 1–3 treat their temp directory as
disposable: any failure — a worker death, a full disk, a torn write —
throws away every spilled run and the whole sort starts over.  This
module adds the durable variant:

* :class:`JsonlLog` — the one fsynced append-only JSONL log: every
  append is flushed and fsynced, a damaged trailing line (the crash
  happened mid-append) is tolerated, dropped and cut off before the
  next append, and a rewrite is published atomically.  The sort's
  :class:`SortJournal` and the store's MANIFEST
  (:class:`~repro.store.manifest.StoreManifest`) are this log with
  their own entry semantics on top.
* :class:`SortJournal` — the run manifest in the sort's *work
  directory*.  Each completed spill run (and each completed
  intermediate merge) is recorded with its file name, record count and
  CRC-32 as soon as it is durable (``fsync`` before journal append),
  so the manifest never claims data that does not exist.
* :class:`ResumableSpillSort` — the journaled
  :class:`~repro.sort.spill.FileSpillSort`: it runs Load-Sort-Store
  (§2.1.1) through the base class's one generation loop and adds only
  the journal.  Run generation is deterministic given its input, so a
  resumed sort replays generation from the start of the input, *skips
  writing* every journaled run that still verifies, writes any missing
  or corrupt one again, and restarts the merge from the surviving
  intermediate merge outputs.  A reused run costs its generation CPU,
  not its I/O.
* Shard **completion markers** — the parallel backend's equivalent:
  each worker, after fsyncing its sorted shard file, atomically writes
  a ``<shard>.ok`` sidecar with the shard's record count and CRC-32.
  On resume the parent verifies the markers and only re-sorts the
  shards that are missing or fail verification.

Everything here verifies before trusting: a journaled artifact is only
reused after its on-disk bytes re-hash to the recorded CRC-32, so a
bit-flipped surviving run is regenerated, not merged.

The final sorted output is deterministic for a given input and record
format (ties in the merge heap are broken by stream index, and equal
records encode identically), so a resumed sort emits output
byte-identical to the uninterrupted one — ``tests/test_resilience.py``
and the fault matrix in ``tests/test_faults.py`` assert this by
SHA-256 for every injected fault point.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Type,
    TypeVar,
)

from repro.core.records import INT, RecordFormat
from repro.engine.block_io import (
    SPILL_FRAMING,
    BlockWriter,
    body_encoding,
    open_run,
    open_text,
    validate_block_records,
    write_block_file,
)
from repro.engine.errors import JournalError, SortError
from repro.engine.report import DEFAULT_CPU_OP_TIME
from repro.merge.kway import DEFAULT_FAN_IN, MergeCounter, merge_blocks
from repro.runs.base import RunGeneratorStats
from repro.runs.load_sort_store import LoadSortStore
from repro.sort.spill import (
    DEFAULT_BUFFER_RECORDS,
    FileSpillSort,
    SpilledRun,
    SpillSession,
)

__all__ = [
    "JOURNAL_NAME",
    "MARKER_SUFFIX",
    "JsonlLog",
    "ResumableSpillSort",
    "SortJournal",
    "atomic_output",
    "file_crc32",
    "input_fingerprint",
    "read_marker",
    "wipe_directory",
    "write_marker",
]

#: Manifest file name inside a durable work directory.
JOURNAL_NAME = "sort.journal"

#: Sidecar suffix of a shard completion marker.
MARKER_SUFFIX = ".ok"

#: Journal schema version (bumped on incompatible entry changes).
JOURNAL_VERSION = 1


def file_crc32(path: str, chunk_bytes: int = 1 << 20) -> int:
    """Streaming CRC-32 of a file's raw bytes (resume verification)."""
    crc = 0
    # repro: lint-waive R002 binary CRC verification read must see the raw bytes, outside the fault/CRC seam
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def artifact_valid(path: str, crc: int) -> bool:
    """True when a journaled artifact exists and re-hashes to ``crc``."""
    try:
        if not os.path.isfile(path):
            return False
        return file_crc32(path) == crc
    except OSError:
        return False


def input_fingerprint(path: Optional[str]) -> Optional[str]:
    """Identity of an input file, tying a journal to one input.

    ``abspath:size:mtime_ns``; None for stdin (``None`` or ``"-"``) and
    for a file that cannot be stat-ed.  Journals record this string, so
    it must stay byte-identical for old work dirs to resume.
    """
    if path in (None, "-"):
        return None
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return f"{os.path.abspath(path)}:{stat.st_size}:{stat.st_mtime_ns}"


def _publish_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (write + fsync + rename).

    The rename is the commit point: a crash at any earlier moment
    leaves ``path`` exactly as it was, never half written.
    """
    tmp = path + ".tmp"
    # repro: lint-waive R002 markers and log rewrites are recovery metadata; injecting faults here would fake the commit point itself
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_marker(path: str, payload: Dict[str, Any]) -> None:
    """Atomically persist a completion marker.

    A crash before the rename leaves no marker, so a half-written
    shard can never be mistaken for a finished one.
    """
    _publish_text(path, json.dumps(payload))


@contextmanager
def atomic_output(path: str) -> Iterator[TextIO]:
    """Atomically publish a final output file (write → fsync → rename).

    The §11 commit-point rule applied to the user-visible output
    itself: the body writes ``path + ".tmp"`` — through the block-I/O
    seam, so the fault harness can kill a publish mid-write — and only
    after a flush and fsync does ``os.replace`` make it visible at
    ``path``.  A crash, injected fault, or sort error at any earlier
    moment leaves the target path exactly as it was (absent, or the
    previous complete output) and removes the partial temp file; a
    truncated file with exit-looking contents can never appear at the
    published path.
    """
    tmp = path + ".tmp"
    handle = open_text(tmp, "w")
    try:
        yield handle
    except BaseException:
        try:
            handle.close()
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass
        raise
    handle.flush()
    os.fsync(handle.fileno())
    handle.close()
    os.replace(tmp, path)


def read_marker(path: str) -> Optional[Dict[str, Any]]:
    """Load a completion marker; None when absent or unreadable."""
    try:
        # repro: lint-waive R002 marker reads are recovery metadata, deliberately outside the record-block seam
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def wipe_directory(work_dir: str) -> None:
    """Remove every entry inside ``work_dir`` (but keep the directory)."""
    for name in os.listdir(work_dir):
        target = os.path.join(work_dir, name)
        if os.path.isdir(target):
            shutil.rmtree(target, ignore_errors=True)
        else:
            try:
                os.remove(target)
            except OSError:
                pass


def _log_line(entry: Dict[str, Any]) -> str:
    return json.dumps(entry, sort_keys=True) + "\n"


_Log = TypeVar("_Log", bound="JsonlLog")


class JsonlLog:
    """An fsynced append-only JSONL log: one JSON object per line.

    * :meth:`append` writes one line, flushes and fsyncs before it
      returns, so an acknowledged entry is on disk.
    * :meth:`_read` tolerates one damaged *final* line — unparseable,
      not valid UTF-8, not a JSON object, or missing its newline: the
      crash-mid-append case — and drops it.  Damage anywhere else means
      the file did not grow append-only, and raises :attr:`error`.
    * :meth:`_open_append` cuts a dropped final line off the file
      first: appending after it would fuse two entries into one
      damaged mid-file line, poisoning the log for every later load.
    * :meth:`rewrite` replaces the whole log atomically (write → fsync
      → ``os.replace``).

    The log bypasses the block-I/O fault seam on purpose: it is the
    recovery mechanism for the faults that seam injects.  Owners
    subclass it with their entry semantics and typed :attr:`error`.
    """

    #: Raised for damage before the final line.
    error: Type[SortError] = SortError
    #: What the owner calls its log, in error messages.
    label = "log"

    def __init__(self, path: str) -> None:
        self.path = path
        self.entries: List[Dict[str, Any]] = []
        #: Byte length of the intact prefix :meth:`_read` found.
        self._intact: Optional[int] = None
        self._handle: Optional[TextIO] = None

    @classmethod
    def _load(cls, path: str) -> List[Dict[str, Any]]:
        """The entries of the log at ``path``."""
        log = cls(path)
        log._read()
        return log.entries

    def _read(self) -> None:
        """Load :attr:`entries` from disk, dropping a torn final line."""
        # repro: lint-waive R002 the log is the recovery mechanism; wrapping it in the fault seam it arbitrates would be circular
        with open(self.path, "rb") as handle:
            lines = handle.readlines()
        entries: List[Dict[str, Any]] = []
        intact = 0
        for index, line in enumerate(lines):
            if line.strip():
                try:
                    entry = json.loads(line.decode("utf-8"))
                except ValueError:  # undecodable bytes or broken JSON
                    entry = None
                if not isinstance(entry, dict) or not line.endswith(b"\n"):
                    if index == len(lines) - 1:
                        break  # torn final append — the crash we planned for
                    raise self.error(
                        f"{self.label} {self.path!r} is corrupt at line "
                        f"{index + 1}; it only ever grows by appending, so "
                        f"damage before the tail means it cannot be trusted"
                    )
                entries.append(entry)
            intact += len(line)
        self.entries = entries
        self._intact = intact

    def _open_append(self) -> None:
        """Open for appending, first cutting off a dropped final line."""
        intact = self._intact
        if intact is not None and os.path.getsize(self.path) > intact:
            os.truncate(self.path, intact)
        # repro: lint-waive R002 log appends must bypass the seam they make recoverable; close() owns this handle
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, entry: Dict[str, Any]) -> None:
        """Durably record one entry (write + flush + fsync)."""
        assert self._handle is not None, f"{self.label} is not open for append"
        self.entries.append(entry)
        self._handle.write(_log_line(entry))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rewrite(self, entries: List[Dict[str, Any]]) -> None:
        """Atomically replace the whole log with ``entries``.

        A crash before the rename leaves the old log untouched.
        """
        assert self._handle is not None, f"{self.label} is not open"
        _publish_text(self.path, "".join(map(_log_line, entries)))
        self.close()
        self.entries = entries
        self._intact = None
        self._open_append()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self: _Log) -> _Log:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SortJournal(JsonlLog):
    """The run manifest of one durable sort.

    The first entry is always ``meta`` carrying the sort's parameter
    *fingerprint* (generator, memory, format, fan-in, framing, codec,
    input identity…).  :meth:`open_dir` only resumes a journal whose
    fingerprint matches the current sort exactly; anything else — a
    different input file, a changed memory budget, a corrupt journal —
    wipes the work directory and starts fresh, because mixing runs
    from two configurations would merge silently wrong data.
    """

    error = JournalError
    label = "journal"

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open_dir(
        cls, work_dir: str, fingerprint: Dict[str, Any], resume: bool
    ) -> "SortJournal":
        """Open (resuming) or initialise the journal of ``work_dir``."""
        os.makedirs(work_dir, exist_ok=True)
        path = os.path.join(work_dir, JOURNAL_NAME)
        if resume and os.path.exists(path):
            journal = cls(path)
            try:
                journal._read()
            except JournalError:
                pass  # damaged before its tail: start fresh below
            meta = journal.entries[0] if journal.entries else {}
            if (
                meta.get("type") == "meta"
                and meta.get("version") == JOURNAL_VERSION
                and meta.get("fingerprint") == fingerprint
            ):
                journal._open_append()
                return journal
        # Fresh start: stale artifacts from another configuration (or a
        # rejected journal) must not survive into this attempt.  Never
        # wipe a directory that was not ours: anything non-empty
        # without a journal is the user's data, not sort state.
        if os.listdir(work_dir) and not os.path.exists(path):
            raise JournalError(
                f"work directory {work_dir!r} is not empty and holds no "
                f"sort journal; refusing to wipe it — pass an empty or "
                f"dedicated directory"
            )
        wipe_directory(work_dir)
        journal = cls(path)
        journal._open_append()
        journal.append(
            {
                "type": "meta",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
        )
        return journal

    # -- queries ---------------------------------------------------------------

    def _last_by_key(self, entry_type: str, key: str) -> Dict[Any, Dict]:
        found: Dict[Any, Dict] = {}
        for entry in self.entries:
            if entry.get("type") == entry_type:
                found[entry.get(key)] = entry
        return found

    def runs(self) -> Dict[int, Dict[str, Any]]:
        """All journaled generation-run entries (no disk verification)."""
        return self._last_by_key("run", "id")

    def merges(self) -> Dict[Any, Dict[str, Any]]:
        """All journaled merge entries by id (no disk verification)."""
        return self._last_by_key("merge", "id")

    def runs_done(self) -> Optional[Dict[str, Any]]:
        """The generation-complete entry, when one was reached."""
        done = None
        for entry in self.entries:
            if entry.get("type") == "runs_done":
                done = entry
        return done


class _ResumeState:
    """What a resumed sort may reuse, with supersession reasoning.

    A journaled artifact (generation run ``i`` or merge output
    ``m<j>``) is *available* to the resumed merge schedule when either

    * its file still verifies on disk, or
    * it was **consumed by an available merge** — the crash-consistency
      invariant deletes a merge's inputs only after the output is
      journaled, so a deleted input whose consumer (transitively)
      survives on disk is work that never needs redoing.

    Without the second clause, a crash *after* an intermediate merge
    pass would force regeneration of every input run that pass already
    consumed — re-paying exactly the cost the journal exists to save —
    only for the reused merge output to discard the fresh files unread.
    """

    def __init__(self, journal: SortJournal, work_dir: str) -> None:
        self.work_dir = work_dir
        self.run_entries = journal.runs()
        self.merge_entries = journal.merges()
        self.by_inputs = {
            tuple(entry["inputs"]): entry
            for entry in self.merge_entries.values()
        }
        #: artifact id -> the merge entry that consumed it.
        self.consumer_of = {
            rid: entry
            for entry in self.merge_entries.values()
            for rid in entry["inputs"]
        }
        self._disk: Dict[Any, bool] = {}

    def _disk_valid(self, key: Any, entry: Dict[str, Any]) -> bool:
        cached = self._disk.get(key)
        if cached is None:
            cached = artifact_valid(
                os.path.join(self.work_dir, entry["file"]), entry["crc32"]
            )
            self._disk[key] = cached
        return cached

    def _covered(self, artifact_id: Any) -> bool:
        """True when a (transitive) consumer merge survives on disk."""
        entry = self.consumer_of.get(artifact_id)
        while entry is not None:
            merge_key = f"m{entry['id']}"
            if self._disk_valid(merge_key, entry):
                return True
            entry = self.consumer_of.get(merge_key)
        return False

    def run_available(self, run_id: int) -> bool:
        entry = self.run_entries.get(run_id)
        if entry is None:
            return False
        return self._disk_valid(run_id, entry) or self._covered(run_id)

    def merge_reusable(self, inputs: Tuple[Any, ...]) -> Optional[Dict]:
        """The journaled merge over ``inputs`` if its output is usable."""
        entry = self.by_inputs.get(inputs)
        if entry is None:
            return None
        merge_key = f"m{entry['id']}"
        if self._disk_valid(merge_key, entry) or self._covered(merge_key):
            return entry
        return None


class ResumableSpillSort(FileSpillSort):
    """:class:`~repro.sort.spill.FileSpillSort` with a durable,
    restartable work directory.

    It runs Load-Sort-Store runs of ``memory`` records through the
    base class's ``sort()`` — one generation loop, report, merge and
    instrumentation — and adds only the journal:

    * **Journaled runs** — each generated run is written with
      ``fsync`` and journaled with its record count and CRC-32; a
      resumed sort replays generation (deterministic for a given
      memory and input) and adopts every run the journal proves intact
      instead of writing it again.
    * **Journaled merges** — every intermediate merge is fsynced,
      CRC-recorded and journaled when complete; consumed inputs are
      only deleted *after* their merge output is journaled.
    * **Failure keeps the work directory** — only a fully consumed
      sort removes it; anything else leaves runs + journal behind for
      ``resume=True`` (or ``repro sort --resume``) to pick up.

    ``resume=True`` with a compatible journal skips the write of every
    surviving run (:attr:`runs_reused` / :attr:`merges_reused` count
    the savings); an incompatible or corrupt journal wipes the
    directory and starts fresh.  ``input_fingerprint`` ties the
    journal to one input (the CLI passes path+size+mtime); API callers
    that omit it promise the input stream is unchanged between
    attempts.
    """

    def __init__(
        self,
        *,
        memory: int,
        work_dir: str,
        fan_in: int = DEFAULT_FAN_IN,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        record_format: RecordFormat = INT,
        resume: bool = False,
        input_fingerprint: Optional[str] = None,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
        spill_codec: str = "none",
    ) -> None:
        validate_block_records(buffer_records)
        super().__init__(
            LoadSortStore(memory),
            fan_in=fan_in,
            buffer_records=buffer_records,
            record_format=record_format,
            cpu_op_time=cpu_op_time,
            spill_codec=spill_codec,
        )
        self.memory = memory
        self.work_dir = work_dir
        self.resume = resume
        self.input_fingerprint = input_fingerprint
        #: Runs / intermediate merges skipped thanks to the journal.
        self.runs_reused = 0
        self.merges_reused = 0

    def fingerprint(self) -> Dict[str, Any]:
        """Parameters that must match for a journal to be resumable."""
        return {
            # Work dirs journaled by the former inline chunk loop carry
            # "mode": "spill-ckpt" instead and are wiped, not resumed.
            "generator": "lss",
            "memory": self.memory,
            "fan_in": self.fan_in,
            "buffer_records": self.buffer_records,
            "format": self.record_format.name,
            # Work dirs written before every run file became an RBLC
            # block stream carry no framing key and are never resumed.
            "framing": SPILL_FRAMING,
            # Body kinds are not mutually readable: a resume across
            # a kind switch must wipe and start over.
            "encoding": body_encoding(self.record_format),
            # Codec framings are not mutually readable either: a work
            # dir journaled under one codec must never be resumed under
            # another, so the codec is part of the resume identity.
            "codec": self.spill_codec,
            "input": self.input_fingerprint,
        }

    # -- FileSpillSort steps ---------------------------------------------------

    def _open_session(self) -> SpillSession:
        """Open the journal (resuming when allowed) and the work dir."""
        self._journal = SortJournal.open_dir(
            self.work_dir, self.fingerprint(), self.resume
        )
        self._resume_state = _ResumeState(self._journal, self.work_dir)
        self.runs_reused = 0
        self.merges_reused = 0
        return SpillSession(self.work_dir, codec=self.spill_codec)

    def _close_session(self, session: SpillSession, completed: bool) -> None:
        """Keep every journaled artifact unless the sort completed."""
        self._journal.close()
        if completed:
            session.cleanup()

    def _merge_group(
        self, session: SpillSession, counter: MergeCounter
    ) -> Callable[[Sequence[SpilledRun]], SpilledRun]:
        return self._journaled_merge_group(self._journal, session, counter)

    def _run_path(self, run_id: Any) -> str:
        return os.path.join(self.work_dir, f"run-{run_id:06d}.txt")

    def _merge_path(self, merge_id: int) -> str:
        return os.path.join(self.work_dir, f"merge-{merge_id:06d}.txt")

    def _adopt(
        self, session: SpillSession, path: str, length: int, run_id: Any
    ) -> SpilledRun:
        """A journaled file as a merge input the merge must not delete."""
        run = SpilledRun(
            session, path, length, self.record_format, self.buffer_records,
            keep=True,
        )
        run.run_id = run_id
        return run

    def _spill_runs(
        self, records: Iterable[Any], session: SpillSession
    ) -> Tuple[List[SpilledRun], str, RunGeneratorStats]:
        """Generate and spill the runs, then journal ``runs_done``.

        When a previous attempt finished generation and every run is
        still reusable (:class:`_ResumeState`), the input stream is not
        touched at all: the mid-merge-crash fast path.
        """
        state = self._resume_state
        done = self._journal.runs_done()
        if done is not None and all(
            state.run_available(run_id) for run_id in range(done["runs"])
        ):
            runs: List[SpilledRun] = []
            stats = RunGeneratorStats(records_in=done["records"])
            for run_id in range(done["runs"]):
                entry = state.run_entries[run_id]
                runs.append(self._adopt(
                    session, os.path.join(self.work_dir, entry["file"]),
                    entry["records"], run_id,
                ))
                stats.note_run(entry["records"])
            self.runs_reused = len(runs)
            return runs, self.generator.name, stats
        runs, algorithm, stats = super()._spill_runs(records, session)
        self._journal.append({
            "type": "runs_done", "runs": len(runs),
            "records": stats.records_in,
        })
        return runs, algorithm, stats

    def _spill_run(
        self, session: SpillSession, run_id: int, run: List[Any]
    ) -> SpilledRun:
        """Adopt the journaled run ``run_id`` if it is still reusable,
        else write it durably and journal it."""
        state = self._resume_state
        path = self._run_path(run_id)
        entry = state.run_entries.get(run_id)
        if (
            entry is not None
            and entry["records"] == len(run)
            and state.run_available(run_id)
        ):
            self.runs_reused += 1
        else:
            count, crc = write_block_file(
                path,
                run,
                self.record_format,
                self.buffer_records,
                fsync=True,
                codec=self.spill_codec,
                session=session,
            )
            self._journal.append(
                {
                    "type": "run",
                    "id": run_id,
                    "file": os.path.basename(path),
                    "records": count,
                    "crc32": crc,
                }
            )
        return self._adopt(session, path, len(run), run_id)

    def _journaled_merge_group(
        self,
        journal: SortJournal,
        session: SpillSession,
        counter: MergeCounter,
    ) -> Callable[[Sequence["SpilledRun"]], "SpilledRun"]:
        """Build the journaling merge_group for ``merge_spilled_blocks``.

        Each intermediate pass node gets a deterministic id (call
        order over the deterministic pass structure of
        ``reduce_to_fan_in``), so a resumed sort matches its groups
        against journaled ones by input-id tuple and skips the ones
        whose outputs survived on disk — or were themselves consumed
        by a surviving later merge (a placeholder run is adopted; it
        is never read, only matched by id in *its* consumer's group).
        Consumed inputs are deleted only after the group's output is
        journaled — the crash-consistency invariant.
        """
        state = self._resume_state
        next_id = iter(range(10**9))

        def merge_group(group: Sequence[SpilledRun]) -> SpilledRun:
            merge_id = next(next_id)
            ids = tuple(run.run_id for run in group)
            entry = state.merge_reusable(ids)
            if entry is not None:
                self.merges_reused += 1
                out = self._adopt(
                    session,
                    os.path.join(self.work_dir, entry["file"]),
                    entry["records"],
                    f"m{entry['id']}",
                )
            else:
                path = self._merge_path(merge_id)
                with open_run(path, "w", self.spill_codec) as handle:
                    writer = BlockWriter(
                        handle,
                        self.record_format,
                        self.buffer_records,
                        self.spill_codec,
                    )
                    writer.write_blocks(merge_blocks(
                        [run.blocks() for run in group], counter,
                        block_records=self.buffer_records,
                    ))
                    writer.flush()
                    handle.flush()
                    os.fsync(handle.fileno())
                session.spilled(writer.raw_bytes, writer.disk_bytes)
                journal.append(
                    {
                        "type": "merge",
                        "id": merge_id,
                        "inputs": list(ids),
                        "file": os.path.basename(path),
                        "records": writer.written,
                        "crc32": writer.file_crc,
                    }
                )
                out = self._adopt(
                    session, path, writer.written, f"m{merge_id}"
                )
            for run in group:
                try:
                    os.remove(run.path)
                except OSError:
                    pass
            return out

        return merge_group
