"""Exception hierarchy of the resilience layer (DESIGN.md §11).

Every failure the sorting engine raises *about its own durability* is a
:class:`SortError`, so callers (the CLI above all) can distinguish "the
sort could not complete and said so cleanly" from a programming error.
The subclasses carry enough location detail to act on: a corrupt spill
block names its file, block index and byte offset; a journal problem
names the manifest that could not be trusted.

Kept in its own module because both ends of the dependency chain need
it: :mod:`repro.engine.block_io` raises :class:`CorruptBlockError`
while reading and :mod:`repro.engine.resilience` (which imports
block_io) raises :class:`JournalError` while resuming — a shared leaf
module avoids the cycle.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = [
    "SortError",
    "CorruptBlockError",
    "JournalError",
    "StoreError",
    "ManifestError",
]


class SortError(Exception):
    """A sort failed in a controlled, reportable way."""


class CorruptBlockError(SortError):
    """A checksummed spill block failed verification while being read.

    Attributes
    ----------
    path:
        File the bad block lives in.
    block_index:
        0-based index of the block within the file.
    offset:
        Byte offset of the block's header within the file.
    """

    def __init__(
        self, path: str, block_index: int, offset: int, reason: str
    ) -> None:
        self.path = path
        self.block_index = block_index
        self.offset = offset
        self.reason = reason
        super().__init__(
            f"corrupt spill block in {path!r}: block #{block_index} "
            f"at byte offset {offset}: {reason}"
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        # Exception pickling replays ``args`` (the formatted message),
        # which does not match this constructor; without this, a worker
        # process raising CorruptBlockError kills the multiprocessing
        # pool's result-handler thread on unpickle and the parent's
        # ``pool.map`` waits forever instead of failing cleanly.
        return (
            CorruptBlockError,
            (self.path, self.block_index, self.offset, self.reason),
        )


class JournalError(SortError):
    """A sort journal (run manifest) is unreadable or inconsistent."""


class StoreError(SortError):
    """The LSM store failed in a controlled, reportable way (§17).

    Raised for anything the storage engine can diagnose cleanly: a
    table the manifest references but the disk no longer verifies, a
    directory already locked by another process, a flush whose bytes
    failed read-back verification.  Subclassing :class:`SortError`
    keeps the CLI's one failure path: ``repro: <cmd> failed: ...``.
    """


class ManifestError(StoreError):
    """The store MANIFEST is unreadable or internally inconsistent."""
