"""Stateful property test: ``Store`` against a dict (DESIGN.md §17).

Hypothesis drives a :class:`RuleBasedStateMachine` through puts,
deletes, gets, flushes, full compactions and close/reopen cycles, and
checks every get and, after every step, a full scan against a plain
dict.  A four-record memtable, two-record table blocks and fan-in 3
make multi-block tables, tombstones in tables older than the newest
and the get path's seqno early exit happen within a few steps;
:func:`test_store_matches_dict` asserts that each of them did.

No crash transition: the store's ``kill -9`` tests need a child
process to kill, which a state machine step running in this process
cannot be.
"""

import shutil
import tempfile
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.store import Store
from repro.store.format import meta_is_tombstone
from repro.store.sstable import SSTableReader

OPTIONS = dict(memory=4, block_records=2, fan_in=3, sync=False)

#: A small key population so keys collide across tables, plus raw
#: bytes so memcmp order (NULs, high bits) is exercised too.
COMMON_KEYS = st.integers(0, 24).map(lambda number: b"k%02d" % number)
KEYS = st.one_of(COMMON_KEYS, st.binary(min_size=1, max_size=4))
VALUES = st.binary(max_size=12)

#: What the machine saw happen, summed over every example.
SEEN: Counter = Counter()


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.work = tempfile.mkdtemp(prefix="repro-store-stateful-")
        self.path = self.work + "/db"
        self.store = Store(self.path, **OPTIONS)
        self.oracle = {}
        self.probes = []

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self.oracle[key] = value

    @rule(keys=st.lists(COMMON_KEYS, min_size=4, max_size=12), value=VALUES)
    def put_batch(self, keys, value):
        """Several flushes' worth of writes in one step."""
        for key in keys:
            self.put(key, value)

    @rule(key=KEYS)
    def delete(self, key):
        self.store.delete(key)
        self.oracle.pop(key, None)

    @rule(keys=st.lists(COMMON_KEYS, min_size=1, max_size=8))
    def get(self, keys):
        readers = list(self.store._readers.values())
        for key in keys:
            self.probes.clear()
            assert self.store.get(key) == self.oracle.get(key)
            if self.probes and len(self.probes) < len(readers):
                SEEN["seqno early exit"] += 1

    @rule()
    def flush(self):
        self.store.flush()

    @rule()
    def compact(self):
        self.store.compact()

    @rule()
    def reopen(self):
        self.store.close()
        self.store = Store(self.path, **OPTIONS)

    @invariant()
    def scan_matches(self):
        assert list(self.store.scan()) == sorted(self.oracle.items())

    @invariant()
    def note_layout(self):
        readers = list(self.store._readers.values())
        if any(len(reader._offsets) > 1 for reader in readers):
            SEEN["multi-block table"] += 1
        if any(
            meta_is_tombstone(meta)
            for reader in readers[1:]
            for _, meta in reader.entries()
        ):
            SEEN["tombstone in an older table"] += 1

    def teardown(self):
        try:
            self.store.verify()
        finally:
            self.store.close()
            shutil.rmtree(self.work, ignore_errors=True)


def test_store_matches_dict(monkeypatch):
    """Every get and scan agrees with the dict; the cases the filter and
    the early exit must get right all occurred."""
    original = SSTableReader.lookup
    machines = []

    def lookup(self, want):
        machines[-1].probes.append(self.path)
        return original(self, want)

    class Machine(StoreMachine):
        def __init__(self):
            super().__init__()
            machines.append(self)

    monkeypatch.setattr(SSTableReader, "lookup", lookup)
    SEEN.clear()
    run_state_machine_as_test(
        Machine,
        settings=settings(max_examples=40, stateful_step_count=40),
    )
    assert SEEN["seqno early exit"] > 0
    assert SEEN["multi-block table"] > 0
    assert SEEN["tombstone in an older table"] > 0
