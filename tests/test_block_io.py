"""Tests for the batched block readers/writers (repro.engine.block_io).

The reader/writer contract tests run on plain-line files
(``codec=None``); the RBLC block stream every spill file uses is
covered by ``test_binary_spill.py``, ``test_resilience.py`` and
``test_spill_codec.py``.
"""

import io

import pytest

from repro.core.records import INT, STR
from repro.engine.block_io import (
    BlockWriter,
    iter_records,
    open_bytes,
    read_blocks,
    write_sequence,
)


class TestReadBlocks:
    def test_exact_block_boundaries(self):
        handle = io.StringIO("".join(f"{i}\n" for i in range(10)))
        blocks = list(read_blocks(handle, INT, 4, codec=None))
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_missing_final_terminator(self):
        handle = io.StringIO("1\n2\n3")
        blocks = read_blocks(handle, INT, 2, codec=None)
        assert list(blocks) == [[1, 2], [3]]

    def test_empty_file(self):
        assert list(read_blocks(io.StringIO(""), INT, 4, codec=None)) == []

    def test_invalid_block_records(self):
        with pytest.raises(ValueError, match="block_records"):
            list(read_blocks(io.StringIO("1\n"), INT, 0, codec=None))


class TestIterRecords:
    def test_skip_blank_tolerates_gaps(self):
        handle = io.StringIO("1\n\n2\n   \n\n3\n")
        got = iter_records(handle, INT, 2, skip_blank=True, codec=None)
        assert list(got) == [1, 2, 3]

    def test_all_blank_input(self):
        handle = io.StringIO("\n\n\n")
        got = iter_records(handle, INT, 2, skip_blank=True, codec=None)
        assert list(got) == []

    def test_strict_mode_preserves_empty_string_records(self):
        # str format: an interior blank line is a real (empty) record
        # when blank skipping is off.
        handle = io.StringIO("a\n\nb\n")
        assert list(iter_records(handle, STR, 8, codec=None)) == ["a", "", "b"]

    def test_skip_blank_never_drops_text_records(self):
        # Regression: whitespace-only lines are records for text
        # formats — skip_blank must only apply to the numeric formats,
        # or `sort --format str` silently loses lines vs sort(1).
        handle = io.StringIO("b\n \na\n\n")
        got = list(iter_records(handle, STR, 4, skip_blank=True, codec=None))
        assert got == ["b", " ", "a", ""]


class TestBlockWriter:
    def test_write_all_across_many_flushes(self):
        # Regression: flush() used to rebind the pending list, orphaning
        # write_all's local alias — every record after the first block
        # was silently dropped.
        sink = io.StringIO()
        writer = BlockWriter(sink, INT, 3, codec=None)
        assert writer.write_all(iter(range(10))) == 10
        writer.flush()
        assert sink.getvalue() == "".join(f"{i}\n" for i in range(10))

    def test_interleaved_write_and_write_all(self):
        sink = io.StringIO()
        writer = BlockWriter(sink, INT, 2, codec=None)
        writer.write(1)
        writer.write_all([2, 3, 4])
        writer.write(5)
        writer.flush()
        assert sink.getvalue() == "1\n2\n3\n4\n5\n"
        assert writer.written == 5

    @pytest.mark.parametrize("good", [0, 1, 3, 7])
    def test_write_all_counts_exactly_when_the_source_raises(self, good):
        def source():
            yield from range(good)
            raise RuntimeError("source failed")

        sink = io.StringIO()
        writer = BlockWriter(sink, INT, 3, codec=None)
        with pytest.raises(RuntimeError):
            writer.write_all(source())
        assert writer.written == good
        full = good - good % 3
        # Full blocks are on the sink; the tail is still pending.
        assert sink.getvalue() == "".join(f"{i}\n" for i in range(full))
        writer.flush()
        assert sink.getvalue() == "".join(f"{i}\n" for i in range(good))

    def test_nothing_written_without_records(self):
        sink = io.StringIO()
        writer = BlockWriter(sink, INT, 2, codec=None)
        writer.flush()
        assert sink.getvalue() == ""
        assert writer.written == 0


class TestFileHelpers:
    def test_write_sequence_accepts_plain_iterators(self, tmp_path):
        path = str(tmp_path / "data.txt")
        assert write_sequence(path, iter([3, 1, 2]), INT, 2) == 3
        with open_bytes(path) as handle:
            assert list(iter_records(handle, INT)) == [3, 1, 2]

    def test_sequence_and_iterator_paths_write_identical_bytes(self, tmp_path):
        data = list(range(100))
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        write_sequence(a, iter(data), INT, 7)
        write_sequence(b, data, INT, 7)
        assert open(a, "rb").read() == open(b, "rb").read()
