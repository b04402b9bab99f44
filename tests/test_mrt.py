"""Tests for the MRT-style stream serialization."""

import io

import pytest

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import UpdateRecord, UpdateStream
from repro.bgpsim.mrt import iter_records, write_records

P = Prefix.parse("10.0.0.0/24")
Q = Prefix.parse("10.1.0.0/16")


def dumps(stream):
    """One stream as text, written record by record."""
    buffer = io.StringIO()
    write_records(buffer, stream.session, stream)
    return buffer.getvalue()


def loads(text):
    """Text read back into a whole stream."""
    source = iter_records(io.StringIO(text))
    return UpdateStream(source.session, list(source))


def sample_stream():
    return UpdateStream(
        ("rrc00", 42),
        [
            UpdateRecord(0.5, P, (42, 7, 1)),
            UpdateRecord(10.0, Q, (42, 9, 3)),
            UpdateRecord(20.25, P, None),
            UpdateRecord(30.0, P, (42, 8, 1), from_reset=True),
        ],
    )


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self):
        stream = sample_stream()
        parsed = loads(dumps(stream))
        assert parsed.session == stream.session
        assert len(parsed) == len(stream)
        for a, b in zip(parsed, stream):
            assert (a.time, a.prefix, a.as_path, a.from_reset) == (
                b.time,
                b.prefix,
                b.as_path,
                b.from_reset,
            )

    def test_file_roundtrip(self):
        stream = sample_stream()
        buffer = io.StringIO()
        write_records(buffer, stream.session, stream)
        buffer.seek(0)
        parsed = iter_records(buffer)
        assert parsed.session == stream.session
        assert len(list(parsed)) == len(stream)

    def test_trace_stream_roundtrip(self, small_trace):
        trace, _ = small_trace
        session = trace.collector_sessions[0]
        stream = trace.streams[session]
        parsed = loads(dumps(stream))
        assert len(parsed) == len(stream)
        assert parsed.prefixes() == stream.prefixes()
        # analyses agree on the round-tripped stream
        from repro.analysis.pathchanges import path_change_table
        assert path_change_table(parsed) == path_change_table(stream)


class TestFormat:
    def test_reset_flag_encoded(self):
        text = dumps(sample_stream())
        assert "|R" in text
        assert text.startswith("session|rrc00|42")

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nsession|rrc01|7\nA|1.000|10.0.0.0/24|7 1|\n"
        stream = loads(text)
        assert stream.session == ("rrc01", 7)
        assert len(stream) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "A|1.0|10.0.0.0/24|7 1|\n",  # missing header
            "session|rrc00|42\nX|1.0|10.0.0.0/24\n",  # unknown kind
            "session|rrc00|42\nA|1.0|10.0.0.0/24|\n",  # missing fields
            "session|rrc00|42\nA|1.0|10.0.0.0/24||\n",  # empty path
            "session|rrc00\n",  # malformed header
            "session|rrc00|42\nW|1.0\n",  # malformed withdrawal
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            loads(bad)


def records_equal(a, b):
    return [(r.time, r.prefix, r.as_path, r.from_reset) for r in a] == [
        (r.time, r.prefix, r.as_path, r.from_reset) for r in b
    ]


class TestStreamingCodec:
    def test_write_iter_roundtrip(self):
        stream = sample_stream()
        buffer = io.StringIO()
        count = write_records(buffer, stream.session, iter(stream))
        assert count == len(stream)
        buffer.seek(0)
        source = iter_records(buffer)
        assert source.session == stream.session
        assert records_equal(list(source), stream)

    def test_source_is_one_shot(self):
        buffer = io.StringIO()
        write_records(buffer, ("rrc00", 42), sample_stream())
        buffer.seek(0)
        source = iter_records(buffer)
        list(source)
        with pytest.raises(RuntimeError, match="one-shot"):
            iter(source)

    def test_session_read_before_any_record(self):
        """The header parses eagerly so sources can be wired into a merge
        before paying for a single record line."""

        class Exploding(io.StringIO):
            def __init__(self):
                super().__init__("session|rrc02|9\nA|1.0|10.0.0.0/24|9 1|\n")
                self.lines = 0

            def __next__(self):
                self.lines += 1
                if self.lines > 1:
                    raise AssertionError("record line read too early")
                return super().__next__()

        fh = Exploding()
        source = iter_records(fh)
        assert source.session == ("rrc02", 9)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="no session header"):
            iter_records(io.StringIO(""))

    def test_torn_tail_dropped_when_tolerated(self):
        text = "session|rrc00|42\nA|1.0|10.0.0.0/24|42 1|\nA|2.0|10.0."
        records = list(iter_records(io.StringIO(text), tolerate_torn_tail=True))
        assert len(records) == 1
        assert records[0].time == 1.0

    def test_torn_tail_raises_by_default(self):
        text = "session|rrc00|42\nA|1.0|10.0.0.0/24|42 1|\nA|2.0|10.0."
        with pytest.raises(ValueError):
            list(iter_records(io.StringIO(text)))

    def test_mid_file_corruption_always_raises(self):
        """Corruption followed by an intact line is a damaged file, not a
        torn tail — recovery must not silently skip it."""
        text = (
            "session|rrc00|42\n"
            "A|1.0|10.0.0.0/24|42 1|\n"
            "garbage line\n"
            "A|3.0|10.0.0.0/24|42 9 1|\n"
        )
        with pytest.raises(ValueError):
            list(iter_records(io.StringIO(text), tolerate_torn_tail=True))

    def test_million_scale_constant_memory_shape(self):
        """Round-trip a large stream through a pipe of generators without
        ever materializing it (spot check: the reader yields lazily)."""
        n = 10_000
        session = ("rrc00", 42)
        prefix = Prefix.parse("10.0.0.0/24")

        def gen():
            for i in range(n):
                yield UpdateRecord(float(i), prefix, (42, i % 7 + 1))

        buffer = io.StringIO()
        assert write_records(buffer, session, gen()) == n
        buffer.seek(0)
        source = iter_records(buffer)
        it = iter(source)
        first = next(it)
        assert first.time == 0.0
        assert sum(1 for _ in it) == n - 1
