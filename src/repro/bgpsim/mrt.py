"""Text serialization for collector update streams.

Real RIPE collectors archive MRT files; ``bgpdump`` renders them as
pipe-separated lines.  This module provides the equivalent interchange
format for :class:`~repro.bgpsim.collector.UpdateStream` so traces can be
saved, diffed, and re-analysed without re-running a simulation:

    session|rrc00|42
    A|3600.000|10.0.0.0/24|42 7 1|
    A|7200.000|10.0.0.0/24|42 9 1|R
    W|9000.000|10.0.0.0/24

``A`` lines are announcements (trailing field ``R`` marks ground-truth
reset artefacts), ``W`` lines withdrawals.  Times are seconds from the
trace start.

The codec is streaming on both sides: :func:`write_records` drains any
record iterator to a file one line at a time, and :func:`iter_records`
reads one back as a lazy :class:`RecordStream` (an
:class:`~repro.bgpsim.collector.UpdateSource` — feed it straight into
``merge_sources``/``replay``), so million-record files round-trip without
either end ever holding the whole stream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, TextIO

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import SessionId, UpdateRecord

__all__ = [
    "encode_record",
    "decode_record",
    "format_header",
    "parse_header",
    "write_records",
    "iter_records",
    "RecordStream",
]

_HEADER = "session"


# -- line codecs -------------------------------------------------------------


def format_header(session: SessionId) -> str:
    """The ``session|<collector>|<peer asn>`` line opening every file."""
    return f"{_HEADER}|{session[0]}|{session[1]}"


def parse_header(line: str, *, lineno: int = 1) -> SessionId:
    fields = line.split("|")
    if len(fields) != 3 or fields[0] != _HEADER:
        raise ValueError(f"line {lineno}: malformed session header")
    return (fields[1], int(fields[2]))


def encode_record(record: UpdateRecord) -> str:
    """One record as one pipe-separated line (no trailing newline)."""
    if record.is_withdrawal:
        return f"W|{record.time:.3f}|{record.prefix}"
    path = " ".join(str(asn) for asn in record.as_path)
    flag = "R" if record.from_reset else ""
    return f"A|{record.time:.3f}|{record.prefix}|{path}|{flag}"


def decode_record(line: str, *, lineno: int = 0) -> UpdateRecord:
    """Parse one ``A``/``W`` line back into an :class:`UpdateRecord`."""
    fields = line.split("|")
    kind = fields[0]
    if kind == "A":
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: malformed announcement")
        path = tuple(int(asn) for asn in fields[3].split())
        if not path:
            raise ValueError(f"line {lineno}: empty AS path")
        return UpdateRecord(
            time=float(fields[1]),
            prefix=Prefix.parse(fields[2]),
            as_path=path,
            from_reset=fields[4] == "R",
        )
    if kind == "W":
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: malformed withdrawal")
        return UpdateRecord(time=float(fields[1]), prefix=Prefix.parse(fields[2]))
    raise ValueError(f"line {lineno}: unknown record kind {kind!r}")


# -- streaming codec ---------------------------------------------------------


def write_records(
    fh: TextIO, session: SessionId, records: Iterable[UpdateRecord]
) -> int:
    """Stream a session's records to an open text file.

    Writes the header then one line per record as the iterator yields
    them — nothing is materialized, so a million-record stream costs one
    record of memory.  Returns the number of records written.
    """
    fh.write(format_header(session) + "\n")
    count = 0
    for record in records:
        fh.write(encode_record(record) + "\n")
        count += 1
    return count


class RecordStream:
    """A lazily-parsed stream file: eager session header, lazy records.

    Satisfies the :class:`~repro.bgpsim.collector.UpdateSource` protocol —
    ``session`` is read from the header at construction (so a set of
    files can be wired into ``merge_sources`` before any record is
    parsed) and iterating decodes the remaining lines one at a time.
    One-shot, like any generator-backed source.

    With ``tolerate_torn_tail=True`` a final line that fails to decode is
    dropped instead of raised — the same recovery contract as
    :mod:`repro.persist`'s checkpoint scanner, for files cut off
    mid-write.  Corruption *followed by* an intact line still raises:
    that is a damaged file, not a torn tail.
    """

    def __init__(self, fh: TextIO, *, tolerate_torn_tail: bool = False) -> None:
        self._fh = fh
        self._tolerate_torn_tail = tolerate_torn_tail
        self._lineno = 0
        self._consumed = False
        line = self._next_content_line()
        if line is None:
            raise ValueError("stream text has no session header")
        self.session: SessionId = parse_header(line, lineno=self._lineno)

    def _next_content_line(self) -> Optional[str]:
        for raw in self._fh:
            self._lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            return line
        return None

    def __iter__(self) -> Iterator[UpdateRecord]:
        if self._consumed:
            raise RuntimeError("RecordStream is one-shot; reopen the file")
        self._consumed = True
        return self._records()

    def _records(self) -> Iterator[UpdateRecord]:
        while True:
            line = self._next_content_line()
            if line is None:
                return
            try:
                record = decode_record(line, lineno=self._lineno)
            except ValueError:
                # Torn tail or corruption?  A following intact line means
                # the file is damaged in the middle — always an error.
                if self._next_content_line() is not None or not self._tolerate_torn_tail:
                    raise
                return
            yield record


def iter_records(fh: TextIO, *, tolerate_torn_tail: bool = False) -> RecordStream:
    """Open a serialized stream for lazy reading.

    The inverse of :func:`write_records`:
    ``list(iter_records(f))`` equals the records that were written, and
    neither direction ever materializes the stream.
    """
    return RecordStream(fh, tolerate_torn_tail=tolerate_torn_tail)
