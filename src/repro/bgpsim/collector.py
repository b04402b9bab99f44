"""RIPE-RIS-style route collectors and their update streams.

The paper's §4 methodology consumes "all the BGP updates received by 4 RIPE
collectors (rrc00, rrc01, rrc03 and rrc04) over more than 70 eBGP
sessions".  A :class:`Collector` here is a named set of
:class:`CollectorSession` vantage points; each session yields an
:class:`UpdateStream`, the timestamped sequence of per-prefix UPDATE
records that the measurement pipeline (path-change counting, exposure,
reset removal) operates on.
"""

from __future__ import annotations

import heapq
from array import array
from collections import abc
from dataclasses import dataclass, field
from itertools import compress
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.prefixes import Prefix

__all__ = [
    "UpdateRecord",
    "UpdateStream",
    "RecordTables",
    "UpdateSource",
    "IterSource",
    "StreamEvent",
    "CollectorSession",
    "Collector",
    "SessionId",
    "merge_sources",
    "merge_streams",
]

#: A session is identified by (collector name, peer ASN), e.g. ("rrc00", 42).
SessionId = Tuple[str, int]


@dataclass(frozen=True, order=True)
class UpdateRecord:
    """One UPDATE as logged by a collector session.

    ``as_path`` starts at the session's peer AS and ends at the origin; it
    is ``None`` for withdrawals.  ``from_reset`` is ground-truth annotation
    (set by the trace engine when the record is an artificial table-dump
    re-advertisement); the reset-removal pipeline must *not* read it — it
    exists so tests can score the detector.
    """

    time: float
    prefix: Prefix
    as_path: Optional[Tuple[int, ...]] = None
    from_reset: bool = field(default=False, compare=False)

    @property
    def is_withdrawal(self) -> bool:
        return self.as_path is None


@dataclass(frozen=True)
class StreamEvent:
    """One update as it crosses the merged, globally time-ordered stream.

    The unit of the streaming pipeline: a record plus the session it was
    logged on.  ``record.time`` is the emission time; events produced by
    :func:`merge_sources` (and everything downstream: windowed replay, the
    RFD transformer, streaming codecs) are nondecreasing in time.
    """

    session: SessionId
    record: UpdateRecord

    @property
    def time(self) -> float:
        return self.record.time

    @property
    def prefix(self) -> Prefix:
        return self.record.prefix


class UpdateSource(Protocol):
    """Anything that can feed the streaming pipeline.

    A source is a ``session`` id plus an iterable of
    :class:`UpdateRecord` in nondecreasing time order.  A materialized
    :class:`UpdateStream` satisfies this protocol; :class:`IterSource`
    adapts a bare generator, so collector-scale feeds never need to be
    held in memory.
    """

    session: SessionId

    def __iter__(self) -> Iterator[UpdateRecord]: ...  # pragma: no cover


class IterSource:
    """Generator-backed update source (one-shot).

    Wraps any iterator/iterable of time-ordered records as an
    :class:`UpdateSource` without materializing it.
    """

    def __init__(self, session: SessionId, records: Iterable[UpdateRecord]) -> None:
        self.session = session
        self._records = iter(records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return self._records


class RecordTables:
    """Intern tables that column-stored :class:`UpdateStream`\\ s index into.

    A stream keeps each record's prefix and AS path as an integer id; these
    tables map the ids back.  Path id 0 is the withdrawal (``None``), and
    two records carry the same path id exactly when their paths are equal.
    The streams of one :class:`~repro.bgpsim.trace.MonthTraceBuilder` share
    one table, as do the streams derived from them (:meth:`UpdateStream.select`,
    :meth:`UpdateStream.filtered`, ``remove_reset_artifacts``), so a path
    seen on many sessions is held once.
    """

    __slots__ = ("prefixes", "paths", "_prefix_ids", "_path_ids", "_set_ids", "_sets")

    def __init__(self) -> None:
        #: prefix id -> prefix
        self.prefixes: List[Prefix] = []
        #: path id -> AS path (``None`` at id 0)
        self.paths: List[Optional[Tuple[int, ...]]] = [None]
        self._prefix_ids: Dict[Prefix, int] = {}
        self._path_ids: Dict[Optional[Tuple[int, ...]], int] = {None: 0}
        self._set_ids: List[int] = [-1]
        self._sets: Dict[FrozenSet[int], int] = {}

    def prefix_id(self, prefix: Prefix) -> int:
        """The id of ``prefix``, interning it on first sight."""
        pid = self._prefix_ids.get(prefix)
        if pid is None:
            pid = self._prefix_ids[prefix] = len(self.prefixes)
            self.prefixes.append(prefix)
        return pid

    def path_id(self, path: Optional[Tuple[int, ...]]) -> int:
        """The id of ``path``, interning it on first sight."""
        pid = self._path_ids.get(path)
        if pid is None:
            pid = self._path_ids[path] = len(self.paths)
            self.paths.append(path)
        return pid

    def as_set_ids(self) -> List[int]:
        """Path id -> id of the path's AS set (-1 for the withdrawal).

        Paths crossing the same ASes (prepending aside) share an id.
        Extended on each call to cover newly interned paths; read only.
        """
        set_ids, sets = self._set_ids, self._sets
        for path in self.paths[len(set_ids):]:
            set_ids.append(sets.setdefault(frozenset(path), len(sets)))
        return set_ids

    def empty_stream(self, session: SessionId) -> "UpdateStream":
        """A new, empty stream for ``session`` whose ids index these tables."""
        return UpdateStream._over(session, self)


class UpdateStream:
    """The time-ordered update log of one collector session.

    Stored column by column: ``array('d')`` times, prefix and path ids into
    a :class:`RecordTables` (:attr:`tables`), and a ``bytearray`` of
    ``from_reset`` flags.  :attr:`records` is a read-only sequence view,
    and it and iteration build :class:`UpdateRecord` values on demand, so a
    record has no stable identity: records compare by value.
    """

    def __init__(self, session: SessionId, records: Sequence[UpdateRecord] = ()) -> None:
        self._start(session, RecordTables())
        for record in sorted(records, key=lambda r: r.time):
            self._push(record)

    def _start(self, session: SessionId, tables: RecordTables) -> None:
        self.session = session
        self.tables = tables
        self._times = array("d")
        self._prefix_ids = array("I")
        self._path_ids = array("I")
        self._resets = bytearray()
        # prefix id -> positions of its records, built lazily (streams hold
        # hundreds of thousands of records; per-prefix scans must not be
        # linear in all)
        self._by_prefix: Optional[Dict[int, array]] = None

    @classmethod
    def _over(
        cls,
        session: SessionId,
        tables: RecordTables,
        columns: Sequence[Iterable] = (),
    ) -> "UpdateStream":
        stream = cls.__new__(cls)
        stream._start(session, tables)
        for column, values in zip(stream.columns, columns):
            column.extend(values)
        return stream

    @property
    def collector(self) -> str:
        return self.session[0]

    @property
    def peer_asn(self) -> int:
        return self.session[1]

    @property
    def records(self) -> Sequence[UpdateRecord]:
        return _RecordView(self)

    @property
    def columns(self) -> Tuple[array, array, array, bytearray]:
        """``(times, prefix_ids, path_ids, resets)``, the live columns.

        Ids index :attr:`tables`; ``resets`` holds each record's
        ``from_reset`` flag as 0 or 1.  Read only: change a stream through
        :meth:`append`.
        """
        return self._times, self._prefix_ids, self._path_ids, self._resets

    @property
    def _records(self) -> "_RecordList":
        # perfbench's corrupted-output test drops a record through this
        return _RecordList(self)

    def append(self, record: UpdateRecord) -> None:
        times = self._times
        if times and record.time < times[-1]:
            raise ValueError(
                f"out-of-order record at {record.time} (stream at {times[-1]})"
            )
        self._push(record)

    def _push(self, record: UpdateRecord) -> None:
        tables = self.tables
        pid = tables.prefix_id(record.prefix)
        self._times.append(record.time)
        self._prefix_ids.append(pid)
        self._path_ids.append(tables.path_id(record.as_path))
        self._resets.append(record.from_reset)
        if self._by_prefix is not None:
            self._by_prefix.setdefault(pid, array("I")).append(len(self._times) - 1)

    def _record(self, i: int) -> UpdateRecord:
        tables = self.tables
        return UpdateRecord(
            self._times[i],
            tables.prefixes[self._prefix_ids[i]],
            tables.paths[self._path_ids[i]],
            self._resets[i] == 1,
        )

    def _index(self) -> Dict[int, array]:
        if self._by_prefix is None:
            index: Dict[int, array] = {}
            for i, pid in enumerate(self._prefix_ids):
                positions = index.get(pid)
                if positions is None:
                    positions = index[pid] = array("I")
                positions.append(i)
            self._by_prefix = index
        return self._by_prefix

    def _positions(self, prefix: Prefix) -> Iterable[int]:
        pid = self.tables._prefix_ids.get(prefix)  # no interning on a read
        return () if pid is None else self._index().get(pid, ())

    def prefixes(self) -> FrozenSet[Prefix]:
        """All prefixes that appeared on this session."""
        return frozenset(map(self.tables.prefixes.__getitem__, self._index()))

    def records_for(self, prefix: Prefix) -> List[UpdateRecord]:
        return [self._record(i) for i in self._positions(prefix)]

    def path_timeline(self, prefix: Prefix) -> List[Tuple[float, Optional[Tuple[int, ...]]]]:
        """The (time, as_path) transitions for a prefix, duplicates removed.

        Consecutive records carrying the same AS path (e.g. attribute-only
        churn or table re-dumps) collapse into the first occurrence.
        """
        times, path_ids, paths = self._times, self._path_ids, self.tables.paths
        timeline: List[Tuple[float, Optional[Tuple[int, ...]]]] = []
        last = -1
        for i in self._positions(prefix):
            path = path_ids[i]
            if path != last:
                timeline.append((times[i], paths[path]))
                last = path
        return timeline

    def select(self, mask: Sequence[object]) -> "UpdateStream":
        """A new stream of the records whose ``mask`` entry is true, in
        order, sharing this stream's :attr:`tables`."""
        return self._over(
            self.session, self.tables, [compress(column, mask) for column in self.columns]
        )

    def filtered(self, keep) -> "UpdateStream":
        """A new stream containing only records where ``keep(record)``."""
        return self.select([keep(r) for r in self])

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[UpdateRecord]:
        prefixes, paths = self.tables.prefixes, self.tables.paths
        for time, pid, path, reset in zip(*self.columns):
            yield UpdateRecord(time, prefixes[pid], paths[path], reset == 1)


class _RecordView(abc.Sequence):
    """A stream's records as a live, read-only sequence, built on demand."""

    __slots__ = ("_stream",)

    def __init__(self, stream: UpdateStream) -> None:
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._stream)

    def __getitem__(self, index):
        positions = range(len(self._stream))[index]
        if isinstance(positions, range):
            return [self._stream._record(i) for i in positions]
        return self._stream._record(positions)


class _RecordList(_RecordView):
    """The record view plus ``pop``, which drops a record from every column."""

    __slots__ = ()

    def pop(self, index: int = -1) -> UpdateRecord:
        stream = self._stream
        index = range(len(stream))[index]
        record = stream._record(index)
        for column in stream.columns:
            del column[index]
        stream._by_prefix = None
        return record


@dataclass
class CollectorSession:
    """One eBGP session between a collector and a peer AS."""

    collector: str
    peer_asn: int

    @property
    def session_id(self) -> SessionId:
        return (self.collector, self.peer_asn)


class Collector:
    """A route collector: a name plus its peering sessions."""

    def __init__(self, name: str, peer_asns: Sequence[int]) -> None:
        if len(set(peer_asns)) != len(peer_asns):
            raise ValueError(f"collector {name} has duplicate peers")
        self.name = name
        self.sessions: List[CollectorSession] = [
            CollectorSession(name, asn) for asn in peer_asns
        ]

    @property
    def peer_asns(self) -> List[int]:
        return [s.peer_asn for s in self.sessions]

    def __repr__(self) -> str:
        return f"Collector({self.name!r}, peers={self.peer_asns})"


def merge_sources(
    sources: Iterable[UpdateSource],
    *,
    dedup: bool = False,
) -> Iterator[StreamEvent]:
    """K-way heap merge of per-session sources into one time-ordered stream.

    Accepts any iterable of :class:`UpdateSource` (materialized streams,
    :class:`IterSource`-wrapped generators, streaming MRT readers) and
    yields :class:`StreamEvent` in globally nondecreasing time order while
    holding at most one record per source in memory.

    Tie order is deterministic: records carrying the *same* timestamp are
    yielded in source order (the order sources were passed in), then in
    per-source record order — so simultaneous updates across collectors
    merge identically on every run, regardless of heap internals.

    With ``dedup=True``, per-(session, prefix) duplicate suppression is
    applied incrementally: a record whose AS path equals the previous
    record's path for the same key (attribute-only churn, table re-dumps)
    is dropped — the streaming equivalent of
    :meth:`UpdateStream.path_timeline`'s collapse rule.

    Each source must be internally time-ordered; an out-of-order record
    raises ``ValueError`` rather than silently corrupting the merge.
    """
    # Heap entries: (time, source index, per-source seq, record, session).
    # The (source index, seq) pair both breaks ties deterministically and
    # prevents the heap from ever comparing records.
    heap: List[Tuple[float, int, int, UpdateRecord, SessionId]] = []
    iterators: List[Iterator[UpdateRecord]] = []
    sessions: List[SessionId] = []
    for index, source in enumerate(sources):
        iterators.append(iter(source))
        sessions.append(source.session)
        first = next(iterators[index], None)
        if first is not None:
            heap.append((first.time, index, 0, first, sessions[index]))
    heapq.heapify(heap)

    _missing = object()
    last_path: Dict[Tuple[SessionId, Prefix], Optional[Tuple[int, ...]]] = {}
    while heap:
        time, index, seq, record, session = heapq.heappop(heap)
        nxt = next(iterators[index], None)
        if nxt is not None:
            if nxt.time < time:
                raise ValueError(
                    f"source {session} is not time-ordered: record at "
                    f"{nxt.time} after {time}"
                )
            heapq.heappush(heap, (nxt.time, index, seq + 1, nxt, session))
        if dedup:
            key = (session, record.prefix)
            if last_path.get(key, _missing) == record.as_path:
                continue
            last_path[key] = record.as_path
        yield StreamEvent(session, record)


def merge_streams(streams: Iterable[UpdateSource]) -> Dict[SessionId, UpdateStream]:
    """Index streams by session id, asserting uniqueness.

    Thin materializing wrapper over the streaming tier: accepts any
    iterable of sources (not just sequences of
    :class:`UpdateStream`), drains generator-backed sources into
    materialized :class:`UpdateStream` objects, and preserves the
    session-indexed dict shape the pre-streaming API returned.
    """
    indexed: Dict[SessionId, UpdateStream] = {}
    for stream in streams:
        if stream.session in indexed:
            raise ValueError(f"duplicate stream for session {stream.session}")
        if not isinstance(stream, UpdateStream):
            stream = UpdateStream(stream.session, list(stream))
        indexed[stream.session] = stream
    return indexed
