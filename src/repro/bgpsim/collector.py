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
from dataclasses import dataclass, field
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


class UpdateStream:
    """The time-ordered update log of one collector session."""

    def __init__(self, session: SessionId, records: Sequence[UpdateRecord] = ()) -> None:
        self.session = session
        self._records: List[UpdateRecord] = sorted(records, key=lambda r: r.time)
        self._by_prefix: Optional[Dict[Prefix, List[UpdateRecord]]] = None

    @property
    def collector(self) -> str:
        return self.session[0]

    @property
    def peer_asn(self) -> int:
        return self.session[1]

    @property
    def records(self) -> Sequence[UpdateRecord]:
        return self._records

    def append(self, record: UpdateRecord) -> None:
        if self._records and record.time < self._records[-1].time:
            raise ValueError(
                f"out-of-order record at {record.time} (stream at {self._records[-1].time})"
            )
        self._records.append(record)
        if self._by_prefix is not None:
            self._by_prefix.setdefault(record.prefix, []).append(record)

    def _index(self) -> Dict[Prefix, List[UpdateRecord]]:
        """Per-prefix record index, built lazily (streams hold hundreds of
        thousands of records; per-prefix scans must not be linear in all)."""
        if self._by_prefix is None:
            index: Dict[Prefix, List[UpdateRecord]] = {}
            for record in self._records:
                index.setdefault(record.prefix, []).append(record)
            self._by_prefix = index
        return self._by_prefix

    def prefixes(self) -> FrozenSet[Prefix]:
        """All prefixes that appeared on this session."""
        return frozenset(self._index())

    def records_for(self, prefix: Prefix) -> List[UpdateRecord]:
        return list(self._index().get(prefix, ()))

    def path_timeline(self, prefix: Prefix) -> List[Tuple[float, Optional[Tuple[int, ...]]]]:
        """The (time, as_path) transitions for a prefix, duplicates removed.

        Consecutive records carrying the same AS path (e.g. attribute-only
        churn or table re-dumps) collapse into the first occurrence.
        """
        timeline: List[Tuple[float, Optional[Tuple[int, ...]]]] = []
        for record in self._index().get(prefix, ()):
            if timeline and timeline[-1][1] == record.as_path:
                continue
            timeline.append((record.time, record.as_path))
        return timeline

    def filtered(self, keep) -> "UpdateStream":
        """A new stream containing only records where ``keep(record)``."""
        return UpdateStream(self.session, [r for r in self._records if keep(r)])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._records)


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
