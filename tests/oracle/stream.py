"""Reference update streams and the record-at-a-time analyses over them.

:class:`repro.bgpsim.collector.UpdateStream` stores its records column by
column (times, interned prefix and path ids, reset flags) and builds
:class:`~repro.bgpsim.collector.UpdateRecord` values on demand; reset
detection and path-change counting read those columns.  This module keeps
the list of records they replaced, and the reset scan and path-change
count that walked it one record at a time, so the column store can be
checked against the plain statement of the semantics.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import SessionId, UpdateRecord
from repro.bgpsim.resets import DetectedReset, ResetDetectionConfig

__all__ = [
    "ReferenceUpdateStream",
    "count_path_changes",
    "detect_resets",
    "path_change_table",
    "remove_reset_artifacts",
]


class ReferenceUpdateStream:
    """The time-ordered update log of one session, as a list of records."""

    def __init__(self, session: SessionId, records: Sequence[UpdateRecord] = ()) -> None:
        self.session = session
        self._records: List[UpdateRecord] = sorted(records, key=lambda r: r.time)
        self._by_prefix: Optional[Dict[Prefix, List[UpdateRecord]]] = None

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
        if self._by_prefix is None:
            index: Dict[Prefix, List[UpdateRecord]] = {}
            for record in self._records:
                index.setdefault(record.prefix, []).append(record)
            self._by_prefix = index
        return self._by_prefix

    def prefixes(self) -> FrozenSet[Prefix]:
        return frozenset(self._index())

    def records_for(self, prefix: Prefix) -> List[UpdateRecord]:
        return list(self._index().get(prefix, ()))

    def path_timeline(self, prefix: Prefix) -> List[Tuple[float, Optional[Tuple[int, ...]]]]:
        timeline: List[Tuple[float, Optional[Tuple[int, ...]]]] = []
        for record in self._index().get(prefix, ()):
            if timeline and timeline[-1][1] == record.as_path:
                continue
            timeline.append((record.time, record.as_path))
        return timeline

    def filtered(self, keep) -> "ReferenceUpdateStream":
        return ReferenceUpdateStream(self.session, [r for r in self._records if keep(r)])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)


def detect_resets(
    stream, config: ResetDetectionConfig = ResetDetectionConfig()
) -> List[DetectedReset]:
    resets, _keep = _scan(stream.records, config)
    return resets


def remove_reset_artifacts(
    stream, config: ResetDetectionConfig = ResetDetectionConfig()
) -> ReferenceUpdateStream:
    records = list(stream.records)
    _resets, keep = _scan(records, config)
    return ReferenceUpdateStream(
        stream.session, [r for i, r in enumerate(records) if keep[i]]
    )


def _scan(
    records: Sequence[UpdateRecord], config: ResetDetectionConfig
) -> Tuple[List[DetectedReset], List[bool]]:
    records = list(records)
    keep = [True] * len(records)
    resets: List[DetectedReset] = []
    if not records:
        return resets, keep

    last_path: Dict[Prefix, Optional[Tuple[int, ...]]] = {}
    known: set = set()

    for start_idx, end_idx in _split_bursts(records, config.burst_gap):
        burst = records[start_idx:end_idx]
        burst_prefixes = {r.prefix for r in burst}
        unchanged_indices: List[int] = []
        for offset, record in enumerate(burst):
            prev = last_path.get(record.prefix, _ABSENT)
            if prev is not _ABSENT and not record.is_withdrawal and prev == record.as_path:
                unchanged_indices.append(start_idx + offset)
        known_before = len(known)
        known.update(burst_prefixes)
        is_transfer = (
            len(burst) >= config.min_prefixes
            and known_before > 0
            and len(burst_prefixes) >= config.min_table_fraction * known_before
            and len(burst_prefixes) >= config.min_prefixes
            and len(unchanged_indices) >= config.min_unchanged_fraction * len(burst)
        )
        if is_transfer:
            resets.append(
                DetectedReset(
                    start=burst[0].time,
                    end=burst[-1].time,
                    num_records=len(burst),
                    num_unchanged=len(unchanged_indices),
                )
            )
            for idx in unchanged_indices:
                keep[idx] = False
        for record in burst:
            last_path[record.prefix] = record.as_path
    return resets, keep


def _split_bursts(records: Sequence[UpdateRecord], gap: float) -> List[Tuple[int, int]]:
    bursts: List[Tuple[int, int]] = []
    start = 0
    for i in range(1, len(records)):
        if records[i].time - records[i - 1].time > gap:
            bursts.append((start, i))
            start = i
    bursts.append((start, len(records)))
    return bursts


_ABSENT = object()


def count_path_changes(stream, prefix: Prefix) -> int:
    changes = 0
    last_set: Optional[FrozenSet[int]] = None
    for record in stream.records:
        if record.prefix != prefix or record.is_withdrawal:
            continue
        as_set = frozenset(record.as_path or ())
        if last_set is not None and as_set != last_set:
            changes += 1
        last_set = as_set
    return changes


def path_change_table(stream) -> Dict[Prefix, int]:
    changes: Dict[Prefix, int] = {}
    last_set: Dict[Prefix, FrozenSet[int]] = {}
    for record in stream.records:
        if record.is_withdrawal:
            continue
        as_set = frozenset(record.as_path or ())
        previous = last_set.get(record.prefix)
        if previous is not None and previous != as_set:
            changes[record.prefix] = changes.get(record.prefix, 0) + 1
        elif record.prefix not in changes:
            changes.setdefault(record.prefix, 0)
        last_set[record.prefix] = as_set
    return changes
