"""Detection and removal of session-reset artefacts in update streams.

§4: "To ensure meaningful results, we removed any artificial updates caused
by BGP session resets [Zhang et al. 2005]".  When a collector session
resets, the peer re-sends its entire table; the archived stream then shows
a burst of re-announcements whose AS paths did not actually change.
Counting those as routing dynamics would wildly inflate every statistic.

The detector follows the spirit of Zhang et al.'s minimum-collection-time
method: a table transfer appears as a dense burst of updates that (a) covers
a large share of the prefixes the session carries and (b) overwhelmingly
repeats already-known paths.  Records inside a detected burst that repeat
the current path are removed; genuinely new paths inside the burst are kept
(a reset can coincide with real change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.bgpsim.collector import UpdateStream

__all__ = ["ResetDetectionConfig", "DetectedReset", "detect_resets", "remove_reset_artifacts"]


@dataclass(frozen=True)
class ResetDetectionConfig:
    """Tuning for the burst detector."""

    #: two records within this many seconds belong to the same burst
    burst_gap: float = 5.0
    #: a burst must re-announce at least this fraction of the prefixes the
    #: session has seen so far to qualify as a table transfer
    min_table_fraction: float = 0.5
    #: and at least this many prefixes in absolute terms
    min_prefixes: int = 10
    #: at least this fraction of the burst must repeat unchanged paths
    min_unchanged_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.burst_gap <= 0:
            raise ValueError("burst_gap must be positive")
        for name in ("min_table_fraction", "min_unchanged_fraction"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1]")


@dataclass(frozen=True)
class DetectedReset:
    """One detected table transfer."""

    start: float
    end: float
    num_records: int
    num_unchanged: int


def detect_resets(
    stream: UpdateStream, config: ResetDetectionConfig = ResetDetectionConfig()
) -> List[DetectedReset]:
    """Find table-transfer bursts in a stream (timing + content signature)."""
    resets, _keep = _scan(stream, config)
    return resets


def remove_reset_artifacts(
    stream: UpdateStream, config: ResetDetectionConfig = ResetDetectionConfig()
) -> UpdateStream:
    """Return a copy of the stream with reset re-announcements removed.

    Only *unchanged-path* records inside detected bursts are dropped;
    genuine changes survive even if they landed inside a transfer.  The
    copy shares the stream's intern tables.
    """
    _resets, keep = _scan(stream, config)
    return stream.select(keep)


def _scan(
    stream: UpdateStream, config: ResetDetectionConfig
) -> Tuple[List[DetectedReset], bytearray]:
    """Detected resets, and a keep flag per record.

    Replays the stream's columns, tracking the last-known path id per
    prefix id and the growing set of prefixes the session carries.  Only
    a burst of at least ``min_prefixes`` records can be a table transfer;
    the records between two such bursts are folded into that state in
    bulk.
    """
    times, prefix_ids, path_ids, _flags = stream.columns
    keep = bytearray(b"\x01") * len(times)
    resets: List[DetectedReset] = []
    last_path: Dict[int, int] = {}
    known: Set[int] = set()
    done = 0
    for start, end in _split_bursts(times, config.burst_gap):
        if end - start < config.min_prefixes:
            continue
        known.update(prefix_ids[done:start])
        last_path.update(zip(prefix_ids[done:start], path_ids[done:start]))
        done = end
        burst_prefixes = prefix_ids[start:end]
        burst_paths = path_ids[start:end]
        distinct = set(burst_prefixes)
        # path id 0 is a withdrawal, which never repeats a path
        unchanged = [
            start + k
            for k, (prefix, path) in enumerate(zip(burst_prefixes, burst_paths))
            if path and last_path.get(prefix) == path
        ]
        known_before = len(known)
        known.update(distinct)
        if (
            known_before > 0
            and len(distinct) >= config.min_table_fraction * known_before
            and len(distinct) >= config.min_prefixes
            and len(unchanged) >= config.min_unchanged_fraction * (end - start)
        ):
            resets.append(
                DetectedReset(
                    start=times[start],
                    end=times[end - 1],
                    num_records=end - start,
                    num_unchanged=len(unchanged),
                )
            )
            for i in unchanged:
                keep[i] = 0
        # State advances regardless: the stream's view of current paths.
        last_path.update(zip(burst_prefixes, burst_paths))
    return resets, keep


def _split_bursts(times: Sequence[float], gap: float) -> List[Tuple[int, int]]:
    """Split record times into maximal runs with inter-arrival <= gap."""
    if not times:
        return []
    cuts = [i for i in range(1, len(times)) if times[i] - times[i - 1] > gap]
    bounds = [0, *cuts, len(times)]
    return list(zip(bounds, bounds[1:]))
