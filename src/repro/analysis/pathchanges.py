"""Path-change counting over collector streams (Figure 3, left).

§4: "We computed the number of path changes seen by each BGP prefix on
each session.  We define a path change as a change in the set of ASes
crossed to reach a BGP prefix (as indicated by the AS-PATH) between two
subsequent BGP UPDATEs."  The figure then plots, per (session, Tor prefix),
the ratio of that count to the *median* count over all prefixes on the
same session.

Conventions (documented because the paper leaves them implicit):

- a "change" compares AS *sets*, so prepending-only changes don't count;
- withdrawals carry no AS-PATH; a withdraw followed by a re-announcement
  of the identical path therefore does not count as a change;
- the first announcement of a prefix is not a change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro.analysis.prefixes import Prefix
from repro.analysis.stats import quantile
from repro.bgpsim.collector import SessionId, UpdateStream

__all__ = [
    "count_path_changes",
    "path_change_table",
    "tor_ratio_samples",
    "PathChangeStats",
]


def count_path_changes(stream: UpdateStream, prefix: Prefix) -> int:
    """Number of AS-set changes for ``prefix`` on this session."""
    return path_change_table(stream).get(prefix, 0)


def path_change_table(stream: UpdateStream) -> Dict[Prefix, int]:
    """Path-change counts for every prefix on the session, in one pass.

    Reads the stream's columns: one AS-set id per path id, compared as
    integers, per prefix id.
    """
    _times, prefix_ids, path_ids, _resets = stream.columns
    set_ids = stream.tables.as_set_ids()
    changes: Dict[int, int] = {}
    last_set: Dict[int, int] = {}
    for prefix, path in zip(prefix_ids, path_ids):
        if not path:  # a withdrawal
            continue
        as_set = set_ids[path]
        previous = last_set.get(prefix)
        if previous is None:
            changes[prefix] = 0
        elif previous != as_set:
            changes[prefix] += 1
        last_set[prefix] = as_set
    prefixes = stream.tables.prefixes
    return {prefixes[prefix]: count for prefix, count in changes.items()}


@dataclass(frozen=True)
class PathChangeStats:
    """Per-session summary used by the Figure 3 (left) pipeline."""

    session: SessionId
    #: path-change count per prefix (all prefixes on the session)
    counts: Mapping[Prefix, int]
    #: median count over all prefixes on this session
    median: float

    def ratio(self, prefix: Prefix) -> Optional[float]:
        """Tor-prefix count divided by the session median (None if absent
        or the median is zero — the paper's ratio is undefined there)."""
        count = self.counts.get(prefix)
        if count is None or self.median <= 0:
            return None
        return count / self.median


def session_stats(stream: UpdateStream) -> PathChangeStats:
    """Compute per-prefix counts and the session median."""
    counts = path_change_table(stream)
    median = quantile(list(counts.values()), 0.5) if counts else 0.0
    return PathChangeStats(session=stream.session, counts=counts, median=median)


def tor_ratio_samples(
    streams: Iterable[UpdateStream],
    tor_prefixes: FrozenSet[Prefix],
    min_median: float = 0.5,
) -> List[float]:
    """The Figure 3 (left) sample set: one ratio per (session, Tor prefix).

    Sessions whose median change count is below ``min_median`` (e.g. a
    session where most prefixes never changed) are skipped, as the ratio
    would be undefined; the paper implicitly does the same by dividing by
    the median.
    """
    samples: List[float] = []
    for stream in streams:
        stats = session_stats(stream)
        if stats.median < min_median:
            continue
        for prefix in stats.counts:
            if prefix not in tor_prefixes:
                continue
            ratio = stats.ratio(prefix)
            if ratio is not None:
                samples.append(ratio)
    return samples
