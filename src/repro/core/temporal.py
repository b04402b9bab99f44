"""Temporal-dynamics analysis (§3.1): exposure growth and compromise risk.

Connects the BGP trace substrate to the anonymity model: for a client AS
observing its own routes towards its guards' prefixes (a full-visibility
"observer" vantage in the trace engine), compute how the set of on-path
ASes grows over the month, and feed the growing ``x`` into
``1 - (1 - f)^x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.exposure import DEFAULT_DWELL_THRESHOLD
from repro.analysis.prefixes import Prefix
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.topology import ASGraph
from repro.bgpsim.collector import UpdateStream
from repro.bgpsim.trace import MonthTrace
from repro.core.anonymity import compromise_probability

__all__ = [
    "DwellTracker",
    "exposure_over_time",
    "compromise_trajectory",
    "ClientExposure",
    "client_exposure",
    "static_guard_exposure",
]


class DwellTracker:
    """Incremental dwell-qualified AS accounting over one path timeline.

    Feeds on ``(time, path)`` transitions in time order; an AS qualifies
    once its accumulated on-path time reaches the threshold — §4's
    "crossed for at least 5 minutes" rule, evaluated one transition at a
    time so a year-long stream needs no materialized timeline.  The
    ``qualified`` set may be shared between trackers to accumulate a
    union (e.g. across all sessions carrying a guard's prefix) without a
    per-sample union pass.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_DWELL_THRESHOLD,
        qualified: Optional[Set[int]] = None,
    ) -> None:
        self.threshold = threshold
        self.dwell: Dict[int, float] = {}
        self.qualified: Set[int] = qualified if qualified is not None else set()
        self.current_path: Optional[Tuple[int, ...]] = None
        self.since = 0.0

    def _credit(self, until: float) -> None:
        path = self.current_path
        if path is None or until <= self.since:
            return
        span = until - self.since
        dwell = self.dwell
        threshold = self.threshold
        for asn in set(path):
            total = dwell.get(asn, 0.0) + span
            dwell[asn] = total
            if total >= threshold:
                self.qualified.add(asn)

    def observe(self, time: float, path: Optional[Tuple[int, ...]]) -> None:
        """A path transition at ``time`` (``None`` = withdrawn)."""
        self._credit(time)
        self.current_path = path
        self.since = max(self.since, time)

    def advance(self, time: float) -> None:
        """Credit dwell up to ``time`` without changing the path (sampling)."""
        self._credit(time)
        self.since = max(self.since, time)

    # -- checkpointing (state shared via ``qualified`` is *not* included;
    # -- the owner of a shared set serializes it once) ---------------------

    def state(self) -> dict:
        return {
            "dwell": {str(asn): total for asn, total in self.dwell.items()},
            "path": list(self.current_path) if self.current_path is not None else None,
            "since": self.since,
        }

    def restore(self, state: dict) -> None:
        self.dwell = {int(asn): float(total) for asn, total in state["dwell"].items()}
        path = state["path"]
        self.current_path = tuple(path) if path is not None else None
        self.since = float(state["since"])


def static_guard_exposure(
    graph: ASGraph,
    client_asn: int,
    guard_asns: Iterable[int],
    *,
    engine: Optional[RoutingEngine] = None,
) -> FrozenSet[int]:
    """ASes on the client's *current* paths towards its guards' origins.

    This is the static-path baseline that prior work assumed fixed and
    that §3.1 shows BGP dynamics grow over time: compare ``len(...)``
    against :func:`client_exposure`'s final ``x`` to quantify the gap.
    Uses the engine's batch API, so a population of clients against a
    shared guard set amortises to one route computation per guard origin.
    """
    from repro.serve.api import PathBatch

    pairs = [(client_asn, g) for g in set(guard_asns)]
    if not pairs:
        raise ValueError("need at least one guard AS")
    eng = engine if engine is not None else shared_engine()
    ases = set()
    for result in eng.paths_many(graph, PathBatch.of(pairs)):
        if result.path:
            ases.update(result.path)
    return frozenset(ases)


def exposure_over_time(
    stream: UpdateStream,
    prefix: Prefix,
    sample_times: Sequence[float],
    dwell_threshold: float = DEFAULT_DWELL_THRESHOLD,
) -> List[int]:
    """Cumulative count of dwell-qualified on-path ASes at each sample time.

    An AS qualifies at time ``t`` once its *accumulated* on-path time up to
    ``t`` reaches ``dwell_threshold`` — the "crossed for at least 5
    minutes" rule of §4, evaluated incrementally.
    """
    if any(t < 0 for t in sample_times):
        raise ValueError("sample times must be non-negative")
    return _union_counts(stream, (prefix,), sorted(sample_times), dwell_threshold)


def _union_counts(
    stream: UpdateStream,
    prefixes: Iterable[Prefix],
    samples: Sequence[float],
    threshold: float,
) -> List[int]:
    """Dwell-qualified ASes on any of ``prefixes``' paths at each of the
    ascending ``samples``.

    The prefixes' trackers share one qualified set, so each count is the
    size of their union at that time without a per-sample union pass.
    """
    qualified: Set[int] = set()
    tracks = [
        (stream.path_timeline(p), DwellTracker(threshold, qualified)) for p in prefixes
    ]
    next_segment = [0] * len(tracks)
    counts: List[int] = []
    for t in samples:
        for k, (timeline, tracker) in enumerate(tracks):
            i = next_segment[k]
            while i < len(timeline) and timeline[i][0] <= t:
                tracker.observe(*timeline[i])
                i += 1
            next_segment[k] = i
            tracker.advance(t)
        counts.append(len(qualified))
    return counts


@dataclass(frozen=True)
class ClientExposure:
    """One client's AS exposure towards its guard set over the month."""

    client_asn: int
    guard_prefixes: Tuple[Prefix, ...]
    sample_times: Tuple[float, ...]
    #: x(t): distinct qualified ASes across all guard prefixes, per sample
    x_over_time: Tuple[int, ...]

    @property
    def final_exposure(self) -> int:
        return self.x_over_time[-1] if self.x_over_time else 0

    def compromise_probabilities(self, f: float) -> List[float]:
        """P(compromise) at each sample time for per-AS probability ``f``.

        The union over guards already folds in the guard multiplier ``l``,
        so the exponent here is just the union's size.
        """
        return [compromise_probability(f, x) for x in self.x_over_time]


def client_exposure(
    trace: MonthTrace,
    client_asn: int,
    guard_prefixes: Iterable[Prefix],
    num_samples: int = 32,
    dwell_threshold: float = DEFAULT_DWELL_THRESHOLD,
) -> ClientExposure:
    """Exposure of one observer client towards the given guard prefixes.

    Requires the trace to have been generated with ``client_asn`` among
    its ``observer_asns``.  ``x(t)`` unions the dwell-qualified ASes over
    the distinct guard prefixes; a repeated prefix cannot change a union.
    """
    stream = trace.observer_stream(client_asn)
    prefixes = tuple(guard_prefixes)
    if not prefixes:
        raise ValueError("need at least one guard prefix")
    sample_times = tuple(
        trace.duration * (i + 1) / num_samples for i in range(num_samples)
    )
    counts = _union_counts(
        stream, dict.fromkeys(prefixes), sample_times, dwell_threshold
    )
    return ClientExposure(
        client_asn=client_asn,
        guard_prefixes=prefixes,
        sample_times=sample_times,
        x_over_time=tuple(counts),
    )


def compromise_trajectory(
    trace: MonthTrace,
    client_asn: int,
    guard_prefixes: Iterable[Prefix],
    f: float,
    num_samples: int = 32,
    dwell_threshold: float = DEFAULT_DWELL_THRESHOLD,
) -> Tuple[Tuple[float, ...], List[float]]:
    """(sample_times, P(compromise at t)) for one client and guard set."""
    exposure = client_exposure(
        trace, client_asn, guard_prefixes, num_samples, dwell_threshold
    )
    return exposure.sample_times, exposure.compromise_probabilities(f)
