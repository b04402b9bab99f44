"""AS-level exposure over time: the Figure 3 (right) pipeline.

§4: "we computed how many additional ASes were seeing traffic directed to
a Tor prefix as a result of BGP temporal dynamics.  As baseline, we
considered the first path that was used at the beginning of the month and
computed the number of extra ASes that were crossed over the month.  To be
fair, we did not consider an AS if it was crossed for less than 5 minutes."

The same machinery also feeds §3.1's anonymity model: the number of
distinct ASes ``x`` observed on the paths between a client and a guard is
what drives the compromise probability ``1 - (1 - f)^(l*x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import SessionId, UpdateStream

__all__ = ["ExposureConfig", "PrefixExposure", "prefix_exposure", "extra_as_samples", "as_dwell_times"]

#: the paper's dwell threshold: ASes on-path for less than this are ignored
DEFAULT_DWELL_THRESHOLD = 300.0


#: ``UpdateStream.path_timeline`` output: (time, path or None when withdrawn)
_Timeline = List[Tuple[float, Optional[Tuple[int, ...]]]]


@dataclass(frozen=True)
class ExposureConfig:
    """Dwell accounting options."""

    dwell_threshold: float = DEFAULT_DWELL_THRESHOLD
    #: "total": sum an AS's on-path time across all its intervals (default);
    #: "interval": require a single continuous interval above the threshold
    mode: str = "total"

    def __post_init__(self) -> None:
        if self.dwell_threshold < 0:
            raise ValueError("dwell_threshold must be non-negative")
        if self.mode not in ("total", "interval"):
            raise ValueError(f"unknown dwell mode {self.mode!r}")


@dataclass(frozen=True)
class PrefixExposure:
    """Exposure of one prefix as seen from one session."""

    session: SessionId
    prefix: Prefix
    #: ASes on the first path of the measurement window
    baseline_ases: FrozenSet[int]
    #: ASes that later appeared and passed the dwell filter, minus baseline
    extra_ases: FrozenSet[int]
    #: all ASes that ever appeared (no dwell filter), minus baseline
    extra_ases_unfiltered: FrozenSet[int]

    @property
    def num_extra(self) -> int:
        return len(self.extra_ases)

    @property
    def total_ases(self) -> int:
        """Distinct dwell-qualified ASes including the baseline — the ``x``
        of the §3.1 compromise model."""
        return len(self.baseline_ases | self.extra_ases)


def as_dwell_times(
    stream: UpdateStream, prefix: Prefix, horizon: float
) -> Dict[int, float]:
    """Total time each AS spent on the selected path for ``prefix``.

    The path in force between two updates is the earlier one; the last
    path extends to ``horizon`` (the end of the measurement window).
    Withdrawn periods contribute to no AS.
    """
    return _dwell_times(stream.path_timeline(prefix), horizon)


def _dwell_times(timeline: _Timeline, horizon: float) -> Dict[int, float]:
    """:func:`as_dwell_times` over an already built path timeline."""
    dwell: Dict[int, float] = {}
    for (start, path), (end, _next) in zip(timeline, timeline[1:] + [(horizon, None)]):
        if path is None:
            continue
        span = max(0.0, min(end, horizon) - start)
        for asn in set(path):
            dwell[asn] = dwell.get(asn, 0.0) + span
    return dwell


def _interval_qualified(
    timeline: _Timeline, horizon: float, threshold: float
) -> Set[int]:
    """ASes with at least one single continuous on-path interval >= threshold.

    Intervals are clamped to the measurement window: time past ``horizon``
    contributes nothing, whether the interval closes at an update
    timestamped after ``horizon`` or is still open when the window ends —
    mirroring the ``max(0.0, min(end, horizon) - start)`` accounting of
    :func:`as_dwell_times`.
    """
    current_since: Dict[int, float] = {}
    qualified: Set[int] = set()
    previous: FrozenSet[int] = frozenset()
    for (start, path), (end, _next) in zip(timeline, timeline[1:] + [(horizon, None)]):
        ases = frozenset(path or ())
        for asn in ases - previous:
            current_since[asn] = start
        for asn in previous - ases:
            since = current_since.pop(asn, start)
            if max(0.0, min(start, horizon) - since) >= threshold:
                qualified.add(asn)
        previous = ases
    for asn, since in current_since.items():
        if max(0.0, horizon - since) >= threshold:
            qualified.add(asn)
    return qualified


def prefix_exposure(
    stream: UpdateStream,
    prefix: Prefix,
    horizon: float,
    config: ExposureConfig = ExposureConfig(),
) -> Optional[PrefixExposure]:
    """Exposure record for one (session, prefix); None if never announced."""
    timeline = stream.path_timeline(prefix)
    first_path = next((path for _t, path in timeline if path is not None), None)
    if first_path is None:
        return None
    baseline = frozenset(first_path)

    if config.mode == "total":
        dwell = _dwell_times(timeline, horizon)
        qualified = {asn for asn, t in dwell.items() if t >= config.dwell_threshold}
    else:
        qualified = _interval_qualified(timeline, horizon, config.dwell_threshold)

    ever: Set[int] = set()
    for _t, path in timeline:
        if path:
            ever.update(path)

    return PrefixExposure(
        session=stream.session,
        prefix=prefix,
        baseline_ases=baseline,
        extra_ases=frozenset(qualified - baseline),
        extra_ases_unfiltered=frozenset(ever - baseline),
    )


def extra_as_samples(
    streams: Iterable[UpdateStream],
    tor_prefixes: FrozenSet[Prefix],
    horizon: float,
    config: ExposureConfig = ExposureConfig(),
) -> List[int]:
    """The Figure 3 (right) sample set: extra-AS counts per (session, Tor
    prefix) pair that carried the prefix."""
    samples: List[int] = []
    for stream in streams:
        carried = stream.prefixes() & tor_prefixes
        for prefix in carried:
            exposure = prefix_exposure(stream, prefix, horizon, config)
            if exposure is not None:
                samples.append(exposure.num_extra)
    return samples
