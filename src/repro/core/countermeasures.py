"""Countermeasures (§5) and their evaluation hooks.

Three of the paper's four proposals are implemented (the fourth — IPsec —
is a deployment recommendation, quantified here only as "the asymmetric
correlator gets no ACK side-channel", i.e. reverse-direction observations
are dropped from the surveillance model):

- **Dynamics-aware relay selection**: relays publish the ASes historically
  seen on paths towards them; clients reject circuits where some AS
  appears on both the entry side and the exit side, *after accounting for
  path dynamics* (the historical union, not just the current path).
- **Control-plane monitoring**: watch collector streams for hijack
  signatures (new origin / MOAS, suspicious path shortening).  Anonymity
  favours false positives over false negatives, so the monitor is
  deliberately aggressive.
- **Short-AS-PATH guard preference**: stealthy (community-scoped) hijacks
  only win over ASes with long legitimate paths, so clients bias guard
  selection towards guards with short AS paths from their own AS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import UpdateRecord, UpdateStream
from repro.tor.circuit import Circuit
from repro.tor.relay import Relay

__all__ = [
    "MonitorConfig",
    "Alert",
    "PrefixMonitor",
    "dynamics_aware_filter",
    "short_path_guard_weights",
]


# ---------------------------------------------------------------------------
# Dynamics-aware relay selection
# ---------------------------------------------------------------------------


def dynamics_aware_filter(
    entry_ases: Mapping[str, FrozenSet[int]],
    exit_ases: Mapping[str, FrozenSet[int]],
) -> Callable[[Circuit], bool]:
    """Build a circuit filter rejecting shared-AS circuits.

    Parameters
    ----------
    entry_ases:
        guard fingerprint -> ASes historically observed on the
        client↔guard paths (e.g. last month's union from relay-published
        data plus the client's own traceroutes).
    exit_ases:
        exit fingerprint -> ASes historically observed on the
        exit↔destination paths.

    The returned predicate suits
    :attr:`repro.tor.pathsel.PathConstraints.circuit_filter`: it accepts a
    circuit only when no single AS appears on both segments — §5's "select
    relays such that the same AS does not appear in both the first and the
    last segments, after taking path dynamics into account".  Relays with
    no published history are rejected (fail closed).
    """

    def accept(circuit: Circuit) -> bool:
        entry = entry_ases.get(circuit.guard.fingerprint)
        exit_side = exit_ases.get(circuit.exit.fingerprint)
        if entry is None or exit_side is None:
            return False
        return not (entry & exit_side)

    return accept


# ---------------------------------------------------------------------------
# Control-plane hijack monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorConfig:
    """Detector aggressiveness knobs.

    For anonymity systems "false positives are much more acceptable than
    false negatives" (§5), so everything defaults to paranoid.
    """

    #: alert whenever a prefix is announced with an unexpected origin AS
    flag_new_origin: bool = True
    #: alert when a known (prefix, session) suddenly sees a path shorter
    #: by at least this many hops (same-prefix hijacks look like shortcuts)
    shortening_threshold: int = 2
    #: alert when a more-specific of a monitored prefix appears
    flag_more_specific: bool = True


@dataclass(frozen=True)
class Alert:
    """One monitor alert."""

    time: float
    prefix: Prefix
    kind: str  # "new-origin" | "path-shortening" | "more-specific"
    detail: str


class PrefixMonitor:
    """Real-time control-plane monitor for Tor relay prefixes (§5).

    Feed it collector updates in time order; it emits alerts that the Tor
    network would broadcast so clients avoid relays under suspicion.
    """

    def __init__(
        self,
        expected_origins: Mapping[Prefix, int],
        config: MonitorConfig = MonitorConfig(),
    ) -> None:
        self.expected_origins: Dict[Prefix, int] = dict(expected_origins)
        self.config = config
        self.alerts: List[Alert] = []
        #: per (session, prefix) last seen path length
        self._last_len: Dict[Tuple, int] = {}
        #: prefixes currently considered under attack
        self.flagged: Set[Prefix] = set()

    def observe(self, record: UpdateRecord, session=None) -> List[Alert]:
        """Process one update; returns the alerts it raised (if any)."""
        raised: List[Alert] = []
        if record.is_withdrawal or record.as_path is None:
            return raised
        prefix = record.prefix
        origin = record.as_path[-1]

        expected = self.expected_origins.get(prefix)
        if expected is not None:
            if self.config.flag_new_origin and origin != expected:
                raised.append(
                    Alert(
                        time=record.time,
                        prefix=prefix,
                        kind="new-origin",
                        detail=f"origin AS{origin}, expected AS{expected}",
                    )
                )
            key = (session, prefix)
            last = self._last_len.get(key)
            if (
                last is not None
                and last - len(record.as_path) >= self.config.shortening_threshold
            ):
                raised.append(
                    Alert(
                        time=record.time,
                        prefix=prefix,
                        kind="path-shortening",
                        detail=f"path length {last} -> {len(record.as_path)}",
                    )
                )
            self._last_len[key] = len(record.as_path)
        elif self.config.flag_more_specific:
            covering = self._covering_monitored(prefix)
            if covering is not None:
                raised.append(
                    Alert(
                        time=record.time,
                        prefix=prefix,
                        kind="more-specific",
                        detail=f"more specific of monitored {covering}",
                    )
                )

        for alert in raised:
            self.flagged.add(alert.prefix)
        self.alerts.extend(raised)
        return raised

    def observe_stream(self, stream: UpdateStream) -> List[Alert]:
        """Process a whole stream; returns all alerts raised."""
        raised: List[Alert] = []
        for record in stream:
            raised.extend(self.observe(record, session=stream.session))
        return raised

    def _covering_monitored(self, prefix: Prefix) -> Optional[Prefix]:
        for monitored in self.expected_origins:
            if monitored.length < prefix.length and monitored.contains_prefix(prefix):
                return monitored
        return None

    @property
    def suspected_prefixes(self) -> FrozenSet[Prefix]:
        """What the Tor network would broadcast as do-not-use."""
        return frozenset(self.flagged)


# ---------------------------------------------------------------------------
# Short-AS-PATH guard preference
# ---------------------------------------------------------------------------


def short_path_guard_weights(
    guards: Sequence[Relay],
    path_length: Callable[[Relay], Optional[int]],
    alpha: float = 2.0,
) -> Dict[str, float]:
    """Multiplicative guard-selection weights favouring short AS paths.

    ``path_length(guard)`` is the AS-path length from the client's AS to
    the guard's prefix (e.g. from a BGP feed or traceroutes); guards with
    unknown paths get weight 0 (fail closed).  The weight is
    ``len^-alpha``: with ``alpha=2`` a 2-hop guard is 4x more likely than
    an equal-bandwidth 4-hop guard.

    §5's trade-off note applies: this biases guard choice and must be
    balanced against the usual guard-count limits; callers combine the
    returned weight with bandwidth weighting.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    weights: Dict[str, float] = {}
    for guard in guards:
        length = path_length(guard)
        if length is None or length < 1:
            weights[guard.fingerprint] = 0.0
        else:
            weights[guard.fingerprint] = float(length) ** -alpha
    return weights
