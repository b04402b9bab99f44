"""A compiled, per-consensus view of the relays for path selection.

Every circuit pick asks one consensus the same questions: which relays
have positive weight for a position, what each weighs, and which relays
a fingerprint, a /16 or a declared family rules out.  A
:class:`~repro.tor.consensus.Consensus` never changes after construction,
so :func:`relay_index` answers them once per consensus object and caches
the answers in a weak-keyed map under a lock (as
:func:`repro.asgraph.index.graph_index` caches per graph): the index dies
with its consensus, and a pickled consensus carries none of it.

Each part is built on first use, so a consensus that is only weighted
(a day of the population simulator's series) never parses an address or
reads a family:

- per-position weights, ``array('d')`` in consensus order, with the
  position factor computed once per distinct flag set;
- the relays eligible for each position (positive weight);
- each relay's /16, parsed once, grouped by network;
- fingerprint -> relay index, and fingerprint -> indices of the relays
  whose family lists it.

Two threads that build one part at once build equal values and the
later assignment wins, so the parts need no lock of their own.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.tor.consensus import Consensus, Position
from repro.tor.relay import Flag, Relay

__all__ = ["RelayIndex", "relay_index"]

_POSITIONS = (Position.GUARD, Position.MIDDLE, Position.EXIT)
_K = TypeVar("_K")


class RelayIndex:
    """Selection lookups over one consensus's relays, in consensus order.

    Relays are named by their index into :attr:`relays`.  The index keeps
    the relay tuple and the bandwidth weights, never the consensus itself,
    so the weak-keyed cache entry cannot keep its own key alive.
    """

    def __init__(self, consensus: Consensus) -> None:
        self.relays: Tuple[Relay, ...] = consensus.relays
        self._bandwidth_weights = consensus.weights
        self._weights: Dict[str, array] = {}
        self._eligible: Dict[str, Tuple[int, ...]] = {}
        self._by_slash16: Optional[Dict[int, Tuple[int, ...]]] = None
        self._by_fingerprint: Optional[Dict[str, int]] = None
        self._family_listers: Optional[Dict[str, Tuple[int, ...]]] = None

    def weights(self, position: str) -> array:
        """Every relay's selection weight for ``position``, in consensus
        order: exactly :meth:`Consensus.position_weight`, 0.0 for a relay
        that is not running.

        The position factor depends on the flags alone, so it is computed
        once per distinct flag set; each weight is then ``bandwidth *
        factor``, the product :meth:`BandwidthWeights.relay_weight` forms.
        """
        weights = self._weights.get(position)
        if weights is None:
            if position not in _POSITIONS:
                raise ValueError(f"unknown position {position!r}")
            factor_of = self._bandwidth_weights.weight
            factors: Dict[FrozenSet[Flag], float] = {}
            values = []
            for relay in self.relays:
                factor = factors.get(relay.flags)
                if factor is None:
                    factor = factor_of(relay, position) if relay.is_running else 0.0
                    factors[relay.flags] = factor
                values.append(relay.bandwidth * factor)
            weights = array("d", values)
            self._weights[position] = weights
        return weights

    def eligible(self, position: str) -> Tuple[int, ...]:
        """Indices of the relays with positive weight for ``position``."""
        eligible = self._eligible.get(position)
        if eligible is None:
            eligible = tuple(i for i, w in enumerate(self.weights(position)) if w > 0.0)
            self._eligible[position] = eligible
        return eligible

    def conflicts(
        self,
        exclude: Sequence[Relay],
        distinct_slash16: bool = True,
        distinct_family: bool = True,
    ) -> Set[int]:
        """Indices of the relays that may not share a circuit with any relay
        in ``exclude``.

        Each excluded relay's fingerprint, /16 and family are read from
        the relay object itself, which may come from another consensus
        (a guard picked on an earlier day).
        """
        conflicts: Set[int] = set()
        if not exclude:
            return conflicts
        by_fingerprint = self._fingerprints()
        for other in exclude:
            i = by_fingerprint.get(other.fingerprint)
            if i is not None:
                conflicts.add(i)
            if distinct_slash16:
                conflicts.update(self._slash16_groups().get(other.slash16, ()))
            if distinct_family:
                conflicts.update(self._listers().get(other.fingerprint, ()))
                for fingerprint in other.family:
                    i = by_fingerprint.get(fingerprint)
                    if i is not None:
                        conflicts.add(i)
        return conflicts

    # -- lazy parts ------------------------------------------------------------

    def _fingerprints(self) -> Dict[str, int]:
        if self._by_fingerprint is None:
            self._by_fingerprint = {r.fingerprint: i for i, r in enumerate(self.relays)}
        return self._by_fingerprint

    def _slash16_groups(self) -> Dict[int, Tuple[int, ...]]:
        if self._by_slash16 is None:
            self._by_slash16 = _group((r.slash16, i) for i, r in enumerate(self.relays))
        return self._by_slash16

    def _listers(self) -> Dict[str, Tuple[int, ...]]:
        if self._family_listers is None:
            self._family_listers = _group(
                (member, i) for i, r in enumerate(self.relays) for member in r.family
            )
        return self._family_listers


def _group(pairs: Iterable[Tuple[_K, int]]) -> Dict[_K, Tuple[int, ...]]:
    """``key -> indices`` from ``(key, index)`` pairs, in index order."""
    groups: Dict[_K, List[int]] = {}
    for key, i in pairs:
        groups.setdefault(key, []).append(i)
    return {key: tuple(indices) for key, indices in groups.items()}


_cache_lock = threading.Lock()
_index_cache: "weakref.WeakKeyDictionary[Consensus, RelayIndex]" = weakref.WeakKeyDictionary()


def relay_index(consensus: Consensus) -> RelayIndex:
    """The consensus's cached :class:`RelayIndex`, created on first use."""
    with _cache_lock:
        index = _index_cache.get(consensus)
        if index is None:
            index = RelayIndex(consensus)
            _index_cache[consensus] = index
    return index
