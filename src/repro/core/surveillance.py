"""Which ASes can correlate which circuits (§3.3's observation models).

A circuit is compromised by an adversary AS (or colluding set) that
observes *both* communication ends.  What counts as "observes" depends on
the model:

- ``FORWARD``: the conventional prior-work model — the adversary must sit
  on the data-flow direction at both ends (e.g. client→guard and
  exit→destination for an upload).
- ``EITHER``: the paper's asymmetric model — sitting on *any* direction of
  each end suffices, because TCP ACK byte counts substitute for data byte
  counts.  Since Internet routing is asymmetric, the union of forward and
  reverse paths crosses more ASes, so ``EITHER`` strictly dominates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.fastpath import CompactOutcome
from repro.asgraph.topology import ASGraph

__all__ = [
    "ObservationMode",
    "SegmentView",
    "SurveillanceModel",
    "circuit_sides",
]

#: a route source: ``path(src, dst)`` is the policy path from ``src``
#: towards ``dst``'s prefix, or None when ``src`` has no route
PathFn = Callable[[int, int], Optional[Tuple[int, ...]]]


class ObservationMode(enum.Enum):
    """Which traffic directions the adversary needs at each end."""

    FORWARD = "forward"  # conventional: data direction only
    REVERSE = "reverse"  # ACK direction only
    EITHER = "either"  # asymmetric traffic analysis: any direction


@dataclass(frozen=True)
class SegmentView:
    """The ASes crossing one end-segment, per direction.

    ``endpoints`` (the segment's own two ASes) always see the traffic; they
    are included in both direction sets.
    """

    forward: FrozenSet[int]
    reverse: FrozenSet[int]

    @classmethod
    def between(cls, path: PathFn, a: int, b: int) -> "SegmentView":
        """The a→b (forward) and b→a (reverse) paths from ``path``; a
        direction with no route is the bare ``(a, b)`` segment."""
        forward = path(a, b) or (a, b)
        reverse = path(b, a) or (b, a)
        return cls(forward=frozenset(forward), reverse=frozenset(reverse))

    @property
    def either(self) -> FrozenSet[int]:
        return self.forward | self.reverse

    def observers(self, mode: ObservationMode) -> FrozenSet[int]:
        if mode is ObservationMode.FORWARD:
            return self.forward
        if mode is ObservationMode.REVERSE:
            return self.reverse
        return self.either


def circuit_sides(
    path: PathFn,
    client_asn: int,
    guard_asn: int,
    exit_asn: int,
    dest_asn: int,
    mode: ObservationMode,
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """The ASes observing the entry and the exit segment under ``mode``.

    A circuit's observers are the intersection of the two sets; a
    colluding adversary set compromises it when it meets both.  ``path``
    is any route source: engine outcomes or live route trees.
    """
    return (
        SegmentView.between(path, client_asn, guard_asn).observers(mode),
        SegmentView.between(path, exit_asn, dest_asn).observers(mode),
    )


class SurveillanceModel:
    """AS-level observation queries over a topology.

    Route caching is delegated to a
    :class:`~repro.asgraph.engine.RoutingEngine` (default: the process-wide
    shared one), so outcomes computed here are reused by the attack and
    resilience pipelines and vice versa.
    """

    def __init__(
        self, graph: ASGraph, *, engine: Optional[RoutingEngine] = None
    ) -> None:
        self.graph = graph
        self.engine = engine if engine is not None else shared_engine()

    def _outcome(self, origin: int) -> CompactOutcome:
        return self.engine.outcome(self.graph, [origin])

    def _warm(self, *origins: int) -> None:
        """Route the distinct origins in one batched pass.

        Circuit-level queries need outcomes for up to four endpoint ASes
        (both directions of both segments); batching the cache misses
        through :meth:`RoutingEngine.outcomes_many` shares one
        propagation, and each outcome lands under its ordinary per-origin
        key for the ``segment_view`` calls that follow.
        """
        from repro.serve.api import OutcomeBatch

        distinct = [o for o in dict.fromkeys(origins)]
        if len(distinct) > 1:
            self.engine.outcomes_many(
                self.graph, OutcomeBatch.of([[o] for o in distinct])
            )

    def path(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        """Policy path from ``src`` towards ``dst``'s prefix."""
        return self._outcome(dst).path(src)

    def segment_view(self, a: int, b: int) -> SegmentView:
        """ASes on the a→b path (forward) and the b→a path (reverse)."""
        return SegmentView.between(self.path, a, b)

    def exposure_table(
        self,
        adversaries: Iterable[int],
        left_ases: Sequence[int],
        right_ases: Sequence[int],
        mode: ObservationMode = ObservationMode.EITHER,
    ) -> List[List[bool]]:
        """Batch segment-compromise table over an AS cross product.

        ``table[i][j]`` is True when some colluding adversary AS observes
        the ``(left_ases[i], right_ases[j])`` segment under ``mode`` —
        i.e. the segment-level half of :meth:`compromised_by`, evaluated
        for every pair at once.  All distinct endpoints are routed in one
        batched :meth:`RoutingEngine.outcomes_many` pass and each outcome
        is fetched exactly once, so cost scales with distinct endpoint
        ASes plus cells — never with the user population sitting behind
        them.  This is the dedup step population-scale simulation leans
        on: millions of users collapse onto one small table.  A cell tests
        the adversaries against each path tuple it needs, so it builds no
        sets: the same verdict :meth:`segment_view` gives.
        """
        adversary_set = set(adversaries)
        left = list(left_ases)
        right = list(right_ases)
        self._warm(*left, *right)
        outcomes = {
            asn: self._outcome(asn) for asn in dict.fromkeys(left + right)
        }
        forward = mode is not ObservationMode.REVERSE
        reverse = mode is not ObservationMode.FORWARD
        disjoint = adversary_set.isdisjoint
        table: List[List[bool]] = []
        for a in left:
            to_a = outcomes[a]
            row: List[bool] = []
            for b in right:
                row.append(
                    (forward and not disjoint(outcomes[b].path(a) or (a, b)))
                    or (reverse and not disjoint(to_a.path(b) or (b, a)))
                )
            table.append(row)
        return table

    def is_asymmetric(self, a: int, b: int) -> bool:
        """True if the a→b and b→a paths cross different AS sets."""
        view = self.segment_view(a, b)
        return view.forward != view.reverse

    # -- circuit-level queries ------------------------------------------------

    def circuit_observers(
        self,
        client_asn: int,
        guard_asn: int,
        exit_asn: int,
        dest_asn: int,
        mode: ObservationMode = ObservationMode.EITHER,
    ) -> FrozenSet[int]:
        """ASes that observe *both* ends of the circuit under ``mode``.

        These are exactly the ASes that can run end-to-end (or asymmetric)
        timing analysis against this client/destination pair.
        """
        self._warm(client_asn, guard_asn, exit_asn, dest_asn)
        entry, exit_side = circuit_sides(
            self.path, client_asn, guard_asn, exit_asn, dest_asn, mode
        )
        return entry & exit_side

    def compromised_by(
        self,
        adversaries: Iterable[int],
        client_asn: int,
        guard_asn: int,
        exit_asn: int,
        dest_asn: int,
        mode: ObservationMode = ObservationMode.EITHER,
    ) -> bool:
        """True if some colluding adversary AS observes both ends.

        A set of colluding ASes counts as one adversary: one member on the
        entry segment plus another on the exit segment suffices.
        """
        adversary_set = set(adversaries)
        self._warm(client_asn, guard_asn, exit_asn, dest_asn)
        entry, exit_side = circuit_sides(
            self.path, client_asn, guard_asn, exit_asn, dest_asn, mode
        )
        return bool(adversary_set & entry) and bool(adversary_set & exit_side)

    def fraction_of_circuits_compromised(
        self,
        adversaries: Iterable[int],
        circuits: Sequence[Tuple[int, int, int, int]],
        mode: ObservationMode = ObservationMode.EITHER,
    ) -> float:
        """Fraction of (client, guard, exit, dest) AS tuples compromised."""
        if not circuits:
            raise ValueError("need at least one circuit")
        adversary_set = frozenset(adversaries)
        hits = sum(
            1
            for circuit in circuits
            if self.compromised_by(adversary_set, *circuit, mode=mode)
        )
        return hits / len(circuits)

    def observers_per_circuit(
        self,
        circuits: Sequence[Tuple[int, int, int, int]],
        mode: ObservationMode,
    ) -> List[int]:
        """Observer-count distribution — compare FORWARD vs EITHER to
        quantify §3.3's claim that asymmetry *increases* exposure."""
        return [
            len(self.circuit_observers(*circuit, mode=mode))
            for circuit in circuits
        ]
