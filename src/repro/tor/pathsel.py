"""Tor path selection: bandwidth-weighted relay choice and guard management.

Implements the two Tor mechanisms the paper's arguments hinge on:

- **Probability-proportional-to-bandwidth selection** (§2: "clients select
  relays with a probability that is proportional to their network
  capacity"), with the consensus position weights applied.  This is why
  high-bandwidth guard/exit prefixes are the attractive interception
  targets of §3.2.
- **Guard sets** (§2): each client keeps a small fixed set of entry guards
  (three in the 2014 implementation, with a proposal to move to one guard
  for nine months).  Guards defend against malicious-relay rotation
  attacks, but §3.1 shows they do *not* defend against AS-level observers,
  because the AS paths underneath a fixed guard keep changing.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

from repro.tor.circuit import Circuit
from repro.tor.consensus import Consensus, Position
from repro.tor.index import relay_index
from repro.tor.relay import Relay

__all__ = ["PathConstraints", "PathSelector", "GuardManager"]

#: seconds in a day, for guard rotation arithmetic
_DAY = 86_400.0


@dataclass(frozen=True)
class PathConstraints:
    """Which relay-combination rules to enforce when building circuits."""

    distinct_slash16: bool = True
    distinct_family: bool = True
    #: optional extra predicate (guard, middle, exit all tested pairwise is
    #: overkill; this receives the whole tentative circuit) — the AS-aware
    #: countermeasures of §5 plug in here.
    circuit_filter: Optional[Callable[[Circuit], bool]] = None

    def compatible(self, a: Relay, b: Relay) -> bool:
        if a.fingerprint == b.fingerprint:
            return False
        if self.distinct_slash16 and a.slash16 == b.slash16:
            return False
        if self.distinct_family and a.in_same_family(b):
            return False
        return True


class PathSelector:
    """Builds circuits from a consensus using Tor's weighting rules."""

    def __init__(
        self,
        consensus: Consensus,
        rng: random.Random,
        constraints: PathConstraints = PathConstraints(),
        max_attempts: int = 50,
    ) -> None:
        self.consensus = consensus
        self.rng = rng
        self.constraints = constraints
        self.max_attempts = max_attempts

    def pick(
        self,
        position: str,
        exclude: Sequence[Relay] = (),
        predicate: Optional[Callable[[Relay], bool]] = None,
    ) -> Optional[Relay]:
        """Pick one relay for ``position``, compatible with ``exclude``.

        ``predicate`` adds an eligibility filter (e.g. "exit policy admits
        this destination").  The choice is proportional to the position
        weight among the relays with positive weight, so a relay the
        position gives no weight is never returned; None means no relay
        qualifies.  Exactly one ``rng.uniform`` draw is made when one does.
        """
        index = relay_index(self.consensus)
        relays = index.relays
        conflicts = index.conflicts(
            exclude, self.constraints.distinct_slash16, self.constraints.distinct_family
        )
        candidates = [i for i in index.eligible(position) if i not in conflicts]
        if predicate is not None:
            candidates = [i for i in candidates if predicate(relays[i])]
        position_weights = index.weights(position)
        weights = [position_weights[i] for i in candidates]
        total = sum(weights)
        if total <= 0:
            return None
        draw = self.rng.uniform(0.0, total)
        # First candidate whose running sum reaches the draw; the last one
        # if rounding leaves the draw above the final running sum.
        chosen = bisect_left(list(accumulate(weights)), draw)
        return relays[candidates[min(chosen, len(candidates) - 1)]]

    def build_circuit(
        self,
        guard: Optional[Relay] = None,
        destination: Optional[Tuple[str, int]] = None,
    ) -> Optional[Circuit]:
        """Build a (guard, middle, exit) circuit.

        Tor picks the exit first, then the guard (here: the caller's pinned
        entry guard, if any), then the middle.  With ``destination`` given
        as ``(address, port)``, only exits whose policy admits it are
        eligible.  Returns None if the constraints cannot be satisfied
        within ``max_attempts``.
        """
        for _ in range(self.max_attempts):
            exit_relay = self.pick(
                Position.EXIT,
                exclude=[guard] if guard else [],
                predicate=(
                    (lambda r: r.supports_exit_to(*destination))
                    if destination is not None
                    else None
                ),
            )
            if exit_relay is None:
                return None
            chosen_guard = guard
            if chosen_guard is None:
                chosen_guard = self.pick(Position.GUARD, exclude=[exit_relay])
                if chosen_guard is None:
                    return None
            elif not self.constraints.compatible(chosen_guard, exit_relay):
                continue
            middle = self.pick(Position.MIDDLE, exclude=[chosen_guard, exit_relay])
            if middle is None:
                continue
            circuit = Circuit(guard=chosen_guard, middle=middle, exit=exit_relay)
            if self.constraints.circuit_filter is not None and not self.constraints.circuit_filter(circuit):
                continue
            return circuit
        return None


class GuardManager:
    """A client's entry-guard set with rotation.

    Guards are sampled bandwidth-weighted at creation and replaced when
    they expire (default rotation 30 days, matching the 2014 behaviour; set
    ``rotation_days`` to ~270 to model the "one fast guard for 9 months"
    proposal the paper's footnote discusses) or when they leave the
    consensus.
    """

    def __init__(
        self,
        consensus: Consensus,
        rng: random.Random,
        num_guards: int = 3,
        rotation_days: float = 30.0,
        constraints: PathConstraints = PathConstraints(),
    ) -> None:
        if num_guards < 1:
            raise ValueError("need at least one guard")
        if rotation_days <= 0:
            raise ValueError("rotation_days must be positive")
        self.consensus = consensus
        self.rng = rng
        self.num_guards = num_guards
        self.rotation_days = rotation_days
        self.constraints = constraints
        self._guards: List[Relay] = []
        self._expiry: List[float] = []
        self._fill(now=0.0)

    @property
    def guards(self) -> List[Relay]:
        return list(self._guards)

    def current_guards(self, now: float) -> List[Relay]:
        """The guard set at time ``now``, rotating out expired guards."""
        for i in range(len(self._guards) - 1, -1, -1):
            if now >= self._expiry[i] or self._guards[i].fingerprint not in self.consensus:
                del self._guards[i]
                del self._expiry[i]
        self._fill(now)
        return list(self._guards)

    def pick_guard(self, now: float) -> Relay:
        """One guard from the current set, uniformly (Tor round-robins)."""
        guards = self.current_guards(now)
        if not guards:
            raise RuntimeError("no usable guards in consensus")
        return self.rng.choice(guards)

    def _fill(self, now: float) -> None:
        selector = PathSelector(self.consensus, self.rng, self.constraints)
        attempts = 0
        while len(self._guards) < self.num_guards and attempts < 200:
            attempts += 1
            candidate = selector.pick(Position.GUARD, exclude=self._guards)
            if candidate is None:
                break
            self._guards.append(candidate)
            # Stagger expiry like Tor: uniform within [rotation, 2x rotation).
            lifetime = self.rng.uniform(1.0, 2.0) * self.rotation_days * _DAY
            self._expiry.append(now + lifetime)
