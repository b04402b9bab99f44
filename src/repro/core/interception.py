"""Attack planning against the Tor relay population (§3.2).

Puts the pieces together from the adversary's point of view:

- **target selection**: Tor clients pick relays with probability
  proportional to bandwidth, so the prefixes hosting the highest-weight
  guard/exit capacity are the highest-value interception targets;
- **attack evaluation**: run a hijack/interception against a target prefix
  on the AS topology and translate the capture set into Tor-level damage —
  which client ASes are exposed (anonymity set), and what fraction of all
  Tor traffic the adversary can now correlate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.prefixes import Prefix
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.topology import ASGraph
from repro.bgpsim.attacks import (
    AttackKind,
    HijackResult,
    simulate_hijack,
    sweep_hijacks,
)
from repro.tor.consensus import Position
from repro.tor.generator import SyntheticTorNetwork
from repro.tor.index import relay_index

__all__ = ["PrefixValue", "TargetRanking", "AttackOutcome", "AttackPlanner"]


@dataclass(frozen=True)
class PrefixValue:
    """Interception value of one Tor prefix for one circuit position."""

    prefix: Prefix
    origin_asn: int
    #: sum of position-weighted bandwidth of the relays inside
    weight: float
    #: fraction of total position weight (= probability a random circuit
    #: uses a relay in this prefix for that position)
    selection_probability: float
    num_relays: int


@dataclass(frozen=True)
class TargetRanking:
    """Tor prefixes ranked by selection probability for a position."""

    position: str
    targets: Tuple[PrefixValue, ...]

    def top(self, k: int) -> Tuple[PrefixValue, ...]:
        return self.targets[:k]

    def coverage(self, k: int) -> float:
        """Selection probability covered by intercepting the top-k prefixes."""
        return sum(t.selection_probability for t in self.top(k))


@dataclass(frozen=True)
class AttackOutcome:
    """A hijack result translated into Tor-level damage."""

    hijack: HijackResult
    target: PrefixValue
    #: client ASes whose traffic towards the target is captured
    exposed_client_ases: FrozenSet[int]
    #: |exposed| / |clients| — the §3.2 anonymity-set reduction
    anonymity_set_fraction: float


class AttackPlanner:
    """An AS-level adversary planning attacks on a Tor deployment.

    All hijack simulations route through ``engine`` (default: the shared
    :class:`~repro.asgraph.engine.RoutingEngine`), so sweeping several
    attack kinds over the same targets reuses the underlying outcomes.
    """

    def __init__(
        self,
        graph: ASGraph,
        network: SyntheticTorNetwork,
        *,
        engine: Optional[RoutingEngine] = None,
    ) -> None:
        self.graph = graph
        self.network = network
        self.engine = engine if engine is not None else shared_engine()

    # -- target selection -----------------------------------------------------

    def rank_targets(self, position: str) -> TargetRanking:
        """Rank Tor prefixes by aggregate selection weight for ``position``."""
        consensus = self.network.consensus
        weights: Dict[Prefix, float] = {}
        counts: Dict[Prefix, int] = {}
        for relay, w in zip(consensus.relays, relay_index(consensus).weights(position)):
            if w <= 0:
                continue
            prefix = self.network.relay_prefix[relay.fingerprint]
            weights[prefix] = weights.get(prefix, 0.0) + w
            counts[prefix] = counts.get(prefix, 0) + 1
        total = sum(weights.values())
        if total <= 0:
            raise ValueError(f"no selectable relays for position {position!r}")
        targets = tuple(
            sorted(
                (
                    PrefixValue(
                        prefix=prefix,
                        origin_asn=self.network.prefix_origins[prefix],
                        weight=weight,
                        selection_probability=weight / total,
                        num_relays=counts[prefix],
                    )
                    for prefix, weight in weights.items()
                ),
                key=lambda t: (-t.weight, str(t.prefix)),
            )
        )
        return TargetRanking(position=position, targets=targets)

    # -- attack evaluation --------------------------------------------------------

    def attack(
        self,
        attacker_asn: int,
        target: PrefixValue,
        kind: AttackKind = AttackKind.INTERCEPTION,
        client_ases: Optional[Sequence[int]] = None,
    ) -> AttackOutcome:
        """Run one attack against a target prefix and score the damage."""
        hijack = simulate_hijack(
            self.graph,
            victim=target.origin_asn,
            attacker=attacker_asn,
            kind=kind,
            engine=self.engine,
        )
        clients = list(client_ases) if client_ases is not None else sorted(self.graph.ases)
        exposed = frozenset(asn for asn in clients if asn in hijack.capture_set)
        return AttackOutcome(
            hijack=hijack,
            target=target,
            exposed_client_ases=exposed,
            anonymity_set_fraction=len(exposed) / len(clients) if clients else 0.0,
        )

    def sweep(
        self,
        attacker_asn: int,
        position: str,
        k: int,
        kind: AttackKind = AttackKind.INTERCEPTION,
        client_ases: Optional[Sequence[int]] = None,
        *,
        jobs: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> List[AttackOutcome]:
        """Attack the top-``k`` prefixes for a position, best targets first.

        The hijacks run through :func:`repro.bgpsim.attacks.sweep_hijacks`
        (one runner trial per target), so ``jobs``/``checkpoint``/
        ``resume`` shard and persist the sweep.
        """
        with obs.span(
            "attack.sweep",
            attacker=attacker_asn,
            position=str(position),
            k=k,
            kind=kind.value,
        ) as sweep_span:
            ranking = self.rank_targets(position)
            targets = [
                target
                for target in ranking.top(k)
                # the adversary already hosts relays in its own prefixes
                if target.origin_asn != attacker_asn
            ]
            hijacks = sweep_hijacks(
                self.graph,
                attacker_asn,
                [target.origin_asn for target in targets],
                kind,
                engine=self.engine,
                jobs=jobs,
                checkpoint=checkpoint,
                resume=resume,
            )
            clients = (
                list(client_ases)
                if client_ases is not None
                else sorted(self.graph.ases)
            )
            outcomes = []
            for target, hijack in zip(targets, hijacks):
                exposed = frozenset(
                    asn for asn in clients if asn in hijack.capture_set
                )
                outcomes.append(
                    AttackOutcome(
                        hijack=hijack,
                        target=target,
                        exposed_client_ases=exposed,
                        anonymity_set_fraction=(
                            len(exposed) / len(clients) if clients else 0.0
                        ),
                    )
                )
            sweep_span.set(targets=len(outcomes))
            obs.add("attack.hijacks", len(outcomes))
        return outcomes

    def surveillance_coverage(
        self,
        attacker_asn: int,
        guard_k: int,
        exit_k: int,
        kind: AttackKind = AttackKind.INTERCEPTION,
    ) -> Dict[str, float]:
        """General surveillance of §3.2's closing paragraph: intercept the
        top guard and exit prefixes and estimate the fraction of Tor
        circuits with *both* ends observed.

        A circuit is correlatable when (a) its guard lives in one of the
        intercepted guard prefixes and the client's route to it is
        captured, and (b) its exit lives in an intercepted exit prefix
        (the exit-side flow to the destination transits the adversary
        because the destination-side interception captures it).  Under
        bandwidth-proportional selection the two choices are independent,
        so coverage multiplies.
        """
        with obs.span(
            "attack.surveillance_coverage",
            attacker=attacker_asn,
            guard_k=guard_k,
            exit_k=exit_k,
        ):
            return self._surveillance_coverage(attacker_asn, guard_k, exit_k, kind)

    def _surveillance_coverage(
        self,
        attacker_asn: int,
        guard_k: int,
        exit_k: int,
        kind: AttackKind,
    ) -> Dict[str, float]:
        guard_cov = 0.0
        for outcome in self.sweep(attacker_asn, Position.GUARD, guard_k, kind):
            if outcome.hijack.kind is AttackKind.INTERCEPTION and not outcome.hijack.interception_feasible:
                continue
            guard_cov += (
                outcome.target.selection_probability * outcome.hijack.capture_fraction
            )
        exit_cov = 0.0
        for outcome in self.sweep(attacker_asn, Position.EXIT, exit_k, kind):
            if outcome.hijack.kind is AttackKind.INTERCEPTION and not outcome.hijack.interception_feasible:
                continue
            exit_cov += (
                outcome.target.selection_probability * outcome.hijack.capture_fraction
            )
        return {
            "guard_coverage": guard_cov,
            "exit_coverage": exit_cov,
            "circuit_coverage": guard_cov * exit_cov,
        }
