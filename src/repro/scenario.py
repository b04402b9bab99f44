"""End-to-end scenario builder: one seeded world for everything.

A :class:`Scenario` wires together the synthetic Internet (AS graph), the
synthetic Tor network hosted on it, the background prefix population, and
the trace engine — so examples, tests, and every benchmark construct their
world through one audited code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro import obs
from repro.analysis.prefixes import Prefix
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.generator import TopologyConfig, generate_topology
from repro.asgraph.topology import ASGraph
from repro.bgpsim.trace import MonthTrace, TraceConfig, TraceEngine
from repro.tor.generator import ConsensusConfig, SyntheticTorNetwork, generate_consensus

__all__ = ["ScenarioConfig", "Scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete world description.

    Use :meth:`paper` for §4's full scale and :meth:`small` for fast tests;
    both derive every sub-seed from ``seed`` so a scenario is reproducible
    from a single integer.
    """

    seed: int = 0
    topology: TopologyConfig = TopologyConfig()
    consensus: ConsensusConfig = ConsensusConfig()
    trace: TraceConfig = TraceConfig()
    #: non-Tor prefixes announced in the trace (the "any BGP prefix"
    #: population whose median normalises Figure 3 left)
    background_prefixes: int = 1500
    #: first address of the background block (disjoint from Tor blocks)
    background_base: int = 120 << 24  # 120.0.0.0

    @classmethod
    def paper(cls, seed: int = 0) -> "ScenarioConfig":
        """Full §4 scale: ~4586 relays, 1251 Tor prefixes, 72 sessions."""
        return cls(
            seed=seed,
            topology=TopologyConfig(num_ases=1000, seed=seed),
            consensus=ConsensusConfig(scale=1.0, seed=seed + 1),
            trace=TraceConfig(seed=seed + 2),
            background_prefixes=1500,
        )

    @classmethod
    def small(cls, seed: int = 0) -> "ScenarioConfig":
        """~1/10 scale for unit/integration tests (seconds, not minutes)."""
        return cls(
            seed=seed,
            topology=TopologyConfig(num_ases=220, num_tier1=5, num_tier2=40, seed=seed),
            consensus=ConsensusConfig(scale=0.1, seed=seed + 1),
            trace=TraceConfig(
                sessions_per_collector=5,
                collector_names=("rrc00", "rrc01"),
                seed=seed + 2,
            ),
            background_prefixes=150,
        )


class Scenario:
    """A built world: topology + Tor network + prefix population."""

    def __init__(
        self,
        config: ScenarioConfig = ScenarioConfig(),
        engine: Optional[RoutingEngine] = None,
    ) -> None:
        self.config = config
        #: routing facade shared by everything built from this world
        self.routing: RoutingEngine = engine if engine is not None else shared_engine()
        with obs.span("scenario.build", seed=config.seed) as build_span:
            with obs.span("scenario.topology"):
                self.graph: ASGraph = generate_topology(config.topology)

            # Hosting pool: edge and mid-tier ASes (hosting providers live
            # there).  Multi-homed ASes come first — real hosting providers are
            # multi-homed, and their announcements are what flap in §4.
            rng = random.Random(config.seed + 17)
            with obs.span("scenario.consensus"):
                non_tier1 = [
                    asn for asn in sorted(self.graph.ases) if self.graph.providers(asn)
                ]
                rng.shuffle(non_tier1)
                non_tier1.sort(key=lambda asn: len(self.graph.providers(asn)) < 2)
                self.tor: SyntheticTorNetwork = generate_consensus(
                    config.consensus, non_tier1
                )

            # Background (non-Tor) prefixes, announced by random ASes.
            with obs.span("scenario.prefixes"):
                self.background_origins: Dict[Prefix, int] = {}
                cursor = config.background_base
                all_ases = sorted(self.graph.ases)
                for _ in range(config.background_prefixes):
                    length = rng.choice((24, 24, 24, 23, 22, 21, 20, 19, 16))
                    size = 1 << (32 - length)
                    cursor = (cursor + size - 1) & ~(size - 1)
                    prefix = Prefix(cursor, length)
                    cursor += size
                    self.background_origins[prefix] = rng.choice(all_ases)

                self.prefix_origins: Dict[Prefix, int] = dict(self.tor.prefix_origins)
                overlap = set(self.prefix_origins) & set(self.background_origins)
                if overlap:
                    raise AssertionError(
                        f"background prefixes collide with Tor blocks: {overlap}"
                    )
                self.prefix_origins.update(self.background_origins)
            build_span.set(
                ases=len(self.graph.ases),
                relays=len(self.tor.consensus),
                prefixes=len(self.prefix_origins),
            )

    # -- convenience accessors -------------------------------------------------

    @property
    def engine(self) -> RoutingEngine:
        """The routing engine bound to this world's graph.

        The one injection point for route memoisation: everything built
        from this scenario (trace engines, attack planners, surveillance
        models) should take ``engine=scenario.engine`` instead of
        re-deriving :func:`~repro.asgraph.engine.shared_engine` per call.
        """
        return self.routing

    @property
    def consensus(self):
        return self.tor.consensus

    @property
    def tor_prefixes(self) -> FrozenSet[Prefix]:
        return self.tor.tor_prefixes

    def relay_asn(self, fingerprint: str) -> int:
        return self.tor.relay_origin(fingerprint)

    def client_ases(self, count: int, seed: int = 99) -> List[int]:
        """Stub ASes that host no relays — plausible client locations."""
        hosting = set(self.tor.prefix_origins.values())
        candidates = [
            asn for asn in sorted(self.graph.stub_ases()) if asn not in hosting
        ]
        if len(candidates) < count:
            raise ValueError(f"only {len(candidates)} non-hosting stub ASes available")
        rng = random.Random(self.config.seed * 1000 + seed)
        return rng.sample(candidates, count)

    def destination_ases(self, count: int, seed: int = 7) -> List[int]:
        """Stub ASes standing in for popular web destinations."""
        return self.client_ases(count, seed=seed + 1)

    def adversary_as(self, seed: int = 3) -> int:
        """A mid-tier transit AS — a plausible interception attacker."""
        transit = [
            asn
            for asn in sorted(self.graph.ases)
            if self.graph.customers(asn) and self.graph.providers(asn)
        ]
        if not transit:
            raise ValueError("topology has no mid-tier transit AS")
        rng = random.Random(self.config.seed * 1000 + seed)
        return rng.choice(transit)

    def ixps(self, num_ixps: int = 10):
        """The world's Internet exchanges (peering links grouped into
        heavy-tailed facilities); deterministic for the scenario seed."""
        from repro.asgraph.ixp import assign_ixps

        return assign_ixps(self.graph, num_ixps=num_ixps, seed=self.config.seed + 31)

    # -- trace generation ----------------------------------------------------------

    def build_trace_engine(
        self, observer_asns: Sequence[int] = ()
    ) -> TraceEngine:
        """The trace engine for this world (one audited construction path)."""
        return TraceEngine(
            self.graph,
            self.prefix_origins,
            self.tor_prefixes,
            self.config.trace,
            observer_asns=observer_asns,
        )

    def run_trace(self, observer_asns: Sequence[int] = ()) -> MonthTrace:
        """Generate the month of collector streams for this world."""
        return self.build_trace_engine(observer_asns).run()

    def open_trace_stream(self, observer_asns: Sequence[int] = ()):
        """Open the trace as a bounded-memory event stream.

        Returns a one-shot :class:`~repro.bgpsim.trace.TraceStream`: feed
        it to :func:`repro.bgpsim.stream.replay` with a windowed consumer
        (an RFD exposure scan, a streaming persist) instead of holding a
        materialized :class:`MonthTrace`.
        """
        return self.build_trace_engine(observer_asns).open_stream()
