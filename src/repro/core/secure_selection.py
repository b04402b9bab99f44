"""Real-time monitoring framework for secure path selection.

The paper's future work (§7): "study the design of a real time monitoring
framework for secure path selection in Tor", building on §5's sketch —
collector feeds are watched for hijack signatures, suspicions are
broadcast through the Tor network, and clients avoid relays whose
prefixes are under suspicion.

This module closes that loop in simulation:

- an :class:`AttackSchedule` injects hijack announcements against relay
  prefixes into the collector streams at chosen times;
- a :class:`MonitoringFramework` replays the merged streams through a
  :class:`~repro.core.countermeasures.PrefixMonitor` and timestamps when
  each prefix first becomes suspected (the broadcast clients would see);
- :func:`evaluate_secure_selection` then builds circuits over time for a
  population of clients, with and without the avoid-flagged-relays filter,
  and reports how often clients landed on a relay whose prefix was under
  an active attack, plus the monitor's detection latency.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.prefixes import Prefix
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.topology import ASGraph
from repro.bgpsim.collector import IterSource, SessionId, UpdateRecord, merge_sources
from repro.bgpsim.trace import MonthTrace
from repro.core.countermeasures import MonitorConfig, PrefixMonitor
from repro.runner import ExperimentSpec, Trial, run_experiment
from repro.tor.circuit import Circuit
from repro.tor.client import TorClient
from repro.tor.generator import SyntheticTorNetwork
from repro.tor.pathsel import PathConstraints

__all__ = [
    "AttackEvent",
    "AttackSchedule",
    "MonitoringFramework",
    "SecureSelectionReport",
    "evaluate_secure_selection",
    "secure_selection_spec",
]


@dataclass(frozen=True)
class AttackEvent:
    """A hijack against one relay prefix, active from ``start`` to ``end``."""

    start: float
    prefix: Prefix
    attacker_asn: int
    end: float = float("inf")

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass
class AttackSchedule:
    """A set of attacks plus the bogus records they inject at collectors."""

    events: List[AttackEvent]

    @classmethod
    def random_campaign(
        cls,
        trace: MonthTrace,
        attacker_asn: int,
        num_attacks: int,
        rng: random.Random,
        duration: float = 6 * 3600.0,
    ) -> "AttackSchedule":
        """Hijack ``num_attacks`` random Tor prefixes at random times."""
        prefixes = sorted(trace.tor_prefixes, key=str)
        if num_attacks > len(prefixes):
            raise ValueError("more attacks than tor prefixes")
        chosen = rng.sample(prefixes, num_attacks)
        return cls.targeted_campaign(trace, attacker_asn, chosen, rng, duration)

    @classmethod
    def targeted_campaign(
        cls,
        trace: MonthTrace,
        attacker_asn: int,
        prefixes: Sequence[Prefix],
        rng: random.Random,
        duration: float = 6 * 3600.0,
    ) -> "AttackSchedule":
        """Hijack the given prefixes (e.g. the top-bandwidth guard prefixes
        an adversary would actually pick) at random times."""
        unknown = [p for p in prefixes if p not in trace.tor_prefixes]
        if unknown:
            raise ValueError(f"not tor prefixes: {unknown[:3]}")
        events = []
        for prefix in prefixes:
            start = rng.uniform(0.1, 0.8) * trace.duration
            events.append(
                AttackEvent(
                    start=start,
                    prefix=prefix,
                    attacker_asn=attacker_asn,
                    end=min(start + duration, trace.duration),
                )
            )
        return cls(events=sorted(events, key=lambda e: e.start))

    def active_prefixes(self, time: float) -> FrozenSet[Prefix]:
        return frozenset(e.prefix for e in self.events if e.active_at(time))

    def bogus_records(
        self, sessions: Sequence[SessionId], trace: MonthTrace
    ) -> List[Tuple[SessionId, UpdateRecord]]:
        """The hijack announcements as collector sessions would log them.

        Each session that carries the victim prefix sees the attacker's
        bogus origin appear shortly after the attack starts (propagation
        delays differ per session).
        """
        # A digest, not builtin hash(): string hashing is salted per
        # process, which would move every delay from run to run.
        key = repr([(str(e.prefix), e.start) for e in self.events]).encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        records: List[Tuple[SessionId, UpdateRecord]] = []
        for event in self.events:
            for session in sessions:
                if event.prefix not in trace.session_prefixes.get(session, ()):
                    continue
                seen_at = event.start + rng.uniform(5.0, 120.0)
                if seen_at >= event.end:
                    continue
                records.append(
                    (
                        session,
                        UpdateRecord(
                            seen_at, event.prefix, (session[1], event.attacker_asn)
                        ),
                    )
                )
        return records


class MonitoringFramework:
    """Replays collector streams + injected attacks through the monitor.

    After :meth:`replay`, :meth:`suspected_at` answers "which prefixes had
    the Tor network flagged by time t" — i.e. the consensus-borne warning
    list clients consult when building circuits.
    """

    def __init__(
        self,
        trace: MonthTrace,
        config: MonitorConfig = MonitorConfig(),
    ) -> None:
        self.trace = trace
        self.monitor = PrefixMonitor(
            {p: trace.prefix_origins[p] for p in trace.tor_prefixes}, config
        )
        #: prefix -> time of first alert
        self.first_alert: Dict[Prefix, float] = {}
        self._replayed = False

    def replay(self, schedule: Optional[AttackSchedule] = None) -> None:
        """Feed every collector record (and injected attack records) in
        global time order through the monitor.

        Runs on the k-way streaming merge
        (:func:`~repro.bgpsim.collector.merge_sources`) instead of
        materializing and sorting the union, so only one record per
        session is buffered; injected attack records ride along as extra
        per-session sources.
        """
        sources: List[object] = [
            self.trace.streams[s] for s in self.trace.collector_sessions
        ]
        if schedule is not None:
            bogus: Dict[SessionId, List[UpdateRecord]] = {}
            for session, record in schedule.bogus_records(
                self.trace.collector_sessions, self.trace
            ):
                bogus.setdefault(session, []).append(record)
            for session in sorted(bogus):
                sources.append(
                    IterSource(session, sorted(bogus[session], key=lambda r: r.time))
                )
        for event in merge_sources(sources):
            alerts = self.monitor.observe(event.record, session=event.session)
            for alert in alerts:
                self.first_alert.setdefault(alert.prefix, alert.time)
        self._replayed = True

    def suspected_at(self, time: float) -> FrozenSet[Prefix]:
        """Prefixes flagged on or before ``time``."""
        if not self._replayed:
            raise RuntimeError("call replay() first")
        return frozenset(p for p, t in self.first_alert.items() if t <= time)

    def detection_latency(self, schedule: AttackSchedule) -> Dict[Prefix, Optional[float]]:
        """Seconds from attack start to the first alert *during* the attack
        (None = missed).  Pre-attack alerts on the same prefix are false
        positives and do not count as detections, so the search runs over
        the full alert log rather than just the first alert per prefix."""
        latency: Dict[Prefix, Optional[float]] = {}
        for event in schedule.events:
            alerted = min(
                (
                    alert.time
                    for alert in self.monitor.alerts
                    if alert.prefix == event.prefix and alert.time >= event.start
                ),
                default=None,
            )
            latency[event.prefix] = (
                alerted - event.start if alerted is not None else None
            )
        return latency


@dataclass(frozen=True)
class SecureSelectionReport:
    """Outcome of :func:`evaluate_secure_selection`."""

    circuits_built: int
    #: circuits whose guard or exit prefix was under an active attack
    vulnerable_baseline: int
    vulnerable_protected: int
    #: attacks detected / total
    detected_attacks: int
    total_attacks: int
    #: mean seconds from attack start to broadcastable alert
    mean_detection_latency: Optional[float]
    #: prefixes flagged that were never attacked (the acceptable FP cost)
    false_positive_prefixes: int

    @property
    def baseline_rate(self) -> float:
        return self.vulnerable_baseline / self.circuits_built if self.circuits_built else 0.0

    @property
    def protected_rate(self) -> float:
        return self.vulnerable_protected / self.circuits_built if self.circuits_built else 0.0


@dataclass(frozen=True)
class _SelectionContext:
    """Shared world for per-client secure-selection trials.

    Everything here is plain data: the monitoring framework ships
    *replayed* and the capture sets are precomputed in the parent, so
    workers never need a routing engine.
    """

    network: SyntheticTorNetwork
    trace: MonthTrace
    schedule: AttackSchedule
    framework: MonitoringFramework
    relay_prefix: Dict[str, Prefix]
    capture_sets: Dict[Tuple[int, int], FrozenSet[int]]
    routing_aware: bool
    circuits_per_client: int


def _selection_client_trial(
    ctx: _SelectionContext, trial: Trial
) -> Tuple[int, int, int]:
    """One client's circuit-building month.

    Build times come from ``trial.rng()`` — a fresh per-trial generator —
    so a client's schedule is independent of every other client and of
    how the sweep is sharded.  Returns ``(built, vulnerable_baseline,
    vulnerable_protected)``.
    """
    client_asn = trial.params
    trace = ctx.trace
    schedule = ctx.schedule
    relay_prefix = ctx.relay_prefix

    def endangered(prefix: Prefix, asn: int, now: float) -> bool:
        for event in schedule.events:
            if event.prefix != prefix or not event.active_at(now):
                continue
            if not ctx.routing_aware:
                return True
            victim = trace.prefix_origins[event.prefix]
            if asn in ctx.capture_sets[(event.attacker_asn, victim)]:
                return True
        return False

    def vulnerable(circuit: Circuit, asn: int, now: float) -> bool:
        # Guard side: the client's own route to the guard prefix.  Exit
        # side: the middle relay's AS is what routes towards the exit.
        middle_asn = trace.prefix_origins[relay_prefix[circuit.middle.fingerprint]]
        return endangered(
            relay_prefix[circuit.guard.fingerprint], asn, now
        ) or endangered(relay_prefix[circuit.exit.fingerprint], middle_asn, now)

    rng = trial.rng()
    build_times = sorted(
        rng.uniform(0, trace.duration) for _ in range(ctx.circuits_per_client)
    )
    built = 0
    vulnerable_baseline = 0
    vulnerable_protected = 0
    baseline_client = TorClient(
        client_asn, ctx.network.consensus, rng=random.Random(client_asn)
    )
    for now in build_times:
        circuit = baseline_client.build_circuit(now)
        if circuit is None:
            continue
        built += 1
        vulnerable_baseline += vulnerable(circuit, client_asn, now)

        suspected = ctx.framework.suspected_at(now)

        def avoid_flagged(c: Circuit) -> bool:
            return (
                relay_prefix[c.guard.fingerprint] not in suspected
                and relay_prefix[c.exit.fingerprint] not in suspected
            )

        protected_client = TorClient(
            client_asn,
            ctx.network.consensus,
            rng=random.Random(client_asn * 7919 + int(now)),
            constraints=PathConstraints(circuit_filter=avoid_flagged),
        )
        protected_circuit = protected_client.build_circuit(now)
        if protected_circuit is not None:
            vulnerable_protected += vulnerable(protected_circuit, client_asn, now)
    return (built, vulnerable_baseline, vulnerable_protected)


def secure_selection_spec(
    network: SyntheticTorNetwork,
    trace: MonthTrace,
    schedule: AttackSchedule,
    framework: MonitoringFramework,
    client_asns: Sequence[int],
    circuits_per_client: int = 20,
    seed: int = 0,
    graph: Optional[ASGraph] = None,
    *,
    engine: Optional[RoutingEngine] = None,
) -> ExperimentSpec:
    """The per-client selection sweep as a runner experiment.

    ``framework`` must already be replayed.  With ``graph`` given, the
    attacker capture sets are computed here (one memoised hijack outcome
    per (attacker, victim origin) pair via ``engine``) and shipped to the
    trials as plain data.
    """
    capture_sets: Dict[Tuple[int, int], FrozenSet[int]] = {}
    if graph is not None:
        eng = engine if engine is not None else shared_engine()
        for event in schedule.events:
            victim = trace.prefix_origins[event.prefix]
            key = (event.attacker_asn, victim)
            if key in capture_sets:
                continue
            if event.attacker_asn == victim or event.attacker_asn not in graph:
                capture_sets[key] = frozenset()
                continue
            outcome = eng.outcome(graph, [victim, event.attacker_asn])
            capture_sets[key] = outcome.capture_set(event.attacker_asn)

    return ExperimentSpec(
        name="secure-selection",
        seed=seed,
        trial_fn=_selection_client_trial,
        trials=tuple(
            (f"client-{i}-{asn}", asn) for i, asn in enumerate(client_asns)
        ),
        context=_SelectionContext(
            network=network,
            trace=trace,
            schedule=schedule,
            framework=framework,
            relay_prefix=dict(network.relay_prefix),
            capture_sets=capture_sets,
            routing_aware=graph is not None,
            circuits_per_client=circuits_per_client,
        ),
        params={
            "clients": len(client_asns),
            "circuits_per_client": circuits_per_client,
            "routing_aware": graph is not None,
        },
        encode_result=list,
        decode_result=tuple,
    )


def evaluate_secure_selection(
    network: SyntheticTorNetwork,
    trace: MonthTrace,
    schedule: AttackSchedule,
    client_asns: Sequence[int],
    circuits_per_client: int = 20,
    monitor_config: MonitorConfig = MonitorConfig(),
    seed: int = 0,
    graph: Optional[ASGraph] = None,
    *,
    engine: Optional[RoutingEngine] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> SecureSelectionReport:
    """Measure how much the monitoring framework helps clients.

    Clients build circuits at times spread uniformly over the trace.  A
    circuit is *vulnerable* if its guard or exit relay sits in a prefix
    under an active attack at build time.  The protected population
    additionally rejects circuits through currently-suspected prefixes.

    With ``graph`` given, vulnerability is additionally routing-aware: a
    prefix under attack only endangers a circuit when the client's route
    to it is actually in the attacker's capture set (one memoised hijack
    computation per (attacker, victim origin) pair via ``engine``).
    Without it, any circuit through an attacked prefix counts — the
    conservative prefix-level model.

    Each client is one :mod:`repro.runner` trial with its own spawned
    RNG, so the sweep shards over ``jobs`` processes, checkpoints, and
    resumes — with results identical at any ``jobs`` value.
    """
    framework = MonitoringFramework(trace, monitor_config)
    framework.replay(schedule)

    results: Sequence[Tuple[int, int, int]] = ()
    if client_asns:
        spec = secure_selection_spec(
            network,
            trace,
            schedule,
            framework,
            client_asns,
            circuits_per_client,
            seed,
            graph,
            engine=engine,
        )
        report = run_experiment(
            spec, jobs=jobs, checkpoint=checkpoint, resume=resume
        )
        results = report.results()
    built = 0
    vulnerable_baseline = 0
    vulnerable_protected = 0
    for client_built, client_baseline, client_protected in results:
        built += client_built
        vulnerable_baseline += client_baseline
        vulnerable_protected += client_protected

    latency = framework.detection_latency(schedule)
    detected = [v for v in latency.values() if v is not None]
    attacked = {e.prefix for e in schedule.events}
    false_positives = sum(
        1 for p in framework.first_alert if p not in attacked
    )
    return SecureSelectionReport(
        circuits_built=built,
        vulnerable_baseline=vulnerable_baseline,
        vulnerable_protected=vulnerable_protected,
        detected_attacks=len(detected),
        total_attacks=len(schedule.events),
        mean_detection_latency=(sum(detected) / len(detected)) if detected else None,
        false_positive_prefixes=false_positives,
    )
