"""Month-scale BGP trace generation at route collectors.

This engine reproduces the *measurement substrate* of §4: a month of BGP
updates as seen from 4 collectors over 70+ eBGP sessions.  It drives the
Gao-Rexford routing kernel (:mod:`repro.asgraph.fastpath`) around an
injected event schedule and logs, per collector session, the UPDATE records
a RIPE collector would have archived.

Fidelity/performance trade-off: instead of flooding individual UPDATE
messages for a month (what :mod:`repro.bgpsim.simulator` does, and what is
intractable at month × thousands-of-prefixes scale), the engine recomputes
*stable* routing outcomes around each event and emits the per-session diffs,
optionally preceded by short-lived path-exploration transients.  Everything
the paper measures — path-change counts, AS-level exposure with a dwell
filter, session resets — is a function of exactly these streams.

Event model (all rates seeded and configurable):

- **Core link outages**: tier-1/tier-2 links fail and recover; they affect
  many prefixes at once.
- **Per-prefix traffic-engineering switches**: an origin re-homes the
  announcement of a prefix onto one of its provider links (or back to all
  of them); switch rates are heavy-tailed (lognormal), with Tor prefixes
  drawn from a higher-rate distribution and a small set of extreme
  flappers — the hosting-provider instability §4 measures ("Tor prefixes
  tend to see more path changes than normal BGP prefixes", with one prefix
  2000x above the median).
- **Prepend churn**: AS-PATH-only re-advertisements (origin prepending
  for TE) that the paper's AS-*set* change definition deliberately
  ignores — they exercise the counting rule without moving any statistic.
- **Session resets**: a collector session drops and re-learns the full
  table, generating the artificial updates the methodology removes.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.analysis.prefixes import Prefix
from repro.asgraph.batch import compute_routes_many
from repro.asgraph.engine import shared_engine
from repro.asgraph.fastpath import CompactOutcome, compute_routes_fast
from repro.asgraph.routecache import RouteCache
from repro.asgraph.topology import ASGraph
from repro.bgpsim.collector import (
    Collector,
    RecordTables,
    SessionId,
    StreamEvent,
    UpdateRecord,
    UpdateStream,
)
from repro.bgpsim.stream import replay

__all__ = [
    "TraceConfig",
    "TraceEngine",
    "TraceStream",
    "MonthTrace",
    "MonthTraceBuilder",
    "TraceEvent",
]

_DAY = 86_400.0
_Link = FrozenSet[int]
_Path = Optional[Tuple[int, ...]]
#: a route-cache entry: ({vantage: path or None}, links those paths cross)
_VantageEntry = Tuple[Dict[int, _Path], FrozenSet[_Link]]
#: a pending update: (emission time, prefix, as_path, from_reset, session)
_Pending = Tuple[float, Prefix, _Path, bool, SessionId]
#: the events that open a new core epoch (they change the core exclusions)
_CORE_EVENTS = ("core_fail", "core_recover")
#: most rows per look-ahead kernel call: bounds the batch block's memory
_BATCH_ROWS = 64


@dataclass(frozen=True)
class TraceConfig:
    """Knobs for the month-long trace; defaults mirror §4's setting."""

    duration_days: float = 31.0
    collector_names: Sequence[str] = ("rrc00", "rrc01", "rrc03", "rrc04")
    sessions_per_collector: int = 18  # 4 x 18 = 72 > "more than 70 eBGP sessions"

    #: mean core-link outages per day across the whole topology.  Outages
    #: hit transit links *below* the tier-1 clique: failures inside the
    #: default-free zone are rare and would flood every prefix at once.
    core_outages_per_day: float = 2.0
    core_outage_mean_hours: float = 3.0

    #: lognormal parameters for per-prefix TE-switch counts over the month
    background_flaps_median: float = 1.0
    tor_flaps_median: float = 4.0
    flaps_sigma: float = 1.1
    #: fraction of Tor prefixes that are extreme flappers, and their rate
    #: multiplier range; one designated prefix additionally gets
    #: ``super_flapper_multiplier`` — the 178.239.176.0/20 cameo of
    #: Figure 3 (left), which alone saw >2000x the median
    tor_extreme_fraction: float = 0.02
    tor_extreme_multiplier: Tuple[float, float] = (20.0, 150.0)
    super_flapper_multiplier: float = 400.0
    #: probability a TE switch returns to announcing via all providers
    flap_all_providers_prob: float = 0.3

    #: mean AS-path-prepending events per prefix over the trace — updates
    #: whose AS-PATH changes (origin repeated for TE) but whose AS *set*
    #: does not; §4's path-change definition deliberately ignores them
    prepend_events_per_prefix: float = 0.5

    #: mean session resets per session over the whole month
    resets_per_session: float = 1.5

    #: probability that a routing change is preceded by a short-lived
    #: exploration transient at a session, and how long it lingers
    transient_prob: float = 0.35
    transient_delay_range: Tuple[float, float] = (1.0, 15.0)
    settle_delay_range: Tuple[float, float] = (20.0, 120.0)

    #: session "richness" (fraction of prefixes it carries): lognormal-ish
    #: spread so per-session Tor-prefix counts have median ~35% and max ~99%
    session_richness_range: Tuple[float, float] = (0.05, 0.99)
    session_richness_median: float = 0.35
    #: per-prefix visibility (fraction of sessions that carry it): mean ~0.4,
    #: capped at 0.6, per §4's "received on 40% of them with a maximum of 60%"
    prefix_visibility_range: Tuple[float, float] = (0.2, 0.6)

    #: LRU cap on the relevance-filtered route cache (entries; each holds
    #: one vantage-path table).  Month-scale runs over many origins churn
    #: through far more (origin, excluded) keys than they revisit.
    route_cache_cap: int = 4096

    #: width of the replay windows the streaming pipeline is chopped into
    window_seconds: float = _DAY
    #: honest memory bound: a single replay window holding more events
    #: than this raises :class:`repro.bgpsim.stream.WindowOverflowError`
    #: instead of growing without limit
    max_window_events: int = 5_000_000

    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.sessions_per_collector < 1 or not self.collector_names:
            raise ValueError("need at least one collector session")
        if not 0 <= self.transient_prob <= 1:
            raise ValueError("transient_prob must be a probability")
        if self.route_cache_cap < 1:
            raise ValueError("route_cache_cap must be positive")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.max_window_events < 1:
            raise ValueError("max_window_events must be positive")

    @property
    def duration(self) -> float:
        return self.duration_days * _DAY


@dataclass(frozen=True)
class TraceEvent:
    """Ground-truth record of one injected event (for tests/diagnostics)."""

    time: float
    kind: str  # "core_fail" | "core_recover" | "te_switch" | "prepend" | "reset"
    detail: Tuple


@dataclass
class MonthTrace:
    """The output of a :class:`TraceEngine` run."""

    streams: Dict[SessionId, UpdateStream]
    collectors: List[Collector]
    prefix_origins: Dict[Prefix, int]
    tor_prefixes: FrozenSet[Prefix]
    duration: float
    events: List[TraceEvent]
    #: ground truth: which prefixes each session carries
    session_prefixes: Dict[SessionId, FrozenSet[Prefix]]
    #: synthetic full-visibility vantage sessions (clients/destinations of
    #: the §3.1 analysis), disjoint from the collector sessions
    observer_sessions: List[SessionId] = field(default_factory=list)

    @property
    def sessions(self) -> List[SessionId]:
        return sorted(self.streams)

    @property
    def collector_sessions(self) -> List[SessionId]:
        """Real collector sessions only — what §4's statistics run over."""
        observers = set(self.observer_sessions)
        return sorted(s for s in self.streams if s not in observers)

    def observer_stream(self, asn: int) -> UpdateStream:
        """The full-visibility stream of observer AS ``asn``."""
        session = ("observer", asn)
        if session not in self.streams:
            raise KeyError(f"AS{asn} was not registered as an observer")
        return self.streams[session]

    def tor_streams_nonempty(self) -> bool:
        """§4: "All sessions learned at least one Tor prefix"."""
        return all(
            any(p in self.tor_prefixes for p in prefixes)
            for prefixes in self.session_prefixes.values()
        )


class TraceEngine:
    """Generates a :class:`MonthTrace` over a topology and prefix set."""

    def __init__(
        self,
        graph: ASGraph,
        prefix_origins: Mapping[Prefix, int],
        tor_prefixes: Iterable[Prefix],
        config: TraceConfig = TraceConfig(),
        observer_asns: Sequence[int] = (),
    ) -> None:
        self.graph = graph
        self.prefix_origins: Dict[Prefix, int] = dict(prefix_origins)
        self.tor_prefixes: FrozenSet[Prefix] = frozenset(tor_prefixes)
        missing = [p for p in self.tor_prefixes if p not in self.prefix_origins]
        if missing:
            raise ValueError(f"tor prefixes without an origin: {missing[:3]}...")
        for prefix, origin in self.prefix_origins.items():
            if origin not in graph:
                raise ValueError(f"origin AS{origin} of {prefix} not in topology")
        self.config = config
        self.observer_asns = list(observer_asns)
        for asn in self.observer_asns:
            if asn not in graph:
                raise ValueError(f"observer AS{asn} not in topology")
        self._rng = random.Random(config.seed)
        # one frozenset per graph link, both ways round: every link set the
        # run builds (route-cache entries and keys, the schedule, detours)
        # holds these objects rather than copies
        self._link_of: Dict[int, Dict[int, _Link]] = {}
        for a, b, _rel in graph.links():
            link = frozenset((a, b))
            self._link_of.setdefault(a, {})[b] = link
            self._link_of.setdefault(b, {})[a] = link
        # the trace's only route cache, relevance-filtered:
        # (origin, relevant_excluded) -> ({vantage: path|None}, links_used)
        self._route_cache: RouteCache[_VantageEntry] = RouteCache(
            self._paths_for_key,
            lambda entry, links: entry[1] & links,
            cap=config.route_cache_cap,
            counters="trace.route_cache",
            compute_many=self._paths_for_keys,
        )
        self._vantages: List[int] = []
        self._vantage_targets: FrozenSet[int] = frozenset()
        self._sessions_by_prefix: Dict[Prefix, List[SessionId]] = {}
        self._prefix_links: Dict[Prefix, FrozenSet[_Link]] = {}
        # reverse index of _prefix_links: link -> prefixes whose current
        # vantage paths cross it (maintained by _set_prefix_links)
        self._link_prefixes: Dict[_Link, Set[Prefix]] = {}

    # -- public API ----------------------------------------------------------

    def run(self) -> MonthTrace:
        """Generate the full month of collector streams.

        Replay-backed: opens the streaming generator (:meth:`open_stream`)
        and materializes it through a :class:`MonthTraceBuilder`, one
        bounded window at a time — bit-identical to the materialize-then-
        sort reference without look-ahead in ``tests/oracle/trace.py``.
        """
        cfg = self.config
        with obs.span(
            "trace.run",
            prefixes=len(self.prefix_origins),
            tor_prefixes=len(self.tor_prefixes),
            duration_days=cfg.duration_days,
        ) as run_span:
            stream = self.open_stream()
            builder = MonthTraceBuilder(stream)
            replay(
                stream,
                builder,
                window_seconds=cfg.window_seconds,
                duration=cfg.duration,
                max_window_events=cfg.max_window_events,
            )
            trace = builder.build()
            run_span.set(
                events=len(trace.events),
                records=sum(len(s) for s in trace.streams.values()),
                sessions=len(trace.streams),
            )
            return trace

    def open_stream(self) -> "TraceStream":
        """Open the trace as a one-shot event stream.

        Does the eager, bounded-size work up front — vantage roster,
        visibility, the t=0 table, the event schedule (all the ground
        truth a consumer may want before replaying) — and defers the
        expensive part, routing around every scheduled event, to the
        returned stream's iterator.  Records surface in globally
        nondecreasing time order without the full trace ever being held:
        an internal heap re-orders the in-flight records (each event
        emits with bounded settle/transient delay, so only a small
        horizon is ever buffered).

        Consuming the iterator advances this engine's RNG and caches, so
        a stream can be opened and drained once per engine run.  Before
        the first event of each core epoch (the span up to the next
        core-link event) the iterator resolves every route the epoch will
        ask for in batched kernel runs (:meth:`_look_ahead`).
        """
        cfg = self.config
        emitter = _HeapEmitter()
        prep = self._prepare(emitter)

        def iterate() -> Iterator[StreamEvent]:
            for i, (time, kind, detail) in enumerate(prep.schedule):
                for event in emitter.drain(time, cfg.duration):
                    yield event
                if i == 0 or kind in _CORE_EVENTS:
                    reroutes, core = self._epoch_reroutes(prep, i)
                    self._look_ahead(reroutes, core, prep.current_path)
                self._apply_event(time, kind, detail, prep, emitter)
            for event in emitter.drain(None, cfg.duration):
                yield event

        return TraceStream(
            collectors=prep.collectors,
            prefix_origins=dict(self.prefix_origins),
            tor_prefixes=self.tor_prefixes,
            duration=cfg.duration,
            events=prep.events_gt,
            session_prefixes=prep.session_prefixes,
            observer_sessions=prep.observer_sessions,
            sessions=prep.sessions,
            fingerprint=self._fingerprint(),
            iterator=iterate(),
        )

    # -- generation ----------------------------------------------------------

    def _fingerprint(self) -> str:
        """Identity of this engine's generated stream (for resume checks).

        Folds the graph fingerprint, the full config, the prefix table,
        and the observer roster — everything the stream's contents depend
        on besides the code itself.  The graph fingerprint is a content
        hash, the same under any engine; the shared one memoises it.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(shared_engine().fingerprint(self.graph).encode())
        digest.update(repr(self.config).encode())
        for prefix in sorted(self.prefix_origins, key=str):
            tor = int(prefix in self.tor_prefixes)
            digest.update(
                f"{prefix}|{self.prefix_origins[prefix]}|{tor};".encode()
            )
        digest.update(repr(sorted(self.observer_asns)).encode())
        return digest.hexdigest()

    def _prepare(self, pending) -> "_PreparedRun":
        """Everything before the event loop, in RNG-draw order.

        Builds the vantage roster, visibility, the t=0 initial table
        (emitted into ``pending``; its routes are looked ahead over all
        origins at once), and the event schedule.  ``pending`` is any
        object with ``append((time, prefix, as_path, from_reset,
        session))`` — a :class:`_HeapEmitter` for the streaming path, a
        plain list for the materialized reference — so both consume the
        RNG identically.
        """
        rng = self._rng

        with obs.span("trace.collectors"):
            collectors = self._build_collectors()
        observer_sessions: List[SessionId] = [
            ("observer", asn) for asn in self.observer_asns
        ]
        collector_session_ids: List[SessionId] = [
            s.session_id for c in collectors for s in c.sessions
        ]
        self._vantages = sorted(
            {s.peer_asn for c in collectors for s in c.sessions}
            | set(self.observer_asns)
        )
        self._vantage_targets = frozenset(self._vantages)
        sessions: List[SessionId] = collector_session_ids + observer_sessions

        with obs.span("trace.visibility"):
            session_prefixes = self._assign_visibility(collector_session_ids)
        all_prefixes = frozenset(self.prefix_origins)
        for session in observer_sessions:
            session_prefixes[session] = all_prefixes
        # Inverted index: which sessions carry each prefix (static).
        sessions_by_prefix: Dict[Prefix, List[SessionId]] = {p: [] for p in all_prefixes}
        for session in sessions:
            for prefix in session_prefixes[session]:
                sessions_by_prefix[prefix].append(session)
        self._sessions_by_prefix = sessions_by_prefix
        # Per-prefix union of links on its current vantage paths (for
        # core-event impact queries), plus its reverse index.
        self._prefix_links = {}
        self._link_prefixes = {}
        events_gt: List[TraceEvent] = []

        # Current state.  Per-prefix exclusions are the provider links the
        # prefix is currently NOT announced through (TE state).
        excluded_core: Set[_Link] = set()
        prefix_excluded: Dict[Prefix, FrozenSet[_Link]] = {
            p: frozenset() for p in self.prefix_origins
        }
        current_path: Dict[SessionId, Dict[Prefix, _Path]] = {s: {} for s in sessions}

        # t=0: initial table (the month's "first path" baseline).
        with obs.span("trace.initial_table"):
            no_links: FrozenSet[_Link] = frozenset()
            self._look_ahead(
                [(p, no_links) for p in self.prefix_origins], no_links, None
            )
            for prefix, origin in self.prefix_origins.items():
                paths, links = self._vantage_paths(origin, frozenset(), frozenset())
                self._set_prefix_links(prefix, links)
                for session in sessions_by_prefix[prefix]:
                    path = paths.get(session[1])
                    current_path[session][prefix] = path
                    if path is not None:
                        pending.append(
                            (rng.uniform(0.0, 60.0), prefix, path, False, session)
                        )

        # Build the event schedule (resets only hit real collector sessions).
        with obs.span("trace.schedule"):
            schedule = self._build_schedule(
                session_ids=collector_session_ids, events_gt=events_gt
            )
        events_gt.sort(key=lambda e: e.time)

        return _PreparedRun(
            collectors=collectors,
            observer_sessions=observer_sessions,
            sessions=sessions,
            session_prefixes=session_prefixes,
            schedule=schedule,
            events_gt=events_gt,
            excluded_core=excluded_core,
            prefix_excluded=prefix_excluded,
            current_path=current_path,
        )

    def _apply_event(
        self, time: float, kind: str, detail: object, prep: "_PreparedRun", pending
    ) -> None:
        """Route around one scheduled event, emitting diffs into ``pending``."""
        obs.add(f"trace.events.{kind}")
        if kind == "core_fail":
            link = detail
            affected = self._prefixes_using_link(link)
            prep.core_affected[link] = affected
            prep.excluded_core.add(link)
            self._reroute(
                affected, time, kind, prep.excluded_core, prep.prefix_excluded,
                prep.session_prefixes, prep.current_path, pending,
            )
        elif kind == "core_recover":
            link = detail
            prep.excluded_core.discard(link)
            affected = prep.core_affected.pop(link, set())
            self._reroute(
                affected, time, kind, prep.excluded_core, prep.prefix_excluded,
                prep.session_prefixes, prep.current_path, pending,
            )
        elif kind == "te_switch":
            prefix, links = detail
            prep.prefix_excluded[prefix] = links
            self._reroute(
                {prefix}, time, kind, prep.excluded_core, prep.prefix_excluded,
                prep.session_prefixes, prep.current_path, pending,
            )
        elif kind == "prepend":
            prefix = detail
            # Re-advertise the current path with the origin prepended
            # once more: a pure AS-PATH change, no AS-set change.
            for session in self._sessions_by_prefix[prefix]:
                path = prep.current_path[session].get(prefix)
                if path is not None:
                    pending.append(
                        (
                            time + self._rng.uniform(0.0, 60.0),
                            prefix,
                            path + (path[-1],),
                            False,
                            session,
                        )
                    )
        elif kind == "reset":
            session = detail
            offset = 0.0
            current = prep.current_path[session]
            for prefix in sorted(prep.session_prefixes[session], key=str):
                path = current.get(prefix)
                if path is not None:
                    offset += self._rng.uniform(0.01, 0.05)
                    pending.append((time + offset, prefix, path, True, session))
        else:  # pragma: no cover - schedule only emits known kinds
            raise AssertionError(f"unknown event kind {kind}")

    # -- construction helpers -----------------------------------------------

    def _build_collectors(self) -> List[Collector]:
        """Pick vantage ASes: transit-heavy ASes give full-feed sessions."""
        cfg = self.config
        candidates = sorted(
            (asn for asn in self.graph.ases if self.graph.customers(asn)),
            key=lambda asn: (-self.graph.degree(asn), asn),
        )
        needed = len(cfg.collector_names) * cfg.sessions_per_collector
        if len(candidates) < needed:
            # Fall back to any AS to fill the roster on tiny topologies.
            extra = [asn for asn in sorted(self.graph.ases) if asn not in candidates]
            candidates = candidates + extra
        if len(candidates) < needed:
            raise ValueError(
                f"topology too small: need {needed} vantage ASes, have {len(candidates)}"
            )
        pool = candidates[: needed * 2]
        chosen = self._rng.sample(pool, needed) if len(pool) > needed else pool[:needed]
        collectors: List[Collector] = []
        for i, name in enumerate(cfg.collector_names):
            peers = chosen[i * cfg.sessions_per_collector : (i + 1) * cfg.sessions_per_collector]
            collectors.append(Collector(name, peers))
        return collectors

    def _assign_visibility(
        self, sessions: Sequence[SessionId]
    ) -> Dict[SessionId, FrozenSet[Prefix]]:
        """Decide which prefixes each session carries (partial feeds).

        Session richness and per-prefix visibility multiply into an
        inclusion probability, reproducing §4's marginals: a prefix is seen
        on ~40% of sessions (max 60%) while sessions range from sparse
        (a few % of prefixes) to near-full feeds.
        """
        cfg = self.config
        rng = self._rng
        lo_r, hi_r = cfg.session_richness_range
        # Draw richness so that the median lands near the configured value:
        # two-sided triangular-ish mixture around the median.
        richness: Dict[SessionId, float] = {}
        full_feed: Optional[SessionId] = sessions[0] if sessions else None
        for i, session in enumerate(sessions):
            if i == 0:
                richness[session] = hi_r  # the near-full feed ("max 99%")
            elif rng.random() < 0.5:
                richness[session] = rng.uniform(lo_r, cfg.session_richness_median)
            else:
                richness[session] = rng.uniform(cfg.session_richness_median, hi_r)
        lo_v, hi_v = cfg.prefix_visibility_range
        mean_v = (lo_v + hi_v) / 2.0
        visibility = {p: rng.uniform(lo_v, hi_v) for p in self.prefix_origins}
        mean_r = sum(richness.values()) / len(richness)

        carried: Dict[SessionId, Set[Prefix]] = {s: set() for s in sessions}
        for prefix, vis in visibility.items():
            for session in sessions:
                if session == full_feed:
                    # A true full-feed peer carries (nearly) everything,
                    # like the paper's best session with 99% of Tor prefixes.
                    p_include = hi_r
                else:
                    p_include = min(1.0, richness[session] * vis / (mean_r * mean_v) * mean_v)
                if rng.random() < p_include:
                    carried[session].add(prefix)
        # §4: every session learned at least one Tor prefix.
        tor_sorted = sorted(self.tor_prefixes, key=str)
        for session in sessions:
            if not carried[session] & self.tor_prefixes:
                carried[session].add(rng.choice(tor_sorted))
        return {s: frozenset(ps) for s, ps in carried.items()}

    def _build_schedule(
        self, session_ids: Sequence[SessionId], events_gt: List[TraceEvent]
    ) -> List[Tuple[float, str, object]]:
        """Poisson schedules for core outages, prefix flaps, and resets."""
        cfg = self.config
        rng = self._rng
        schedule: List[Tuple[float, str, object]] = []

        # Core links: transit links below the tier-1 clique (both endpoints
        # have customers, neither is provider-free).  Tier-1 adjacencies are
        # excluded: their failure would churn nearly every prefix at once,
        # which RIPE-scale traces do not show at a per-day cadence.
        link_of = self._link_of
        core_links = [
            link_of[a][b]
            for a, b, _rel in self.graph.links()
            if self.graph.customers(a)
            and self.graph.customers(b)
            and self.graph.providers(a)
            and self.graph.providers(b)
        ]
        if core_links and cfg.core_outages_per_day > 0:
            t = 0.0
            rate = cfg.core_outages_per_day / _DAY
            while True:
                t += rng.expovariate(rate)
                if t >= cfg.duration:
                    break
                link = rng.choice(core_links)
                duration = rng.expovariate(1.0 / (cfg.core_outage_mean_hours * 3600.0))
                end = min(t + max(duration, 60.0), cfg.duration - 1.0)
                if end <= t:
                    continue
                schedule.append((t, "core_fail", link))
                schedule.append((end, "core_recover", link))
                events_gt.append(TraceEvent(t, "core_fail", tuple(sorted(link))))
                events_gt.append(TraceEvent(end, "core_recover", tuple(sorted(link))))

        # Per-prefix TE flaps.
        tor_extreme = {
            p
            for p in self.tor_prefixes
            if rng.random() < cfg.tor_extreme_fraction
        }
        multihomed_tor = sorted(
            (
                p
                for p in self.tor_prefixes
                if len(self.graph.providers(self.prefix_origins[p])) >= 2
            ),
            key=str,
        )
        super_flapper = multihomed_tor[0] if multihomed_tor else None
        # TE state repeats: one exclusion set per (origin, kept provider),
        # one schedule detail and ground-truth detail per (prefix, kept)
        te_exclusions: Dict[Tuple[int, object], FrozenSet[_Link]] = {}
        for prefix, origin in self.prefix_origins.items():
            providers = sorted(self.graph.providers(origin))
            if not providers:
                continue
            median = (
                cfg.tor_flaps_median if prefix in self.tor_prefixes else cfg.background_flaps_median
            )
            rate_month = rng.lognormvariate(math.log(median), cfg.flaps_sigma)
            if prefix == super_flapper:
                rate_month = median * cfg.super_flapper_multiplier
            elif prefix in tor_extreme:
                rate_month *= rng.uniform(*cfg.tor_extreme_multiplier)
            expected = rate_month
            t = 0.0
            lam = expected / cfg.duration
            if lam <= 0:
                continue
            if len(providers) < 2:
                continue  # single-homed origin: no TE to do
            details: Dict[object, Tuple[Tuple, Tuple]] = {}
            while True:
                t += rng.expovariate(lam)
                if t >= cfg.duration:
                    break
                # A TE switch re-homes the announcement: either onto one
                # provider (others excluded) or back to all providers.
                if rng.random() < cfg.flap_all_providers_prob:
                    keep: object = "all"
                else:
                    keep = rng.choice(providers)
                if keep not in details:
                    links = te_exclusions.get((origin, keep))
                    if links is None:
                        links = te_exclusions[(origin, keep)] = (
                            frozenset()
                            if keep == "all"
                            else frozenset(link_of[origin][p] for p in providers if p != keep)
                        )
                    details[keep] = ((prefix, links), (str(prefix), keep))
                detail, truth = details[keep]
                schedule.append((t, "te_switch", detail))
                events_gt.append(TraceEvent(t, "te_switch", truth))

        # Prepend churn: TE that changes the AS-PATH but not the AS set.
        if cfg.prepend_events_per_prefix > 0:
            lam_prepend = cfg.prepend_events_per_prefix / cfg.duration
            for prefix in self.prefix_origins:
                t = 0.0
                while True:
                    t += rng.expovariate(lam_prepend)
                    if t >= cfg.duration:
                        break
                    schedule.append((t, "prepend", prefix))
                    events_gt.append(TraceEvent(t, "prepend", (str(prefix),)))

        # Session resets.
        if cfg.resets_per_session > 0:
            for session in session_ids:
                lam = cfg.resets_per_session / cfg.duration
                t = 0.0
                while True:
                    t += rng.expovariate(lam)
                    if t >= cfg.duration:
                        break
                    schedule.append((t, "reset", session))
                    events_gt.append(TraceEvent(t, "reset", session))

        schedule.sort(key=lambda item: (item[0], item[1]))
        return schedule

    # -- routing -----------------------------------------------------------------

    def _vantage_paths(
        self, origin: int, local: FrozenSet[_Link], global_excluded: FrozenSet[_Link]
    ) -> _VantageEntry:
        """Vantage paths to ``origin`` plus the union of links they cross.

        ``local`` are exclusions known to matter (the origin's own TE state,
        a transient's detour link); ``global_excluded`` is the full current
        exclusion set (core outages included).  The route cache keys each
        result on only the excluded links its paths would otherwise cross
        (:meth:`~repro.asgraph.routecache.RouteCache.resolve`): most
        core-link failures are irrelevant to most origins, so keying on the
        global state would recompute every origin on every core epoch.
        """
        entry, _relevant = self._route_cache.resolve(origin, global_excluded, local)
        return entry

    def _paths_for_key(self, origin: int, excluded: FrozenSet[_Link]) -> _VantageEntry:
        # The kernel directly, not the engine: an engine outcome would also
        # be held in the engine's LRU, a second cache under this one.
        outcome = compute_routes_fast(
            self.graph,
            [origin],
            excluded_links=excluded,
            targets=self._vantage_targets,
        )
        return self._vantage_entry(outcome)

    def _paths_for_keys(
        self, keys: List[Tuple[int, FrozenSet[_Link]]]
    ) -> List[_VantageEntry]:
        """Entries for many ``(origin, excluded)`` keys: batched kernel
        runs with per-row exclusions, at most ``_BATCH_ROWS`` rows each
        (chunks split evenly, so no chunk is left with a lone row)."""
        chunks = -(-len(keys) // _BATCH_ROWS)
        size = -(-len(keys) // chunks)
        entries: List[_VantageEntry] = []
        for lo in range(0, len(keys), size):
            chunk = keys[lo : lo + size]
            batch = compute_routes_many(
                self.graph,
                [origin for origin, _ in chunk],
                targets=self._vantage_targets,
                row_excluded_links=[excluded for _, excluded in chunk],
            )
            entries.extend(
                self._vantage_entry(batch.outcome(row)) for row in range(len(chunk))
            )
        return entries

    def _vantage_entry(self, outcome: CompactOutcome) -> _VantageEntry:
        paths = {v: outcome.path(v) for v in self._vantages}
        link_of = self._link_of
        links = frozenset(
            link_of[a][b] for path in paths.values() if path for a, b in zip(path, path[1:])
        )
        return paths, links

    def _epoch_reroutes(
        self, prep: "_PreparedRun", start: int
    ) -> Tuple[List[Tuple[Prefix, FrozenSet[_Link]]], FrozenSet[_Link]]:
        """The reroutes of the core epoch opening at ``prep.schedule[start]``.

        Returns ``(prefix, local exclusions)`` in replay order — the
        opening core event's displaced prefixes, then every ``te_switch``
        up to the next core-link event — and the epoch's core exclusion
        set.  Reads the replay state and changes none of it.
        """
        schedule = prep.schedule
        core = set(prep.excluded_core)
        _time, kind, link = schedule[start]
        affected: Iterable[Prefix] = ()
        if kind == "core_fail":
            core.add(link)
            affected = self._link_prefixes.get(link, ())
        elif kind == "core_recover":
            core.discard(link)
            affected = prep.core_affected.get(link, ())
        reroutes = [(p, prep.prefix_excluded[p]) for p in affected]
        for i in range(start + 1, len(schedule)):
            _time, kind, detail = schedule[i]
            if kind in _CORE_EVENTS:
                break
            if kind == "te_switch":
                reroutes.append(detail)
        return reroutes, frozenset(core)

    def _look_ahead(
        self,
        reroutes: Sequence[Tuple[Prefix, FrozenSet[_Link]]],
        excluded_core: FrozenSet[_Link],
        current_path: Optional[Mapping[SessionId, Mapping[Prefix, _Path]]],
    ) -> None:
        """Resolve ahead, in batched kernel runs, the routes ``reroutes`` ask for.

        ``reroutes`` are ``(prefix, local exclusions)`` in replay order,
        all under the core exclusion set ``excluded_core``.  Their route
        keys go through one :meth:`RouteCache.resolve_many
        <repro.asgraph.routecache.RouteCache.resolve_many>`.  With
        ``current_path`` (the per-session paths before the first
        reroute), so do the transient-detour keys of the reroutes whose
        paths change at some session: a prefix's paths change only at its
        own reroutes, so this is known before the replay draws whether a
        transient is emitted.  Only the cache changes, and an entry is a
        pure function of its key, so the records cannot move; a
        looked-ahead entry evicted before its use is recomputed.

        One call resolves at most ``route_cache_cap // 2`` keys, the
        first ones in replay order, so the LRU cannot evict them before
        the replay reads them; detours come only from what is left of
        that budget, and only for the reroutes before the first one past
        it.  The replay computes the rest as it asks for them.
        """
        cache = self._route_cache
        origins = self.prefix_origins
        budget = self.config.route_cache_cap // 2
        keys = list(dict.fromkeys((origins[p], local) for p, local in reroutes))[:budget]
        resolved = cache.resolve_many(
            [(origin, excluded_core | local, local) for origin, local in keys]
        )
        if current_path is None:
            return
        paths_of = {key: entry[0] for key, (entry, _rel) in zip(keys, resolved)}
        last: Dict[Prefix, Dict[int, _Path]] = {}
        detours: Dict[Tuple[int, FrozenSet[_Link]], None] = {}
        room = budget - len(keys)
        for prefix, local in reroutes:
            origin = origins[prefix]
            paths = paths_of.get((origin, local))
            if paths is None or len(detours) >= room:
                break
            before = last.get(prefix)
            last[prefix] = paths
            for session in self._sessions_by_prefix[prefix]:
                new_path = paths.get(session[1])
                old_path = (
                    current_path[session].get(prefix)
                    if before is None
                    else before.get(session[1])
                )
                if new_path != old_path and new_path is not None and len(new_path) > 1:
                    detour = self._canonical_detour(paths)
                    if detour is not None:
                        detours[(origin, local | {detour})] = None
                    break
        if detours:
            cache.resolve_many(
                [(origin, excluded_core | rel, rel) for origin, rel in detours]
            )

    def _set_prefix_links(self, prefix: Prefix, links: FrozenSet[_Link]) -> None:
        """Record the links under a prefix's current vantage paths, keeping
        the link->prefixes reverse index in sync."""
        index = self._link_prefixes
        old = self._prefix_links.get(prefix, frozenset())
        for link in old - links:
            holders = index.get(link)
            if holders is not None:
                holders.discard(prefix)
                if not holders:
                    del index[link]
        for link in links - old:
            index.setdefault(link, set()).add(prefix)
        self._prefix_links[prefix] = links

    def _prefixes_using_link(self, link: _Link) -> Set[Prefix]:
        """Prefixes whose current vantage paths traverse ``link``.

        Answered from the reverse index maintained by
        :meth:`_set_prefix_links` — O(affected), not O(prefixes).  Returns
        a copy: the index keeps mutating as the affected prefixes reroute.
        """
        obs.add("trace.link_index.lookups")
        return set(self._link_prefixes.get(link, ()))

    def _reroute(
        self,
        prefixes: Iterable[Prefix],
        time: float,
        kind: str,
        excluded_core: Set[_Link],
        prefix_excluded: Dict[Prefix, FrozenSet[_Link]],
        session_prefixes: Dict[SessionId, FrozenSet[Prefix]],
        current_path: Dict[SessionId, Dict[Prefix, _Path]],
        pending: List[_Pending],
    ) -> None:
        """Recompute the given prefixes and emit diffs at affected sessions."""
        with obs.span("trace.reroute", kind=kind) as reroute_span:
            emitted_before = len(pending)
            self._reroute_prefixes(
                prefixes, time, excluded_core, prefix_excluded,
                session_prefixes, current_path, pending,
            )
            fanout = len(pending) - emitted_before
            reroute_span.set(prefixes=len(prefixes) if hasattr(prefixes, "__len__") else None,
                             updates=fanout)
            obs.observe("trace.reroute.updates", fanout)

    def _reroute_prefixes(
        self,
        prefixes: Iterable[Prefix],
        time: float,
        excluded_core: Set[_Link],
        prefix_excluded: Dict[Prefix, FrozenSet[_Link]],
        session_prefixes: Dict[SessionId, FrozenSet[Prefix]],
        current_path: Dict[SessionId, Dict[Prefix, _Path]],
        pending: List[_Pending],
    ) -> None:
        cfg = self.config
        rng = self._rng
        for prefix in prefixes:
            origin = self.prefix_origins[prefix]
            local = prefix_excluded[prefix]
            excluded = frozenset(excluded_core) | local
            paths, links = self._vantage_paths(origin, local, excluded)
            self._set_prefix_links(prefix, links)
            # One shared exploration tree per rerouted prefix: the routes
            # in force when a canonical next-hop link is unavailable
            # (vantages try alternates while the announcement wave
            # propagates).  The canonical link is a deterministic function
            # of the new route state, so the transient trees reuse the same
            # cache keys across events; per-event or per-session alternates
            # would be slightly more faithful but multiply the cache key
            # space (and the runtime) by the event and session counts.
            alt_paths: Optional[Dict[int, _Path]] = None
            detour = self._canonical_detour(paths)
            for session in self._sessions_by_prefix[prefix]:
                current = current_path[session]
                old_path = current.get(prefix)
                new_path = paths.get(session[1])
                if old_path == new_path:
                    continue
                settle = time + rng.uniform(*cfg.settle_delay_range)
                if (
                    new_path is not None
                    and detour is not None
                    and rng.random() < cfg.transient_prob
                    and len(new_path) > 1
                ):
                    if alt_paths is None:
                        alt_paths, _alt_links = self._vantage_paths(
                            origin, local | {detour}, excluded | {detour}
                        )
                    alt = alt_paths.get(session[1])
                    if alt is not None and alt != old_path and alt != new_path:
                        t_transient = time + rng.uniform(*cfg.transient_delay_range)
                        if t_transient < settle:
                            pending.append((t_transient, prefix, alt, False, session))
                current[prefix] = new_path
                pending.append((settle, prefix, new_path, False, session))

    def _canonical_detour(self, paths: Dict[int, _Path]) -> Optional[_Link]:
        """The first link of the lowest-numbered vantage's multi-hop path —
        a deterministic choice of which next hop the exploration transients
        pretend is briefly unavailable."""
        for vantage in sorted(paths):
            path = paths[vantage]
            if path is not None and len(path) > 1:
                return self._link_of[path[0]][path[1]]
        return None


@dataclass
class _PreparedRun:
    """Pre-event-loop state shared by the streaming path and the
    materialized reference: the vantage roster, schedule, and the mutable
    routing state the event loop folds over."""

    collectors: List[Collector]
    observer_sessions: List[SessionId]
    sessions: List[SessionId]
    session_prefixes: Dict[SessionId, FrozenSet[Prefix]]
    schedule: List[Tuple[float, str, object]]
    events_gt: List[TraceEvent]
    excluded_core: Set[_Link]
    prefix_excluded: Dict[Prefix, FrozenSet[_Link]]
    #: session -> prefix -> the path the session last logged
    current_path: Dict[SessionId, Dict[Prefix, _Path]]
    #: prefixes each currently-failed core link displaced (filled by
    #: core_fail events, drained by the matching core_recover)
    core_affected: Dict[_Link, Set[Prefix]] = field(default_factory=dict)


class _HeapEmitter:
    """Min-heap ``pending`` sink that replays records in emission order.

    Drop-in for the materialized reference's list: ``append`` takes the same
    ``(time, prefix, as_path, from_reset, session)`` tuples, but
    :meth:`drain` pops everything due strictly before a watermark in
    ``(time, insertion order)`` order — exactly the order a stable sort of
    the full list would produce, which is what makes the streaming path
    bit-identical to the pre-refactor one.  Draining before each schedule
    event's time is safe because events only emit records at times at or
    after their own time.  Heap entries are flat
    ``(time, seq, prefix, as_path, from_reset, session)`` tuples, so each
    record is built once, when it is drained.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Prefix, _Path, bool, SessionId]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def append(self, item: _Pending) -> None:
        time, prefix, path, from_reset, session = item
        heapq.heappush(self._heap, (time, self._seq, prefix, path, from_reset, session))
        self._seq += 1

    def drain(
        self, before: Optional[float], duration: float
    ) -> Iterator[StreamEvent]:
        """Yield all buffered records due before ``before`` (all, if None),
        re-stamped with their emission time and filtered to the trace
        duration — the streaming equivalent of the final sort+filter."""
        heap = self._heap
        while heap and (before is None or heap[0][0] < before):
            emit_time, _seq, prefix, path, from_reset, session = heapq.heappop(heap)
            if emit_time <= duration:
                yield StreamEvent(session, UpdateRecord(emit_time, prefix, path, from_reset))


class TraceStream:
    """A trace opened as a stream: eager metadata, lazy records.

    Everything a consumer may want before replaying — the collector
    roster, visibility ground truth, the injected-event ground truth, the
    engine fingerprint for checkpoint validation — is available
    immediately; iterating yields the trace's
    :class:`~repro.bgpsim.collector.StreamEvent` records in nondecreasing
    time order, computing routes as it goes.  One-shot: the underlying
    generator advances the engine's RNG, so a second iteration raises
    instead of silently producing a different trace.
    """

    def __init__(
        self,
        *,
        collectors: List[Collector],
        prefix_origins: Dict[Prefix, int],
        tor_prefixes: FrozenSet[Prefix],
        duration: float,
        events: List[TraceEvent],
        session_prefixes: Dict[SessionId, FrozenSet[Prefix]],
        observer_sessions: List[SessionId],
        sessions: List[SessionId],
        fingerprint: str,
        iterator: Iterator[StreamEvent],
    ) -> None:
        self.collectors = collectors
        self.prefix_origins = prefix_origins
        self.tor_prefixes = tor_prefixes
        self.duration = duration
        self.events = events
        self.session_prefixes = session_prefixes
        self.observer_sessions = observer_sessions
        self.sessions = sessions
        self.fingerprint = fingerprint
        self._iterator = iterator
        self._consumed = False

    @property
    def collector_sessions(self) -> List[SessionId]:
        """Real collector sessions only — what §4's statistics run over."""
        observers = set(self.observer_sessions)
        return sorted(s for s in self.sessions if s not in observers)

    def __iter__(self) -> Iterator[StreamEvent]:
        if self._consumed:
            raise RuntimeError(
                "TraceStream is one-shot (iterating advances the engine RNG); "
                "open a new stream to replay again"
            )
        self._consumed = True
        return self._iterator


class MonthTraceBuilder:
    """Windowed consumer that materializes a full :class:`MonthTrace`.

    The bridge from the streaming pipeline back to the materialized API:
    :meth:`TraceEngine.run` replays a :class:`TraceStream` through one of
    these.  Deliberately *not* checkpointable — it holds every record
    anyway, so resumable replay would only hide that cost;
    ``state``/``restore`` raise to keep it ineligible for
    ``checkpoint=``/``resume=`` replay.
    """

    def __init__(self, stream: TraceStream) -> None:
        self._stream = stream
        tables = RecordTables()  # every session's paths and prefixes, once
        self._streams: Dict[SessionId, UpdateStream] = {
            s: tables.empty_stream(s) for s in stream.sessions
        }

    def consume(self, window) -> None:
        streams = self._streams
        for event in window.events:
            streams[event.session].append(event.record)

    def state(self) -> dict:
        raise NotImplementedError(
            "MonthTraceBuilder materializes the full trace and is not "
            "checkpointable; use a bounded consumer for resumable replay"
        )

    def restore(self, state: dict) -> None:
        raise NotImplementedError(
            "MonthTraceBuilder materializes the full trace and is not "
            "checkpointable; use a bounded consumer for resumable replay"
        )

    def build(self) -> MonthTrace:
        meta = self._stream
        return MonthTrace(
            streams=self._streams,
            collectors=meta.collectors,
            prefix_origins=meta.prefix_origins,
            tor_prefixes=meta.tor_prefixes,
            duration=meta.duration,
            events=meta.events,
            session_prefixes=meta.session_prefixes,
            observer_sessions=meta.observer_sessions,
        )
