"""Tests for the relevance-filtered route cache the trace and serve share.

:class:`~repro.asgraph.routecache.RouteCache` keys routes only on the
*relevant* excluded links (a fixpoint), not the full global exclusion
state.  These tests pin the correctness claim on the trace engine's
vantage paths: the filtered result must equal a direct Gao-Rexford
computation by the reference kernel in ``tests/oracle/routing.py`` under
the full exclusion set, for arbitrary exclusion sets.  Others pin that
this cache is the trace's only one (a run stores nothing in the shared
routing engine), that it is bounded, and how the live routes of
``repro serve`` reuse and re-sync it.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.asgraph.routecache as routecache
from repro import obs
from repro.analysis.prefixes import Prefix
from repro.asgraph import TopologyConfig, generate_topology
from repro.asgraph.engine import RoutingEngine, set_shared_engine, shared_engine
from repro.asgraph.routecache import LiveRoutes
from repro.bgpsim.trace import TraceConfig, TraceEngine
from repro.obs import Recorder
from tests.oracle.routing import compute_routes


def build_engine(seed=0):
    graph = generate_topology(
        TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=seed)
    )
    prefixes = {Prefix.parse(f"10.0.{i}.0/24"): 40 + i for i in range(10)}
    engine = TraceEngine(
        graph,
        prefixes,
        tor_prefixes=list(prefixes)[:5],
        config=TraceConfig(
            sessions_per_collector=4, collector_names=("rrc00",), seed=seed
        ),
    )
    # run() normally initialises the vantage set; do it manually here.
    collectors = engine._build_collectors()
    engine._vantages = sorted({s.peer_asn for c in collectors for s in c.sessions})
    engine._vantage_targets = frozenset(engine._vantages)
    return graph, engine


@pytest.fixture(scope="module")
def world():
    return build_engine(seed=3)


class TestFilteredCacheSoundness:
    def test_no_exclusions_matches_direct(self, world):
        graph, engine = world
        paths, links = engine._vantage_paths(45, frozenset(), frozenset())
        direct = compute_routes(graph, [45])
        for vantage in engine._vantages:
            assert paths[vantage] == direct.path(vantage)

    @settings(deadline=None, max_examples=25)
    @given(
        origin=st.integers(min_value=40, max_value=49),
        num_excluded=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_filtered_equals_full_exclusion(self, origin, num_excluded, seed):
        graph, engine = build_engine(seed=3)
        rng = random.Random(seed)
        links = [frozenset((a, b)) for a, b, _r in graph.links()]
        excluded = frozenset(rng.sample(links, min(num_excluded, len(links))))
        # local = the subset touching the origin (how the engine calls it)
        local = frozenset(l for l in excluded if origin in l)

        paths, _used = engine._vantage_paths(origin, local, excluded)
        direct = compute_routes(graph, [origin], excluded_links=excluded)
        for vantage in engine._vantages:
            assert paths[vantage] == direct.path(vantage), (
                f"origin {origin}, excluded {sorted(map(sorted, excluded))}, "
                f"vantage {vantage}"
            )

    def test_cache_reuse_across_irrelevant_core_states(self, world):
        """A core exclusion far from the origin must not add cache keys."""
        graph, engine = world
        engine._route_cache.clear()
        origin = 45
        paths_a, _ = engine._vantage_paths(origin, frozenset(), frozenset())
        baseline_keys = len(engine._route_cache)
        # exclude a link used by nobody's path to this origin
        used = set()
        for path in paths_a.values():
            if path:
                used.update(frozenset(p) for p in zip(path, path[1:]))
        unused_link = next(
            frozenset((a, b))
            for a, b, _r in graph.links()
            if frozenset((a, b)) not in used and origin not in (a, b)
        )
        paths_b, _ = engine._vantage_paths(origin, frozenset(), frozenset({unused_link}))
        assert paths_b == paths_a
        assert len(engine._route_cache) == baseline_keys, "irrelevant link added a key"

    def test_canonical_detour_deterministic(self, world):
        _graph, engine = world
        paths, _ = engine._vantage_paths(45, frozenset(), frozenset())
        assert engine._canonical_detour(paths) == engine._canonical_detour(dict(paths))

    def test_canonical_detour_none_for_trivial_paths(self, world):
        _graph, engine = world
        assert engine._canonical_detour({1: None}) is None
        assert engine._canonical_detour({1: (1,)}) is None


def _requests(engine, seed, count=12):
    """Trace-shaped resolve requests, (origin, excluded, local), whose
    core exclusions include links the origins' paths cross."""
    rng = random.Random(seed)
    links = sorted(
        (frozenset((a, b)) for a, b, _r in engine.graph.links()), key=sorted
    )
    used = set()
    for origin in range(40, 50):
        used |= engine._paths_for_key(origin, frozenset())[1]
    core = frozenset(rng.sample(sorted(used, key=sorted), 4) + rng.sample(links, 2))
    requests = []
    for _ in range(count):
        origin = rng.randint(40, 49)
        local = frozenset(l for l in rng.sample(links, 3) if origin in l)
        requests.append((origin, core | local, local))
    return requests


def _fixpoint_rounds(engine, requests):
    """Each request's fixpoint keys, found one :meth:`resolve` at a time."""
    cache = engine._route_cache
    chains = []
    for origin, excluded, local in requests:
        chain, get = [], cache.get

        def recording_get(key, chain=chain, get=get):
            chain.append(key)
            return get(key)

        cache.get = recording_get
        try:
            cache.resolve(origin, excluded, local)
        finally:
            del cache.get
        chains.append(chain)
    return chains


class TestResolveMany:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_resolve_key_for_key(self, seed):
        _graph, one_by_one = build_engine(seed=3)
        _graph, batched = build_engine(seed=3)
        requests = _requests(one_by_one, seed)
        expected = [one_by_one._route_cache.resolve(*r) for r in requests]
        assert batched._route_cache.resolve_many(requests) == expected

    def test_one_kernel_call_per_fixpoint_round(self):
        _graph, reference = build_engine(seed=3)
        requests = _requests(reference, seed=11, count=20)
        chains = _fixpoint_rounds(reference, requests)
        assert max(map(len, chains)) >= 2, "no request needed a second round"
        seen, expected = set(), []
        for depth in range(max(map(len, chains))):
            keys = {chain[depth] for chain in chains if len(chain) > depth}
            missing = keys - seen
            seen |= keys
            if missing:
                expected.append(missing)

        _graph, engine = build_engine(seed=3)
        cache, calls = engine._route_cache, []
        single, many = cache._compute, cache._compute_many

        def counted_single(origin, relevant):
            calls.append(("single", {(origin, relevant)}))
            return single(origin, relevant)

        def counted_many(keys):
            calls.append(("many", set(keys)))
            return many(keys)

        cache._compute, cache._compute_many = counted_single, counted_many
        cache.resolve_many(requests)
        assert [keys for _kind, keys in calls] == expected
        for kind, keys in calls:
            assert kind == ("single" if len(keys) == 1 else "many")


class TestOneRouteCache:
    def test_run_leaves_the_shared_engine_untouched(self):
        """Route-cache misses run the kernel directly: a whole run adds no
        query or cached outcome to the shared engine, so the trace's own
        LRU is the only place its routes are held."""
        previous = shared_engine()
        fresh = RoutingEngine()
        set_shared_engine(fresh)
        try:
            _graph, engine = build_engine(seed=3)
            before = fresh.stats()
            trace = engine.run()
            after = fresh.stats()
        finally:
            set_shared_engine(previous)
        assert sum(len(s) for s in trace.streams.values()) > 0
        assert len(engine._route_cache) > 0
        assert (after.queries, after.entries) == (before.queries, before.entries)


def _trace_world(seed=0):
    graph = generate_topology(
        TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=seed)
    )
    prefixes = {Prefix.parse(f"10.0.{i}.0/24"): 40 + i for i in range(10)}
    tor = list(prefixes)[:3]
    return graph, prefixes, tor


class TestTraceIntegration:
    def test_route_cache_is_bounded_with_evictions_counted(self):
        graph, prefixes, tor = _trace_world()
        cfg = TraceConfig(
            duration_days=3.0, seed=9, sessions_per_collector=3,
            collector_names=("rrc00",), route_cache_cap=4,
        )
        engine = TraceEngine(graph, prefixes, tor, cfg)
        recorder = Recorder()
        previous = obs.set_recorder(recorder)
        try:
            engine.run()
        finally:
            obs.set_recorder(previous)
        counters = recorder.snapshot().counters
        assert len(engine._route_cache) <= 4
        assert counters.get("trace.route_cache.evictions", 0) > 0
        assert counters["trace.route_cache.evictions"] == engine._route_cache.evictions
        assert counters["trace.route_cache.misses"] == engine._route_cache.misses
        assert recorder.snapshot().gauges["trace.route_cache.size"] <= 4

    def test_link_reverse_index_matches_linear_scan(self):
        graph, prefixes, tor = _trace_world()
        cfg = TraceConfig(
            duration_days=3.0, seed=9, sessions_per_collector=3,
            collector_names=("rrc00",),
        )
        engine = TraceEngine(graph, prefixes, tor, cfg)
        engine.run()
        all_links = {l for links in engine._prefix_links.values() for l in links}
        assert all_links  # the run must have produced routed prefixes
        for link in sorted(all_links, key=sorted):
            expected = {
                p for p, links in engine._prefix_links.items() if link in links
            }
            assert engine._prefixes_using_link(link) == expected
        # and a link nothing routes over resolves to the empty set
        assert engine._prefixes_using_link(frozenset((999998, 999999))) == set()

    def test_every_link_is_the_engine_s_one_object(self):
        """Route-cache keys and entries, the per-prefix link sets and the
        schedule hold the engine's one frozenset per graph link, and a TE
        switch's detail is one object per (prefix, kept provider)."""
        graph, prefixes, tor = _trace_world()
        cfg = TraceConfig(
            duration_days=3.0, seed=9, sessions_per_collector=3,
            collector_names=("rrc00",), core_outages_per_day=6.0,
        )
        engine = TraceEngine(graph, prefixes, tor, cfg)
        engine.run()

        def assert_canonical(owner, links):
            for link in links:
                a, b = link
                assert link is owner._link_of[a][b], link

        entries = engine._route_cache._entries
        assert entries
        for (_origin, relevant), (_paths, links) in entries.items():
            assert_canonical(engine, relevant)
            assert_canonical(engine, links)
        assert any(relevant for _origin, relevant in entries)
        for links in engine._prefix_links.values():
            assert_canonical(engine, links)
        assert_canonical(engine, engine._link_prefixes)

        fresh = TraceEngine(graph, prefixes, tor, cfg)
        schedule = fresh._prepare([]).schedule
        details = {}
        kinds = set()
        for _time, kind, detail in schedule:
            kinds.add(kind)
            if kind in ("core_fail", "core_recover"):
                assert_canonical(fresh, [detail])
            elif kind == "te_switch":
                assert_canonical(fresh, detail[1])
                assert details.setdefault(detail, detail) is detail
        assert {"core_fail", "te_switch"} <= kinds
        assert len(details) < sum(kind == "te_switch" for _t, kind, _d in schedule)

    def test_cache_cap_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(route_cache_cap=0)


class _KernelCalls:
    """Count (and record the rows of) the live routes' kernel calls."""

    def __init__(self, monkeypatch):
        self.single = []
        self.batches = []
        fast, many = routecache.compute_routes_fast, routecache.compute_routes_many

        def counted_fast(graph, origins, **kwargs):
            self.single.append(tuple(origins))
            return fast(graph, origins, **kwargs)

        def counted_many(graph, origins, **kwargs):
            self.batches.append((list(origins), kwargs.get("excluded_links")))
            return many(graph, origins, **kwargs)

        monkeypatch.setattr(routecache, "compute_routes_fast", counted_fast)
        monkeypatch.setattr(routecache, "compute_routes_many", counted_many)

    @property
    def total(self):
        return len(self.single) + len(self.batches)


def _crossed_link(graph, trees):
    """The first link that the trees of at least two origins cross."""
    for a, b in sorted(tuple(sorted(link[:2])) for link in graph.links()):
        link = frozenset((a, b))
        if sum(1 for tree in trees.values() if tree.links_crossed({link})) >= 2:
            return link
    raise AssertionError("no link is shared by two origins' trees")


class TestLiveRouteCache:
    """The live routes of ``repro serve`` on the shared cache."""

    def test_flap_back_finds_the_pre_outage_tree_without_a_kernel_run(
        self, tiny_graph, monkeypatch
    ):
        live = LiveRoutes(tiny_graph)
        origins = sorted(tiny_graph.ases)[:6]
        before = {o: live.tree(o) for o in origins}
        link = _crossed_link(tiny_graph, before)
        down = live.apply_events([("down", tuple(link))])
        assert down.repaired_keys
        calls = _KernelCalls(monkeypatch)
        up = live.apply_events([("up", tuple(link))])
        assert up.repaired_keys == down.repaired_keys
        for origin in origins:
            assert live.tree(origin) is before[origin]
        assert calls.total == 0, "the flap-back ran the kernel"

    def test_resync_makes_one_kernel_call_per_relevant_link_set(
        self, tiny_graph, monkeypatch
    ):
        live = LiveRoutes(tiny_graph)
        origins = sorted(tiny_graph.ases)[:12]
        trees = {o: live.tree(o) for o in origins}
        link = _crossed_link(tiny_graph, trees)
        crossing = [o for o in origins if trees[o].links_crossed({link})]
        calls = _KernelCalls(monkeypatch)
        report = live.apply_events([("down", tuple(link))])
        # every repaired key now needs the one relevant-link set {link}
        assert sorted(report.repaired_keys) == [(o,) for o in crossing]
        assert calls.single == []
        assert calls.batches == [([(o,) for o in crossing], frozenset({link}))]
        # the re-sync was eager: the next batch computes nothing
        misses = live.stats().misses
        for origin in origins:
            tree = live.tree(origin)
            cold = compute_routes(
                tiny_graph, [origin], excluded_links=frozenset({link})
            )
            for asn in sorted(tiny_graph.ases):
                assert tree.path(asn) == cold.path(asn)
        assert live.stats().misses == misses
        assert calls.total == 1

    def test_concurrent_lookups_lose_no_update(self, tiny_graph):
        """Threads sharing one live route cache: every lookup is counted
        exactly once, the cap holds, and every answer is its own tree."""
        live = LiveRoutes(tiny_graph, cap=8)
        origins = sorted(tiny_graph.ases)[:24]
        rounds, workers = 40, 8
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(rounds):
                    origin = rng.choice(origins)
                    if live.tree(origin).path(origin) != (origin,):
                        errors.append(origin)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = live.stats()
        assert stats.hits + stats.misses == rounds * workers
        assert stats.trees <= 8
