"""Soundness tests for the trace engine's relevance-filtered route cache.

The engine caches vantage paths keyed only on the *relevant* excluded
links (a fixpoint), not the full global exclusion state.  These tests pin
the correctness claim: the filtered result must equal a direct
Gao-Rexford computation by the reference kernel in
``tests/oracle/routing.py`` under the full exclusion set, for arbitrary
exclusion sets.  One more pins that this cache is the trace's only one:
a run stores nothing in the shared routing engine.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.prefixes import Prefix
from repro.asgraph import TopologyConfig, generate_topology
from repro.asgraph.engine import RoutingEngine, set_shared_engine, shared_engine
from repro.bgpsim.trace import TraceConfig, TraceEngine
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


class TestOneRouteCache:
    def test_run_leaves_the_shared_engine_untouched(self):
        """Route-cache misses run the kernel directly: a whole run adds no
        query, cached outcome or session to the shared engine, so the
        trace's own LRU is the only place its routes are held."""
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
        assert (after.queries, after.entries, after.sessions) == (
            before.queries,
            before.entries,
            before.sessions,
        )
