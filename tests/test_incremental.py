"""Tests for the incremental routing session (repro.asgraph.incremental).

The load-bearing property: after ANY sequence of exclude/restore events, a
:class:`DynamicRoutingSession` holds exactly the state a fresh
:func:`compute_routes_fast` would produce for the same exclusion set —
paths, kinds, and tiebreaks.  Hypothesis drives random event schedules over
generated topologies; hand-built graphs pin the adversarial repair cases
(the improve-detach cascade, where a detached node's route *shortens* while
degrading rank and steals an intact provider-kind subtree, including the
equal-length lower-index tiebreak variant); further tests cover the undo
fast path, forged-tail/export-scope sessions (also diffed against the
full-recompute reference session in ``tests/oracle/routing.py``),
graph-mutation recovery, the engine session API, and the trace layer's
route-cache bound and link reverse index.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.analysis.prefixes import Prefix
from repro.asgraph import (
    ASGraph,
    DynamicRoutingSession,
    RouteKind,
    RoutingEngine,
    TopologyConfig,
    compute_routes_fast,
    generate_topology,
)
from repro.bgpsim.trace import TraceConfig, TraceEngine
from repro.obs import Recorder
from tests.oracle.routing import RecomputeSession


def assert_matches_fresh(session):
    """Session state must equal a fresh kernel run on its exclusion set."""
    fresh = compute_routes_fast(
        session.graph,
        session._seeds,
        excluded_links=session.excluded_links,
        origin_export_scopes=session._scopes or None,
    )
    for asn in session.graph.ases:
        assert session.path(asn) == fresh.path(asn), (
            f"AS{asn} under {sorted(map(sorted, session.excluded_links))}"
        )
        got = session.route(asn)
        want = fresh.route(asn)
        if want is None:
            assert got is None
        else:
            assert got is not None and (got.path, got.kind) == (want.path, want.kind)
    assert len(session) == len(fresh)


def improve_detach_graph(peer_of: int) -> ASGraph:
    """The adversarial repair topology (see module docstring).

    AS5 holds a long customer route up the 1-11-12-13 chain and a short
    provider route via AS2 (a peer of ``peer_of``).  AS20 initially routes
    via AS9; killing link (13, 5) shortens AS5's route while degrading it
    to provider kind, and the repaired label must steal AS20 (and its
    customer AS30) from AS9 — across the intact part of the forest.
    """
    g = ASGraph()
    g.add_provider_link(customer=1, provider=11)
    g.add_provider_link(customer=11, provider=12)
    g.add_provider_link(customer=12, provider=13)
    g.add_provider_link(customer=13, provider=5)
    g.add_peer_link(peer_of, 2)
    g.add_provider_link(customer=5, provider=2)
    g.add_provider_link(customer=9, provider=12)
    g.add_provider_link(customer=20, provider=5)
    g.add_provider_link(customer=20, provider=9)
    g.add_provider_link(customer=30, provider=20)
    return g


class TestSubtreeRepair:
    def test_improve_detach_steals_intact_subtree(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        assert sess.path(5) == (5, 13, 12, 11, 1)
        assert sess.route(5).kind is RouteKind.CUSTOMER
        assert sess.path(20) == (20, 9, 12, 11, 1)
        assert sess.path(30) == (30, 20, 9, 12, 11, 1)

        assert sess.exclude_link((13, 5))
        # AS5's route shortened (5 -> 3) while degrading to provider kind;
        # the repaired offer must displace AS20's intact provider route and
        # drag AS30 along.
        assert sess.path(5) == (5, 2, 1)
        assert sess.route(5).kind is RouteKind.PROVIDER
        assert sess.path(20) == (20, 5, 2, 1)
        assert sess.path(30) == (30, 20, 5, 2, 1)
        assert sess.stats.subtree_repairs == 1
        assert sess.stats.full_rebuilds == 0
        assert_matches_fresh(sess)

    def test_improve_detach_on_equal_length_tiebreak(self):
        # Peering AS2 at AS11 lengthens AS5's repaired route by one: its
        # offer to AS20 now TIES AS9's, and must win on the lower index.
        g = improve_detach_graph(peer_of=11)
        sess = DynamicRoutingSession(g, [1])
        assert sess.path(20) == (20, 9, 12, 11, 1)
        assert sess.exclude_link((13, 5))
        assert sess.path(5) == (5, 2, 11, 1)
        assert sess.path(20) == (20, 5, 2, 11, 1)
        assert sess.path(30) == (30, 20, 5, 2, 11, 1)
        assert sess.stats.full_rebuilds == 0
        assert_matches_fresh(sess)

    def test_exhaustive_single_and_paired_exclusions(self):
        for peer_of in (1, 11):
            g = improve_detach_graph(peer_of)
            links = [frozenset((a, b)) for a, b, _rel in g.links()]
            for first in links:
                for second in links:
                    sess = DynamicRoutingSession(g, [1])
                    sess.exclude_link(first)
                    assert_matches_fresh(sess)
                    sess.exclude_link(second)
                    assert_matches_fresh(sess)
                    sess.restore_link(first)
                    assert_matches_fresh(sess)

    def test_non_parent_edge_exclusion_is_noop(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        # AS20 routes via AS9, so (20, 5) is a never-chosen candidate.
        assert sess.exclude_link((20, 5))
        assert sess.stats.noops == 1
        assert sess.stats.subtree_repairs == 0
        assert_matches_fresh(sess)

    def test_unknown_endpoint_exclusion_is_noop(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        before = sess.path(30)
        assert sess.exclude_link((999, 1000))
        assert sess.stats.noops == 1
        assert sess.path(30) == before
        assert_matches_fresh(sess)

    def test_duplicate_and_missing_events_return_false(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        assert sess.exclude_link((13, 5))
        assert not sess.exclude_link((5, 13))  # same frozenset link
        assert not sess.restore_link((1, 11))  # never excluded
        assert sess.restore_link((13, 5))
        assert not sess.restore_link((13, 5))
        assert_matches_fresh(sess)


class TestUndoLog:
    def test_flap_back_replays_undo(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        assert sess.exclude_link((13, 5))
        assert sess.restore_link((13, 5))
        assert sess.stats.undo_restores == 1
        assert sess.stats.full_rebuilds == 0
        assert sess.path(5) == (5, 13, 12, 11, 1)
        assert sess.path(20) == (20, 9, 12, 11, 1)
        assert_matches_fresh(sess)

    def test_intervening_event_invalidates_undo(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        sess.exclude_link((13, 5))
        sess.exclude_link((12, 13))  # moves the exclusion set past the log
        sess.restore_link((13, 5))
        assert sess.stats.undo_restores == 0
        assert_matches_fresh(sess)
        sess.restore_link((12, 13))
        assert_matches_fresh(sess)


class TestEquivalenceProperty:
    @settings(deadline=None, max_examples=40)
    @given(
        topo_seed=st.integers(min_value=0, max_value=7),
        origin_index=st.integers(min_value=0, max_value=10 ** 6),
        events=st.lists(
            st.tuples(
                st.sampled_from(["exclude", "restore", "flap"]),
                st.integers(min_value=0, max_value=10 ** 6),
            ),
            min_size=1,
            max_size=14,
        ),
    )
    def test_random_event_sequences_match_fresh_compute(
        self, topo_seed, origin_index, events
    ):
        graph = generate_topology(
            TopologyConfig(num_ases=70, num_tier1=3, num_tier2=12, seed=topo_seed)
        )
        links = sorted(
            (frozenset((a, b)) for a, b, _rel in graph.links()),
            key=sorted,
        )
        asns = sorted(graph.ases)
        origin = asns[origin_index % len(asns)]
        sess = DynamicRoutingSession(graph, [origin])
        for op, pick in events:
            if op == "restore" and sess.excluded_links:
                link = sorted(sess.excluded_links, key=sorted)[
                    pick % len(sess.excluded_links)
                ]
                sess.restore_link(link)
            elif op == "flap":
                link = links[pick % len(links)]
                sess.exclude_link(link)
                sess.restore_link(link)
            else:
                sess.exclude_link(links[pick % len(links)])
            assert_matches_fresh(sess)

    @settings(deadline=None, max_examples=20)
    @given(
        topo_seed=st.integers(min_value=20, max_value=24),
        data=st.data(),
    )
    def test_multi_origin_tails_and_scopes(self, topo_seed, data):
        graph = generate_topology(
            TopologyConfig(num_ases=60, num_tier1=3, num_tier2=10, seed=topo_seed)
        )
        links = sorted(
            (frozenset((a, b)) for a, b, _rel in graph.links()),
            key=sorted,
        )
        asns = sorted(graph.ases)
        o1, o2, victim = asns[3], asns[17], asns[29]
        forged = data.draw(st.booleans())
        origins = {o1: (o1,), o2: (o2, victim) if forged else (o2,)}
        scope = frozenset(asns[::4])
        sess = DynamicRoutingSession(
            graph, origins, origin_export_scopes={o1: scope}
        )
        ref = RecomputeSession(
            graph, origins, origin_export_scopes={o1: scope}
        )
        for _ in range(6):
            if data.draw(st.booleans()) and sess.excluded_links:
                link = sorted(sess.excluded_links, key=sorted)[0]
                sess.restore_link(link)
                ref.restore_link(link)
            else:
                link = links[data.draw(st.integers(0, len(links) - 1))]
                sess.exclude_link(link)
                ref.exclude_link(link)
            assert_matches_fresh(sess)
            for asn in asns[::7]:
                assert sess.path(asn) == ref.path(asn)

    def test_forged_tail_sessions_always_rebuild(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, {5: (5, 1)})
        assert not sess._incremental_ok
        sess.exclude_link((13, 5))  # a parent edge of the plain session
        assert sess.stats.subtree_repairs == 0
        assert_matches_fresh(sess)


class TestSessionLifecycle:
    def test_set_excluded_diffs_to_target(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        assert sess.set_excluded([(13, 5), (20, 9)])
        assert sess.excluded_links == frozenset(
            {frozenset((13, 5)), frozenset((20, 9))}
        )
        assert_matches_fresh(sess)
        assert sess.set_excluded([(20, 9)])
        assert sess.excluded_links == frozenset({frozenset((20, 9))})
        assert_matches_fresh(sess)
        assert not sess.set_excluded([(20, 9)])

    def test_constructor_excluded_links(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1], excluded_links=[(13, 5)])
        assert sess.path(20) == (20, 5, 2, 1)
        assert_matches_fresh(sess)

    def test_outcome_snapshot_is_immutable_copy(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        snap = sess.outcome()
        before = snap.path(20)
        sess.exclude_link((13, 5))
        assert snap.path(20) == before  # snapshot unaffected by later events
        assert sess.outcome().path(20) == (20, 5, 2, 1)

    def test_graph_mutation_recovers_on_next_event(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        g.add_provider_link(customer=40, provider=2)
        sess.exclude_link((13, 5))
        assert sess.path(40) == (40, 2, 1)
        assert_matches_fresh(sess)

    def test_rejects_unknown_origin_and_bad_scope(self):
        g = improve_detach_graph(peer_of=1)
        with pytest.raises(ValueError):
            DynamicRoutingSession(g, [12345])
        with pytest.raises(ValueError):
            DynamicRoutingSession(g, [1], origin_export_scopes={2: frozenset({1})})

    def test_verify_raises_on_corrupted_state(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        sess.verify()
        sess._plen[sess._gi.idx[30]] = 0  # corrupt: drop AS30's route
        with pytest.raises(AssertionError):
            sess.verify()

    def test_release_drops_state_and_blocks_use(self):
        g = improve_detach_graph(peer_of=1)
        sess = DynamicRoutingSession(g, [1])
        sess.exclude_link((13, 5))  # populate the undo log
        assert sess._undo is not None
        sess.release()
        assert sess.released
        assert sess._undo is None
        assert sess._children == []
        assert sess._plen == [] and sess._parent == []
        sess.release()  # idempotent
        for poke in (
            lambda: sess.path(20),
            lambda: sess.outcome(),
            lambda: sess.exclude_link((20, 9)),
            lambda: sess.restore_link((13, 5)),
            lambda: sess.set_excluded([]),
        ):
            with pytest.raises(RuntimeError, match="released"):
                poke()

    def test_recompute_session_release(self):
        g = improve_detach_graph(peer_of=1)
        sess = RecomputeSession(g, [1])
        sess.path(20)  # populate the cached outcome
        assert sess._outcome is not None
        sess.release()
        assert sess.released
        assert sess._outcome is None
        sess.release()  # idempotent
        with pytest.raises(RuntimeError, match="released"):
            sess.path(20)
        with pytest.raises(RuntimeError, match="released"):
            sess.exclude_link((13, 5))


class TestEngineSessionAPI:
    def test_fast_kernel_returns_incremental_session(self):
        engine = RoutingEngine()
        g = improve_detach_graph(peer_of=1)
        sess = engine.session(g, [1])
        assert isinstance(sess, DynamicRoutingSession)
        assert engine.stats().sessions == 1
        assert "1 sessions" in engine.stats().format()

    def test_incremental_override_and_agreement(self):
        """Engine sessions track the full-recompute reference session."""
        engine = RoutingEngine()
        g = improve_detach_graph(peer_of=1)
        fast = engine.session(g, [1])
        slow = RecomputeSession(g, [1])
        for link in [(13, 5), (12, 13), (20, 9)]:
            fast.exclude_link(link)
            slow.exclude_link(link)
            for asn in g.ases:
                assert fast.path(asn) == slow.path(asn)
        assert engine.stats().sessions == 1


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

    def test_cache_cap_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(route_cache_cap=0)
