"""Equivalence and regression tests for the flat-array routing kernel.

The fast kernel must be invisible: outcome-for-outcome identical to the
path-tuple reference kernel (``tests/oracle/routing.py``, here
``compute_routes``) for every combination of origins, forged announced paths,
excluded links, export scopes and early-exit targets.  The property test
sweeps randomly generated Internets through randomly drawn query shapes;
the unit tests pin the lazy :class:`CompactOutcome` materialisation, the
tiebreak order, and the :class:`GraphIndex` compilation cache.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asgraph import (
    ASGraph,
    CompactOutcome,
    RouteKind,
    TopologyConfig,
    compute_routes_fast,
    generate_topology,
)
from repro.asgraph.index import GraphIndex, graph_index
from tests.oracle.routing import compute_routes


def diamond() -> ASGraph:
    g = ASGraph()
    g.add_peer_link(1, 2)
    g.add_provider_link(customer=3, provider=1)
    g.add_provider_link(customer=3, provider=2)
    g.add_provider_link(customer=4, provider=3)
    return g


def assert_outcomes_equal(reference, fast, origins=()):
    """Every piece of the RoutingOutcome API must agree between kernels."""
    assert dict(reference.items()) == dict(fast.items())
    assert reference.origins == fast.origins
    assert reference.reachable_ases() == fast.reachable_ases()
    assert len(reference) == len(fast)
    for origin in origins:
        assert reference.capture_set(origin) == fast.capture_set(origin)
        assert reference.capture_set_via(origin) == fast.capture_set_via(origin)


class TestEquivalenceProperty:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
    def test_random_queries_match_legacy(self, seed, rng):
        """Random topologies x random origins / forged paths / excluded
        links / export scopes / targets: fast == reference, outcome for
        outcome."""
        g = generate_topology(
            TopologyConfig(num_ases=90, num_tier1=3, num_tier2=15, seed=seed)
        )
        ases = sorted(g.ases)

        origins = {}
        for asn in rng.sample(ases, rng.randint(1, 3)):
            if rng.random() < 0.3:
                # Forged announcement: prepend self to a fake tail.
                tail = [a for a in rng.sample(ases, rng.randint(1, 3)) if a != asn]
                origins[asn] = tuple([asn] + tail)
            else:
                origins[asn] = (asn,)

        excluded = None
        if rng.random() < 0.5:
            links = [frozenset((a, b)) for a, b, _ in g.links()]
            excluded = rng.sample(links, min(len(links), rng.randint(1, 6)))

        scopes = None
        if rng.random() < 0.4:
            scoped = rng.choice(sorted(origins))
            nbrs = sorted(g.neighbours(scoped))
            if nbrs:
                scopes = {
                    scoped: frozenset(rng.sample(nbrs, rng.randint(1, len(nbrs))))
                }

        targets = None
        if rng.random() < 0.5:
            targets = frozenset(rng.sample(ases, rng.randint(1, 5)))

        kwargs = dict(
            excluded_links=excluded,
            origin_export_scopes=scopes,
            targets=targets,
        )
        reference = compute_routes(g, origins, **kwargs)
        fast = compute_routes_fast(g, origins, **kwargs)
        assert_outcomes_equal(reference, fast, origins=origins)
        for asn in ases:
            assert reference.path(asn) == fast.path(asn)

    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=89),
        st.integers(min_value=0, max_value=89),
    )
    def test_targeted_queries_are_exact(self, seed, src, dst):
        """The fast kernel's early exit must still finalise targets exactly."""
        g = generate_topology(
            TopologyConfig(num_ases=90, num_tier1=3, num_tier2=15, seed=seed)
        )
        full = compute_routes_fast(g, [dst])
        targeted = compute_routes_fast(g, [dst], targets=frozenset((src,)))
        assert targeted.path(src) == full.path(src)
        assert full.path(src) == compute_routes(g, [dst]).path(src)


class TestEquivalenceEdgeCases:
    def test_forged_origin_loop_prevention(self):
        """The victim (and any AS on the forged tail) rejects the forged
        announcement, exactly as in the reference kernel."""
        g = diamond()
        origins = {3: (3,), 4: (4, 3)}
        reference = compute_routes(g, origins)
        fast = compute_routes_fast(g, origins)
        assert_outcomes_equal(reference, fast, origins=[3, 4])
        assert fast.route(3).kind is RouteKind.ORIGIN
        assert fast.capture_set_via(4) == reference.capture_set_via(4)

    def test_forged_tail_outside_topology(self):
        g = diamond()
        origins = {4: (4, 999)}  # forged origin AS999 does not exist
        reference = compute_routes(g, origins)
        fast = compute_routes_fast(g, origins)
        assert_outcomes_equal(reference, fast, origins=[4])
        assert fast.capture_set(999) == reference.capture_set(999)

    def test_unknown_target_disables_early_exit(self):
        """A target outside the topology can never be routed, so both
        kernels fall back to the full computation."""
        g = diamond()
        reference = compute_routes(g, [1], targets=frozenset({4, 999}))
        fast = compute_routes_fast(g, [1], targets=frozenset({4, 999}))
        assert_outcomes_equal(reference, fast)
        assert fast.reachable_ases() == g.ases

    def test_excluded_link_detour(self):
        g = diamond()
        out = compute_routes_fast(g, [1], excluded_links=[frozenset({3, 1})])
        assert out.path(4) == (4, 3, 2, 1)

    def test_origin_scope_restricts_first_hop(self):
        g = ASGraph()
        g.add_provider_link(customer=10, provider=2)
        g.add_provider_link(customer=10, provider=3)
        g.add_provider_link(customer=2, provider=1)
        g.add_provider_link(customer=3, provider=1)
        out = compute_routes_fast(g, [10], origin_export_scopes={10: frozenset({3})})
        assert out.path(2) == (2, 1, 3, 10)
        assert out.path(1) == (1, 3, 10)

    def test_input_validation_matches_legacy(self):
        g = diamond()
        with pytest.raises(ValueError):
            compute_routes_fast(g, [])
        with pytest.raises(ValueError):
            compute_routes_fast(g, [999])
        with pytest.raises(ValueError):
            compute_routes_fast(g, {4: (3, 4)})
        with pytest.raises(ValueError):
            compute_routes_fast(g, [3], origin_export_scopes={4: frozenset({3})})

    def test_stage_timings_stamped_like_legacy(self):
        g = diamond()
        timings = {}
        compute_routes_fast(g, [4], stage_timings=timings)
        assert set(timings) == {"customer", "peer", "provider"}
        before = dict(timings)
        compute_routes_fast(g, [4], stage_timings=timings)
        assert all(timings[k] >= before[k] for k in before)


class TestTiebreak:
    def test_lowest_next_hop_among_equal_lengths(self):
        g = ASGraph()
        g.add_provider_link(customer=10, provider=5)
        g.add_provider_link(customer=10, provider=3)
        g.add_provider_link(customer=5, provider=1)
        g.add_provider_link(customer=3, provider=1)
        out = compute_routes_fast(g, [10])
        # both candidates have length 3; next hops 3 < 5
        assert out.path(1) == (1, 3, 10)

    def test_shorter_path_beats_lower_next_hop(self):
        g = ASGraph()
        g.add_provider_link(customer=10, provider=9)
        g.add_provider_link(customer=9, provider=1)  # (1, 9, 10): len 3
        g.add_provider_link(customer=10, provider=2)
        g.add_provider_link(customer=2, provider=3)
        g.add_provider_link(customer=3, provider=1)  # (1, 3, 2, 10): len 4
        out = compute_routes_fast(g, [10])
        assert out.path(1) == (1, 9, 10)

    def test_peer_stage_tiebreak(self):
        g = ASGraph()
        g.add_provider_link(customer=9, provider=7)
        g.add_provider_link(customer=9, provider=5)
        g.add_peer_link(7, 2)
        g.add_peer_link(5, 2)
        out = compute_routes_fast(g, [9])
        reference = compute_routes(g, [9])
        # AS2 hears (2,7,9) and (2,5,9): lowest next hop 5 wins.
        assert out.path(2) == reference.path(2) == (2, 5, 9)


class TestCompactOutcome:
    def test_paths_materialise_lazily_and_memoise(self, tiny_graph):
        out = compute_routes_fast(tiny_graph, [10])
        assert isinstance(out, CompactOutcome)
        assert out._paths == {}  # nothing materialised yet
        p = out.path(59)
        assert p is not None and p[0] == 59 and p[-1] == 10
        assert out.path(59) is out.path(59)  # memoised tuple
        # Materialising one path fills in its predecessor chain only.
        assert len(out._paths) <= len(p) + 1
        assert len(out._paths) < len(out)

    def test_route_objects_match_legacy(self, tiny_graph):
        reference = compute_routes(tiny_graph, [10, 20])
        fast = compute_routes_fast(tiny_graph, [10, 20])
        for asn, route in reference.items():
            got = fast.route(asn)
            assert got == route
            assert got.kind is route.kind
            assert got.origin == route.origin
            assert got.next_hop == route.next_hop

    def test_capture_sets_without_materialisation(self, tiny_graph):
        fast = compute_routes_fast(tiny_graph, [10, 20])
        reference = compute_routes(tiny_graph, [10, 20])
        assert fast.capture_set(10) == reference.capture_set(10)
        assert fast.capture_set(20) == reference.capture_set(20)
        # Capture sets resolve from seed ids/parent pointers, not paths.
        assert fast._paths == {}

    def test_ases_on_path_and_missing_as(self, tiny_graph):
        fast = compute_routes_fast(tiny_graph, [10])
        reference = compute_routes(tiny_graph, [10])
        assert fast.ases_on_path(59) == reference.ases_on_path(59)
        assert fast.path(424242) is None
        assert fast.route(424242) is None
        assert fast.ases_on_path(424242) == frozenset()

    def test_rebind_index_requires_same_ases(self, tiny_graph):
        out = compute_routes_fast(tiny_graph, [10])
        out.rebind_index(graph_index(tiny_graph))  # same snapshot: fine
        with pytest.raises(ValueError):
            out.rebind_index(graph_index(diamond()))


class TestGraphIndex:
    def test_dense_order_is_asn_order(self, tiny_graph):
        gi = graph_index(tiny_graph)
        assert gi.asns == sorted(tiny_graph.ases)
        assert all(gi.idx[asn] == i for i, asn in enumerate(gi.asns))

    def test_csr_rows_match_neighbour_sets(self, tiny_graph):
        gi = graph_index(tiny_graph)
        for asn in tiny_graph.ases:
            i = gi.idx[asn]
            row = {gi.asns[j] for j in gi.prov_adj[gi.prov_start[i]:gi.prov_start[i + 1]]}
            assert row == tiny_graph.providers(asn)
            row = {gi.asns[j] for j in gi.cust_adj[gi.cust_start[i]:gi.cust_start[i + 1]]}
            assert row == tiny_graph.customers(asn)
            row = {gi.asns[j] for j in gi.peer_adj[gi.peer_start[i]:gi.peer_start[i + 1]]}
            assert row == tiny_graph.peers(asn)

    def test_cached_per_graph_until_mutation(self):
        g = diamond()
        first = graph_index(g)
        assert graph_index(g) is first
        g.add_provider_link(customer=5, provider=4)
        second = graph_index(g)
        assert second is not first
        assert 5 in second.idx and 5 not in first.idx

    def test_remove_link_invalidates(self):
        g = diamond()
        first = graph_index(g)
        g.remove_link(4, 3)
        assert graph_index(g) is not first

    def test_copy_gets_its_own_index(self):
        g = diamond()
        gi = graph_index(g)
        clone = g.copy()
        assert graph_index(clone) is not gi
        assert graph_index(clone).asns == gi.asns

    def test_pickle_roundtrip(self):
        import pickle

        g = diamond()
        gi = graph_index(g)
        clone = pickle.loads(pickle.dumps(gi))
        assert isinstance(clone, GraphIndex)
        assert clone.asns == gi.asns
        assert clone.prov_adj == gi.prov_adj

    def test_outcome_pickle_roundtrip(self):
        import pickle

        g = diamond()
        out = compute_routes_fast(g, [1])
        clone = pickle.loads(pickle.dumps(out))
        assert dict(clone.items()) == dict(out.items())


class TestLegacyEarlyExitFixes:
    """The satellite fixes to the reference kernel keep target routes exact."""

    def test_stage2_targets_first_skips_frontier(self):
        """When the remaining targets are all served by the peer stage, the
        rest of the peer frontier is skipped (those ASes stay unrouted)."""
        g = ASGraph()
        g.add_provider_link(customer=9, provider=1)
        g.add_peer_link(1, 2)  # target 2 served by the peer stage
        g.add_peer_link(1, 7)  # 7 would be served too -- skipped
        for kernel in (compute_routes, compute_routes_fast):
            out = kernel(g, [9], targets=frozenset({2}))
            assert out.path(2) == (2, 1, 9)
            assert out.path(7) is None

    def test_stage2_frontier_still_built_when_targets_remain(self):
        """A target only reachable in stage 3 still sees peer routes as
        stage-3 sources: skipping the frontier must not corrupt its path."""
        g = ASGraph()
        g.add_provider_link(customer=9, provider=1)
        g.add_peer_link(1, 2)
        g.add_provider_link(customer=3, provider=2)  # 3 needs 2's peer route
        for kernel in (compute_routes, compute_routes_fast):
            full = kernel(g, [9])
            targeted = kernel(g, [9], targets=frozenset({3}))
            assert targeted.path(3) == full.path(3) == (3, 2, 1, 9)

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=89),
        st.integers(min_value=0, max_value=89),
    )
    def test_targeted_legacy_answers_unchanged(self, seed, src, dst):
        g = generate_topology(
            TopologyConfig(num_ases=90, num_tier1=3, num_tier2=15, seed=seed)
        )
        full = compute_routes(g, [dst])
        targeted = compute_routes(g, [dst], targets=frozenset((src,)))
        assert targeted.path(src) == full.path(src)

    def test_multi_target_sweep(self):
        rng = random.Random(11)
        g = generate_topology(
            TopologyConfig(num_ases=90, num_tier1=3, num_tier2=15, seed=11)
        )
        ases = sorted(g.ases)
        dst = rng.choice(ases)
        targets = frozenset(rng.sample(ases, 8))
        full = compute_routes(g, [dst])
        for kernel in (compute_routes, compute_routes_fast):
            targeted = kernel(g, [dst], targets=targets)
            for t in targets:
                assert targeted.path(t) == full.path(t)
