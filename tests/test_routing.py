"""Unit and property tests for Gao-Rexford route computation.

The hand-built topologies pin down each preference rule; the property
tests check global invariants (valley-freeness, loop-freeness, next-hop
consistency) on randomly generated Internets.  Every case takes the
kernel as the ``compute_routes`` fixture: the shipped
:func:`~repro.asgraph.fastpath.compute_routes_fast` in the plain classes,
and the path-tuple reference in ``tests/oracle/routing.py`` in the
``*OnOracle`` subclasses of the hand-built ones, so those semantics are
stated once and both kernels must meet them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asgraph import (
    ASGraph,
    Relationship,
    RouteKind,
    TopologyConfig,
    compute_routes_fast,
    generate_topology,
)
from repro.asgraph.relationships import is_valley_free
from repro.asgraph.routing import as_path
from tests.oracle import routing as oracle


@pytest.fixture(scope="module")
def compute_routes():
    """The kernel under test (module scope, so hypothesis tests can use it)."""
    return compute_routes_fast


class OnOracle:
    """Mixin: rerun a test class on the reference kernel."""

    @pytest.fixture(scope="class")
    def compute_routes(self):
        return oracle.compute_routes


def diamond() -> ASGraph:
    """1 and 2 are tier-1 peers; 3 customer of both; 4 customer of 3."""
    g = ASGraph()
    g.add_peer_link(1, 2)
    g.add_provider_link(customer=3, provider=1)
    g.add_provider_link(customer=3, provider=2)
    g.add_provider_link(customer=4, provider=3)
    return g


class TestPreferences:
    def test_customer_route_beats_shorter_peer_route(self, compute_routes):
        # 1 -peer- 2; 2 is also reachable via customer chain 1<-3<-2? No:
        # build: dest 5 is customer of 2; 1 peers with 2 AND has customer 3
        # whose customer is 5 too (longer customer path).
        g = ASGraph()
        g.add_peer_link(1, 2)
        g.add_provider_link(customer=5, provider=2)
        g.add_provider_link(customer=3, provider=1)
        g.add_provider_link(customer=4, provider=3)
        g.add_provider_link(customer=5, provider=4)
        out = compute_routes(g, [5])
        route = out.route(1)
        # customer route 1->3->4->5 (len 4) preferred over peer 1->2->5 (len 3)
        assert route.kind is RouteKind.CUSTOMER
        assert route.path == (1, 3, 4, 5)

    def test_peer_beats_provider(self, compute_routes):
        g = ASGraph()
        g.add_peer_link(2, 3)
        g.add_provider_link(customer=2, provider=1)
        g.add_provider_link(customer=3, provider=1)
        g.add_provider_link(customer=9, provider=3)
        out = compute_routes(g, [9])
        # AS2 can reach 9 via peer 3 (kind PEER) or provider 1 (PROVIDER)
        route = out.route(2)
        assert route.kind is RouteKind.PEER
        assert route.path == (2, 3, 9)

    def test_shortest_within_same_kind(self, compute_routes):
        g = ASGraph()
        g.add_provider_link(customer=10, provider=2)
        g.add_provider_link(customer=10, provider=3)
        g.add_provider_link(customer=3, provider=4)
        g.add_provider_link(customer=2, provider=1)
        g.add_provider_link(customer=4, provider=1)
        out = compute_routes(g, [10])
        # AS1 has customer routes via 2 (1,2,10) and via 4 (1,4,3,10)
        assert out.path(1) == (1, 2, 10)

    def test_lowest_next_hop_tiebreak(self, compute_routes):
        g = ASGraph()
        g.add_provider_link(customer=10, provider=5)
        g.add_provider_link(customer=10, provider=3)
        g.add_provider_link(customer=5, provider=1)
        g.add_provider_link(customer=3, provider=1)
        out = compute_routes(g, [10])
        # both candidates have length 3; next hops 3 < 5
        assert out.path(1) == (1, 3, 10)

    def test_origin_route_wins(self, compute_routes):
        g = diamond()
        out = compute_routes(g, [3])
        assert out.route(3).kind is RouteKind.ORIGIN
        assert out.path(3) == (3,)

    def test_unreachable_when_disconnected(self, compute_routes):
        g = diamond()
        g.add_as(99)
        out = compute_routes(g, [3])
        assert out.path(99) is None
        assert 99 not in out.reachable_ases()


class TestValleyFreeExport:
    def test_peer_route_not_given_to_other_peer(self, compute_routes):
        # 1 -peer- 2 -peer- 3, dest customer of 3: AS1 must NOT reach dest
        # through two peering hops.
        g = ASGraph()
        g.add_peer_link(1, 2)
        g.add_peer_link(2, 3)
        g.add_provider_link(customer=9, provider=3)
        out = compute_routes(g, [9])
        assert out.path(1) is None

    def test_provider_route_reaches_customers_only(self, compute_routes):
        # dest hangs off tier-1 1; 2 is customer of 1; 3 is peer of 2:
        # 3 must not learn the provider route from 2.
        g = ASGraph()
        g.add_provider_link(customer=9, provider=1)
        g.add_provider_link(customer=2, provider=1)
        g.add_peer_link(2, 3)
        out = compute_routes(g, [9])
        assert out.path(2) == (2, 1, 9)
        assert out.path(3) is None


class TestMultiOrigin:
    def test_capture_set_partition(self, compute_routes):
        g = diamond()
        out = compute_routes(g, [1, 2])
        cap1 = out.capture_set(1)
        cap2 = out.capture_set(2)
        assert cap1 | cap2 == g.ases
        assert not cap1 & cap2
        assert 1 in cap1 and 2 in cap2

    def test_forged_origin_path_rejected_by_victim(self, compute_routes):
        # attacker 4 announces path (4, 3): 3 must reject it (loop).
        g = diamond()
        out = compute_routes(g, {3: (3,), 4: (4, 3)})
        assert out.route(3).kind is RouteKind.ORIGIN
        # and 4's own announcement keeps origin 3 in the path it spreads
        for asn, route in out.items():
            if asn != 3 and route.path[-1] == 3 and 4 in route.path:
                assert route.path[-2:] == (4, 3)

    def test_origin_scope_restricts_first_hop(self, compute_routes):
        g = ASGraph()
        g.add_provider_link(customer=10, provider=2)
        g.add_provider_link(customer=10, provider=3)
        g.add_provider_link(customer=2, provider=1)
        g.add_provider_link(customer=3, provider=1)
        out = compute_routes(g, [10], origin_export_scopes={10: frozenset({3})})
        assert out.path(2) == (2, 1, 3, 10)
        assert out.path(1) == (1, 3, 10)

    def test_scope_for_non_origin_rejected(self, compute_routes):
        g = diamond()
        with pytest.raises(ValueError):
            compute_routes(g, [3], origin_export_scopes={4: frozenset({3})})

    def test_crafted_path_must_start_with_origin(self, compute_routes):
        g = diamond()
        with pytest.raises(ValueError):
            compute_routes(g, {4: (3, 4)})
        with pytest.raises(ValueError):
            compute_routes(g, {4: (4, 4)})
        with pytest.raises(ValueError):
            compute_routes(g, [])


class TestExcludedLinks:
    def test_failure_forces_detour(self, compute_routes):
        g = diamond()
        out = compute_routes(g, [1])
        assert out.path(4) == (4, 3, 1)
        out2 = compute_routes(g, [1], excluded_links=[frozenset({3, 1})])
        assert out2.path(4) == (4, 3, 2, 1)

    def test_full_cut_means_unreachable(self, compute_routes):
        g = diamond()
        out = compute_routes(
            g, [1], excluded_links=[frozenset({3, 1}), frozenset({1, 2})]
        )
        assert out.path(4) is None
        assert out.path(3) is None


class TestGlobalInvariants:
    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=79),
    )
    def test_paths_are_valley_free_and_loop_free(self, compute_routes, seed, dest):
        g = generate_topology(
            TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=seed)
        )
        out = compute_routes(g, [dest])
        for asn, route in out.items():
            path = route.path
            assert len(set(path)) == len(path), f"loop in {path}"
            rels = [g.relationship(a, b) for a, b in zip(path, path[1:])]
            assert all(r is not None for r in rels), f"non-link hop in {path}"
            assert is_valley_free(rels), f"valley in {path}"

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_next_hop_consistency(self, compute_routes, seed):
        """If A routes via B, then A's path equals (A,) + B's path — BGP's
        per-hop forwarding consistency for a single stable outcome."""
        g = generate_topology(
            TopologyConfig(num_ases=60, num_tier1=3, num_tier2=12, seed=seed)
        )
        dest = 30
        out = compute_routes(g, [dest])
        for asn, route in out.items():
            if route.next_hop is not None:
                assert route.path[1:] == out.route(route.next_hop).path

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_everyone_reaches_dest_in_connected_graph(self, compute_routes, seed):
        g = generate_topology(
            TopologyConfig(num_ases=60, num_tier1=3, num_tier2=12, seed=seed)
        )
        out = compute_routes(g, [17])
        assert out.reachable_ases() == g.ases

    def test_as_path_helper(self, tiny_graph):
        path = as_path(tiny_graph, 59, 10)
        assert path is not None
        assert path[0] == 59 and path[-1] == 10


class TestEarlyExit:
    """The targets= early exit must never change what a target's route is,
    only skip work for non-targets."""

    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=59),
        st.integers(min_value=0, max_value=59),
    )
    def test_as_path_equals_full_computation(self, compute_routes, seed, src, dst):
        """Regression: as_path must pass targets={src} (not route the whole
        topology) AND the targeted answer must match the untargeted one."""
        g = generate_topology(
            TopologyConfig(num_ases=60, num_tier1=3, num_tier2=12, seed=seed)
        )
        assert as_path(g, src, dst) == compute_routes(g, [dst]).path(src)

    def test_targeted_stops_before_later_stages(self, compute_routes):
        """A target routed in stage 1 skips stages 2 and 3 entirely: ASes
        only reachable via peer/provider routes stay unrouted."""
        g = ASGraph()
        g.add_provider_link(customer=9, provider=1)  # stage 1 serves AS1
        g.add_peer_link(1, 2)                        # stage 2 would serve AS2
        g.add_provider_link(customer=3, provider=1)  # stage 3 would serve AS3
        out = compute_routes(g, [9], targets=frozenset({1}))
        assert out.path(1) == (1, 9)
        assert out.path(2) is None
        assert out.path(3) is None

    def test_targeted_peer_route_is_exact(self, compute_routes):
        g = ASGraph()
        g.add_peer_link(1, 2)
        g.add_provider_link(customer=9, provider=2)
        full = compute_routes(g, [9])
        targeted = compute_routes(g, [9], targets=frozenset({1}))
        assert targeted.path(1) == full.path(1) == (1, 2, 9)

    def test_stage_timings_accumulate(self, compute_routes):
        g = diamond()
        timings = {}
        compute_routes(g, [4], stage_timings=timings)
        assert set(timings) == {"customer", "peer", "provider"}
        before = dict(timings)
        compute_routes(g, [4], stage_timings=timings)
        assert all(timings[k] >= before[k] for k in before)


class TestPreferencesOnOracle(OnOracle, TestPreferences):
    pass


class TestValleyFreeExportOnOracle(OnOracle, TestValleyFreeExport):
    pass


class TestMultiOriginOnOracle(OnOracle, TestMultiOrigin):
    pass


class TestExcludedLinksOnOracle(OnOracle, TestExcludedLinks):
    pass


class TestEarlyExitOnOracle(OnOracle, TestEarlyExit):
    # Hand-built cases only: the oracle's agreement with the shipped kernel
    # on random graphs is the property in tests/test_fastpath.py.
    test_as_path_equals_full_computation = None
