"""Tests for prefix hijack / interception / stealth attacks (§3.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asgraph import ASGraph, TopologyConfig, compute_routes_fast, generate_topology
from repro.bgpsim.attacks import (
    AttackKind,
    simulate_community_scoped_hijack,
    simulate_hijack,
    simulate_interception,
)


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(num_ases=120, num_tier1=4, num_tier2=25, seed=9))


class TestSamePrefixHijack:
    def test_capture_set_contains_attacker_not_victim(self, graph):
        result = simulate_hijack(graph, victim=100, attacker=50)
        assert result.captures(50)
        assert not result.captures(100)
        assert 0 < result.capture_fraction < 1

    def test_capture_partition(self, graph):
        result = simulate_hijack(graph, victim=100, attacker=50)
        outcome = compute_routes_fast(graph, [100, 50])
        assert result.capture_set | outcome.capture_set(100) == graph.ases

    def test_stub_attackers_are_surprisingly_effective(self, graph):
        """Counterintuitive but correct under Gao-Rexford preferences: a
        stub attacker's announcement climbs its provider chain as a
        *customer* route, which every AS prefers over peer/provider routes
        regardless of length — so stubs often out-capture tier-1 attackers
        (the Goldberg et al. 'How secure are secure interdomain routing
        protocols' observation).  Both must capture something, though."""
        stub = max(graph.stub_ases())
        stub_wins = tier1_wins = 0
        for victim in sorted(graph.stub_ases())[:20]:
            if victim in (0, stub):
                continue
            tier1_frac = simulate_hijack(graph, victim, 0).capture_fraction
            stub_frac = simulate_hijack(graph, victim, stub).capture_fraction
            assert tier1_frac > 0 and stub_frac > 0
            if stub_frac > tier1_frac:
                stub_wins += 1
            elif tier1_frac > stub_frac:
                tier1_wins += 1
        assert stub_wins >= tier1_wins

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            simulate_hijack(graph, victim=100, attacker=100)
        with pytest.raises(ValueError):
            simulate_hijack(graph, victim=10**9, attacker=100)


class TestMoreSpecificHijack:
    def test_captures_everyone(self, graph):
        result = simulate_hijack(graph, 100, 50, AttackKind.MORE_SPECIFIC)
        assert result.capture_fraction == 1.0
        assert result.captures(100)  # even the victim follows the /25

    def test_dominates_same_prefix(self, graph):
        same = simulate_hijack(graph, 100, 50, AttackKind.SAME_PREFIX)
        more = simulate_hijack(graph, 100, 50, AttackKind.MORE_SPECIFIC)
        assert same.capture_set <= more.capture_set


class TestInterception:
    def test_forwarding_path_never_captured(self, graph):
        feasible = 0
        for attacker in [0, 20, 50, 80]:
            result = simulate_interception(graph, victim=100, attacker=attacker)
            if not result.interception_feasible:
                continue
            feasible += 1
            assert result.forwarding_path is not None
            assert result.forwarding_path[0] == attacker
            assert result.forwarding_path[-1] == 100
            for asn in result.forwarding_path[1:]:
                assert asn not in result.capture_set, (
                    f"on-path AS{asn} captured: forwarded traffic would loop"
                )
        assert feasible > 0

    def test_capture_at_most_same_prefix(self, graph):
        """Scoping the announcement can only shrink the blast radius."""
        same = simulate_hijack(graph, 100, 50, AttackKind.SAME_PREFIX)
        inter = simulate_interception(graph, 100, 50)
        if inter.interception_feasible:
            assert inter.capture_set <= same.capture_set | {50}

    def test_dispatch_through_simulate_hijack(self, graph):
        a = simulate_hijack(graph, 100, 50, AttackKind.INTERCEPTION)
        b = simulate_interception(graph, 100, 50)
        assert a.capture_set == b.capture_set
        assert a.interception_feasible == b.interception_feasible

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=119), st.integers(min_value=0, max_value=119))
    def test_invariants_hold_for_random_pairs(self, victim, attacker):
        g = generate_topology(TopologyConfig(num_ases=120, num_tier1=4, num_tier2=25, seed=9))
        if victim == attacker:
            return
        result = simulate_interception(g, victim, attacker)
        if result.interception_feasible:
            assert result.forwarding_path is not None
            assert not set(result.forwarding_path[1:]) & result.capture_set
            assert result.announcement_scope
            assert result.announcement_scope <= g.neighbours(attacker)


class TestCommunityScopedHijack:
    def test_capture_limited_to_neighbours(self, graph):
        result = simulate_community_scoped_hijack(graph, victim=100, attacker=50)
        assert result.capture_set <= graph.neighbours(50) | {50}

    def test_stealthier_than_global_hijack(self, graph):
        scoped = simulate_community_scoped_hijack(graph, 100, 50)
        global_ = simulate_hijack(graph, 100, 50, AttackKind.SAME_PREFIX)
        assert len(scoped.capture_set) <= len(global_.capture_set)

    def test_long_path_neighbours_preferentially_captured(self, graph):
        """§5: stealth attacks win only where legitimate paths are long."""
        baseline = compute_routes_fast(graph, [100])
        result = simulate_community_scoped_hijack(graph, 100, 50)
        captured = [
            n for n in graph.neighbours(50) if n in result.capture_set
        ]
        safe = [n for n in graph.neighbours(50) if n not in result.capture_set]
        if captured and safe:
            avg = lambda asns: sum(len(baseline.path(a) or ()) for a in asns) / len(asns)
            assert avg(captured) >= avg(safe)

    def test_interception_always_feasible(self, graph):
        # scoped announcements never poison the attacker's own route
        result = simulate_community_scoped_hijack(graph, 100, 50)
        assert result.interception_feasible
