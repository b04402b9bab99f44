"""Tests for the message-level BGP simulator.

The strongest check: after convergence, every AS's selected path must
equal the static Gao-Rexford fixed point of the reference kernel in
``tests/oracle/routing.py`` — two independent implementations of the same
policy model agreeing on arbitrary topologies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.prefixes import Prefix
from repro.asgraph import TopologyConfig, generate_topology
from repro.bgpsim.simulator import BGPSimulator, SimulatorConfig
from tests.oracle.routing import compute_routes

P = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.9.0.0/16")


def small_sim(seed=0, **kw):
    g = generate_topology(TopologyConfig(num_ases=50, num_tier1=3, num_tier2=10, seed=seed))
    return g, BGPSimulator(g, SimulatorConfig(seed=seed, **kw))


class TestConvergence:
    def test_single_announce_reaches_everyone(self):
        g, sim = small_sim()
        sim.announce(40, P)
        report = sim.run()
        assert sim.converged
        assert report.messages_delivered > 0
        for asn in g.ases:
            assert sim.path(asn, P) is not None

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=49))
    def test_matches_static_fixed_point(self, seed, origin):
        g, sim = small_sim(seed=seed % 5)
        sim.announce(origin, P)
        sim.run()
        static = compute_routes(g, [origin])
        for asn in g.ases:
            assert sim.path(asn, P) == static.path(asn), f"AS{asn}"

    def test_two_origins_matches_static_capture_sets(self):
        g, sim = small_sim(seed=3)
        sim.announce(10, P)
        sim.announce(45, P)
        sim.run()
        static = compute_routes(g, [10, 45])
        sim_capture_45 = {
            asn for asn in g.ases if (sim.path(asn, P) or (None,))[-1] == 45
        }
        assert sim_capture_45 == set(static.capture_set(45))

    def test_withdrawal_clears_network(self):
        g, sim = small_sim()
        sim.announce(40, P)
        sim.run()
        sim.withdraw(40, P)
        sim.run()
        for asn in g.ases:
            assert sim.path(asn, P) is None

    def test_two_prefixes_independent(self):
        g, sim = small_sim()
        sim.announce(40, P)
        sim.announce(20, P2)
        sim.run()
        assert sim.path(5, P)[-1] == 40
        assert sim.path(5, P2)[-1] == 20


class TestFailureRecovery:
    def test_failure_then_recovery_restores_paths(self):
        g, sim = small_sim(seed=1)
        sim.announce(40, P)
        sim.run()
        before = {asn: sim.path(asn, P) for asn in g.ases}
        provider = min(g.providers(40))
        sim.fail_link(40, provider)
        sim.run()
        sim.recover_link(40, provider)
        sim.run()
        after = {asn: sim.path(asn, P) for asn in g.ases}
        assert before == after

    def test_failure_matches_static_with_excluded_link(self):
        g, sim = small_sim(seed=2)
        sim.announce(40, P)
        sim.run()
        provider = min(g.providers(40))
        sim.fail_link(40, provider)
        sim.run()
        static = compute_routes(g, [40], excluded_links=[frozenset({40, provider})])
        for asn in g.ases:
            assert sim.path(asn, P) == static.path(asn), f"AS{asn}"

    def test_fail_unknown_link_raises(self):
        g, sim = small_sim()
        with pytest.raises(ValueError):
            sim.recover_link(0, 0)


class TestDynamicsObservability:
    def test_history_records_transitions(self):
        g, sim = small_sim(seed=1)
        sim.announce(40, P)
        sim.run()
        events = sim.paths_seen(40, P)
        assert events and events[0].path == (40,)

    def test_transient_ases_appear_during_reconvergence(self):
        """§3.1: path exploration lets extra ASes glimpse the traffic."""
        total_transients = 0
        for seed in range(5):
            g, sim = small_sim(seed=seed)
            sim.announce(40, P)
            sim.run()
            for provider in sorted(g.providers(40)):
                sim.fail_link(40, provider)
                sim.run()
                sim.recover_link(40, provider)
                sim.run()
            for asn in g.ases:
                total_transients += len(sim.transient_ases(asn, P))
        assert total_transients > 0

    def test_all_ases_seen_superset_of_final(self):
        g, sim = small_sim(seed=1)
        sim.announce(40, P)
        sim.run()
        provider = min(g.providers(40))
        sim.fail_link(40, provider)
        sim.run()
        for asn in g.ases:
            final = sim.path(asn, P)
            if final is not None:
                assert set(final) <= sim.all_ases_seen(asn, P)

    def test_session_reset_generates_messages_but_no_path_change(self):
        g, sim = small_sim(seed=1)
        sim.announce(40, P)
        sim.run()
        before = {asn: sim.path(asn, P) for asn in g.ases}
        a = 40
        b = min(g.providers(40))
        history_len = len(sim.history)
        sim.reset_session(a, b)
        report = sim.run()
        assert report.messages_delivered > 0  # artificial updates flowed
        after = {asn: sim.path(asn, P) for asn in g.ases}
        assert before == after
        assert len(sim.history) == history_len  # no path transitions


class TestTimingModel:
    def test_cannot_schedule_in_past(self):
        _g, sim = small_sim()
        sim.announce(40, P, at=5.0)
        with pytest.raises(ValueError):
            sim.announce(40, P2, at=1.0)

    def test_run_until_bounds_time(self):
        _g, sim = small_sim()
        sim.announce(40, P)
        report = sim.run(until=0.001)
        assert sim.now <= 0.0011 or report.messages_delivered == 0
        sim.run()
        assert sim.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(link_delay_range=(0.0, 0.1))
        with pytest.raises(ValueError):
            SimulatorConfig(jitter=-1)
