"""Tests for hijack-resilience-aware guard selection."""

import pytest

from repro.core.resilience import (
    blended_guard_weights,
    compute_resilience,
    evaluate_selection,
)
from repro.tor.consensus import Position
from tests.oracle.routing import compute_routes


@pytest.fixture(scope="module")
def world(small_scenario):
    client = small_scenario.client_ases(1)[0]
    guards = small_scenario.consensus.guards()[:25]
    table = compute_resilience(
        small_scenario.graph,
        client,
        guards,
        guard_asn=lambda g: small_scenario.relay_asn(g.fingerprint),
        num_attackers=15,
        seed=3,
    )
    return small_scenario, client, guards, table


class TestResilienceTable:
    def test_values_are_probabilities(self, world):
        _sc, _client, guards, table = world
        for guard in guards:
            assert 0.0 <= table.of(guard) <= 1.0

    def test_same_origin_guards_share_resilience(self, world):
        sc, _client, guards, table = world
        by_origin = {}
        for guard in guards:
            origin = sc.relay_asn(guard.fingerprint)
            by_origin.setdefault(origin, set()).add(table.of(guard))
        for origin, values in by_origin.items():
            assert len(values) == 1, f"origin AS{origin} has mixed resilience"

    def test_resilience_varies_across_guards(self, world):
        _sc, _client, guards, table = world
        values = {table.of(g) for g in guards}
        assert len(values) > 1, "resilience metric is degenerate"

    def test_deterministic_for_seed(self, world):
        sc, client, guards, table = world
        again = compute_resilience(
            sc.graph,
            client,
            guards,
            guard_asn=lambda g: sc.relay_asn(g.fingerprint),
            num_attackers=15,
            seed=3,
        )
        assert again.resilience == table.resilience

    def test_matches_reference_kernel(self, world):
        """Each guard's resilience is the share of sampled attackers (other
        than its origin and the client) whose same-prefix hijack of the
        origin leaves the client routing to the origin, per the reference
        kernel."""
        sc, client, guards, table = world
        for guard in guards:
            origin = sc.relay_asn(guard.fingerprint)
            attackers = [a for a in table.attacker_sample if a not in (origin, client)]
            survived = sum(
                client in compute_routes(sc.graph, [origin, a]).capture_set(origin)
                for a in attackers
            )
            assert table.of(guard) == survived / len(attackers)

    def test_validation(self, small_scenario):
        graph = small_scenario.graph
        client = small_scenario.client_ases(1)[0]
        guards = small_scenario.consensus.guards()[:1]
        with pytest.raises(ValueError):
            compute_resilience(graph, 10**9, [], lambda g: 0)
        with pytest.raises(ValueError):
            compute_resilience(graph, client, [], lambda g: 0)
        with pytest.raises(ValueError, match=f"attacker AS{10**9} not in topology"):
            compute_resilience(
                graph,
                client,
                guards,
                lambda g: small_scenario.relay_asn(g.fingerprint),
                attacker_sample=[10**9],
            )


class TestBlendedWeights:
    def test_alpha_zero_is_bandwidth_order(self, world):
        sc, _client, guards, table = world
        weights = blended_guard_weights(sc.consensus, table, guards, alpha=0.0)
        bw = {g.fingerprint: sc.consensus.position_weight(g, Position.GUARD) for g in guards}
        ordered_w = sorted(guards, key=lambda g: weights[g.fingerprint])
        ordered_bw = sorted(guards, key=lambda g: bw[g.fingerprint])
        assert [g.fingerprint for g in ordered_w] == [g.fingerprint for g in ordered_bw]

    def test_alpha_one_is_resilience_order(self, world):
        sc, _client, guards, table = world
        weights = blended_guard_weights(sc.consensus, table, guards, alpha=1.0)
        for guard in guards:
            assert weights[guard.fingerprint] == pytest.approx(table.of(guard))

    def test_alpha_validation(self, world):
        sc, _client, guards, table = world
        with pytest.raises(ValueError):
            blended_guard_weights(sc.consensus, table, guards, alpha=1.5)


class TestEvaluation:
    def test_capture_decreases_with_alpha(self, world):
        """More resilience weighting => lower expected capture (weakly)."""
        sc, _client, guards, table = world
        sweep = evaluate_selection(sc.consensus, table, guards)
        captures = [e.expected_capture for e in sweep]
        assert captures[-1] <= captures[0] + 1e-9  # alpha=1 vs alpha=0

    def test_distortion_grows_with_alpha(self, world):
        sc, _client, guards, table = world
        sweep = evaluate_selection(sc.consensus, table, guards)
        assert sweep[0].bandwidth_distortion == pytest.approx(0.0)
        assert sweep[-1].bandwidth_distortion >= sweep[0].bandwidth_distortion

    def test_all_metrics_bounded(self, world):
        sc, _client, guards, table = world
        for entry in evaluate_selection(sc.consensus, table, guards):
            assert 0.0 <= entry.expected_capture <= 1.0
            assert 0.0 <= entry.bandwidth_distortion <= 1.0
