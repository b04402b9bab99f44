"""Tests for Gao-style relationship inference from observed paths."""

import pytest

from repro.asgraph import (
    ASGraph,
    Relationship,
    TopologyConfig,
    compute_routes_fast,
    generate_topology,
)
from repro.asgraph.inference import infer_relationships


def observed_paths(graph, num_destinations=30, num_observers=25):
    """Collect the policy paths a set of vantage ASes would export."""
    ases = sorted(graph.ases)
    destinations = ases[:: max(1, len(ases) // num_destinations)][:num_destinations]
    observers = [a for a in ases if graph.customers(a)][:num_observers]
    paths = []
    for dest in destinations:
        outcome = compute_routes_fast(graph, [dest])
        for observer in observers:
            path = outcome.path(observer)
            if path is not None and len(path) >= 2:
                paths.append(path)
    return paths


class TestInferenceMechanics:
    def test_simple_chain(self):
        # paths through a clear hierarchy; AS1 has the highest observed
        # degree, so Gao's phase-2 split makes it everyone's top provider
        paths = [
            (3, 2, 1),
            (4, 2, 1),
            (3, 2, 1, 5),
            (4, 2, 1, 5),
            (6, 1),
            (7, 1),  # extra adjacencies push AS1's degree above AS2's
        ]
        result = infer_relationships(paths)
        assert result.relationship(2, 1) is Relationship.PROVIDER
        assert result.relationship(1, 2) is Relationship.CUSTOMER
        assert result.relationship(3, 2) is Relationship.PROVIDER
        assert result.relationship(5, 1) is Relationship.PROVIDER

    def test_peering_between_comparable_tops(self):
        # two equal-degree hubs adjacent at the top of every path
        paths = [
            (10, 1, 2, 20),
            (11, 1, 2, 21),
            (10, 1, 2, 21),
            (20, 2, 1, 11),
            (21, 2, 1, 10),
        ]
        result = infer_relationships(paths)
        assert result.relationship(1, 2) is Relationship.PEER

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            infer_relationships([(1, 2, 1)])

    def test_short_paths_ignored(self):
        result = infer_relationships([(1,), (2,)])
        assert not result.observed_links

    def test_unobserved_pair_is_none(self):
        result = infer_relationships([(1, 2)])
        assert result.relationship(5, 6) is None

    def test_accuracy_requires_observations(self):
        result = infer_relationships([])
        with pytest.raises(ValueError):
            result.accuracy_against(ASGraph())


class TestInferenceOnGeneratedInternet:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_recovers_most_relationships(self, seed):
        """On a synthetic Internet with valley-free ground truth, Gao's
        heuristic should classify the bulk of observed links correctly —
        the premise the prior-work analyses relied on."""
        graph = generate_topology(
            TopologyConfig(num_ases=150, num_tier1=4, num_tier2=25, seed=seed)
        )
        paths = observed_paths(graph)
        assert len(paths) > 200
        result = infer_relationships(paths)
        accuracy = result.accuracy_against(graph)
        assert accuracy > 0.7, f"accuracy only {accuracy:.2f}"

    def test_transit_direction_mostly_correct(self):
        """When a link is classified as transit, the customer/provider
        orientation matters more than the transit/peer boundary."""
        graph = generate_topology(
            TopologyConfig(num_ases=150, num_tier1=4, num_tier2=25, seed=3)
        )
        result = infer_relationships(observed_paths(graph))
        oriented = wrong = 0
        for link, (customer, provider) in result.transit.items():
            truth = graph.relationship(customer, provider)
            if truth is Relationship.PROVIDER:
                oriented += 1
            elif truth is Relationship.CUSTOMER:
                wrong += 1
        assert oriented > 5 * max(1, wrong)
