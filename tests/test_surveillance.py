"""Tests for the surveillance model (who can correlate which circuits)."""

import pytest

from repro.asgraph import ASGraph, TopologyConfig, generate_topology
from repro.core.surveillance import ObservationMode, SurveillanceModel


def asymmetric_graph() -> ASGraph:
    """A topology where 10 -> 20 and 20 -> 10 take different paths.

    10 is a customer of 1 and peers with 3; 20 is a customer of 3 and
    peers with 1.  Each end prefers its peer route over its provider
    route, so 10 -> 20 runs 10-3-20 and 20 -> 10 runs 20-1-10.
    """
    g = ASGraph()
    g.add_provider_link(customer=10, provider=1)
    g.add_peer_link(10, 3)
    g.add_provider_link(customer=20, provider=3)
    g.add_peer_link(20, 1)
    return g


class TestSegmentView:
    def test_includes_endpoints(self):
        model = SurveillanceModel(asymmetric_graph())
        view = model.segment_view(10, 20)
        assert 10 in view.forward and 20 in view.forward
        assert 10 in view.reverse and 20 in view.reverse

    def test_either_is_union(self):
        model = SurveillanceModel(asymmetric_graph())
        view = model.segment_view(10, 20)
        assert view.either == view.forward | view.reverse

    def test_detects_asymmetry(self):
        model = SurveillanceModel(asymmetric_graph())
        assert model.path(10, 20) == (10, 3, 20)
        assert model.path(20, 10) == (20, 1, 10)
        assert model.is_asymmetric(10, 20)
        assert model.is_asymmetric(20, 10)
        # a customer-provider pair routes over the one link both ways
        assert not model.is_asymmetric(10, 1)

    def test_modes_select_directions(self):
        model = SurveillanceModel(asymmetric_graph())
        view = model.segment_view(10, 20)
        assert view.observers(ObservationMode.FORWARD) == view.forward
        assert view.observers(ObservationMode.REVERSE) == view.reverse
        assert view.observers(ObservationMode.EITHER) == view.either


class TestExposureTable:
    def test_matches_segment_view_with_repeats_and_unrouted_ases(self):
        """Repeated ASes on both sides, an asymmetric pair (10 -> 20 runs
        via peer 3, 20 -> 10 via peer 1), a pair with no valley-free route
        (1, 3) and an AS with no links (99): the unrouted cells fall back to
        the bare ``(a, b)`` segment."""
        graph = asymmetric_graph()
        graph.add_as(99)
        model = SurveillanceModel(graph)
        assert model.path(10, 20) == (10, 3, 20) and model.path(20, 10) == (20, 1, 10)
        assert model.path(1, 3) is None and model.path(99, 20) is None
        left = [10, 99, 20, 10, 1]
        right = [20, 99, 3, 20, 10]
        for adversaries in ({3}, {1}, {99}, {10}, {1, 3}, {7}):
            for mode in ObservationMode:
                table = model.exposure_table(adversaries, left, right, mode)
                assert table == [
                    [bool(adversaries & model.segment_view(a, b).observers(mode)) for b in right]
                    for a in left
                ]
                assert all(type(cell) is bool for row in table for cell in row)


class TestCircuitCompromise:
    @pytest.fixture(scope="class")
    def world(self):
        g = generate_topology(TopologyConfig(num_ases=100, num_tier1=4, num_tier2=20, seed=6))
        return g, SurveillanceModel(g)

    def test_entry_as_alone_is_not_enough(self, world):
        g, model = world
        # an AS only on the entry segment can't correlate
        client, guard, exit_asn, dest = 90, 50, 60, 95
        entry_only = model.segment_view(client, guard).either - model.segment_view(
            exit_asn, dest
        ).either
        for adversary in list(entry_only)[:5]:
            assert not model.compromised_by([adversary], client, guard, exit_asn, dest)

    def test_colluding_set_pools_vantage(self, world):
        g, model = world
        client, guard, exit_asn, dest = 90, 50, 60, 95
        entry = model.segment_view(client, guard).either
        exit_side = model.segment_view(exit_asn, dest).either
        only_entry = entry - exit_side
        only_exit = exit_side - entry
        if only_entry and only_exit:
            a, b = next(iter(only_entry)), next(iter(only_exit))
            assert not model.compromised_by([a], client, guard, exit_asn, dest)
            assert not model.compromised_by([b], client, guard, exit_asn, dest)
            assert model.compromised_by([a, b], client, guard, exit_asn, dest)

    def test_either_mode_dominates_forward(self, world):
        """§3.3: asymmetric observation can only widen the observer set."""
        g, model = world
        circuits = [(90, 50, 60, 95), (91, 40, 55, 96), (92, 30, 45, 97)]
        for circuit in circuits:
            fwd = model.circuit_observers(*circuit, mode=ObservationMode.FORWARD)
            either = model.circuit_observers(*circuit, mode=ObservationMode.EITHER)
            assert fwd <= either

    def test_fraction_compromised_bounds(self, world):
        g, model = world
        circuits = [(90, 50, 60, 95), (91, 40, 55, 96)]
        frac = model.fraction_of_circuits_compromised([0], circuits)
        assert 0.0 <= frac <= 1.0
        with pytest.raises(ValueError):
            model.fraction_of_circuits_compromised([0], [])

    def test_observers_per_circuit_lengths(self, world):
        g, model = world
        circuits = [(90, 50, 60, 95)] * 3
        counts = model.observers_per_circuit(circuits, ObservationMode.EITHER)
        assert len(counts) == 3
        assert len(set(counts)) == 1  # identical circuits, identical counts

    def test_facade_exposure_answer_is_the_model_verdict(self, world):
        """The serving tier answers an exposure query with the same
        observers and compromise verdict as the model."""
        from repro.serve import ExposureQuery, QueryFacade

        g, model = world
        facade = QueryFacade(g, engine=model.engine)
        for circuit in [(90, 50, 60, 95), (91, 40, 55, 96)]:
            for mode in ObservationMode:
                observers = model.circuit_observers(*circuit, mode=mode)
                result = facade.execute(
                    ExposureQuery(*circuit, mode=mode.value, adversaries=(0, 5))
                )
                assert set(result.observers) == observers
                assert result.num_observers == len(observers)
                assert result.compromised == model.compromised_by([0, 5], *circuit, mode=mode)

    def test_guard_as_observes_entry(self, world):
        g, model = world
        client, guard = 90, 50
        view = model.segment_view(client, guard)
        assert guard in view.forward and client in view.forward

    def test_route_cache_consistency(self, world):
        g, model = world
        first = model.path(90, 50)
        second = model.path(90, 50)
        assert first == second
