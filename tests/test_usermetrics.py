"""Tests for the user-level anonymity metrics: ``simulate_population``
over an explicit client roster, one user per entry, with per-user
outcomes kept (what ``repro users`` and E13 run)."""

import pytest

from repro.core.population import simulate_population
from repro.core.surveillance import ObservationMode


@pytest.fixture(scope="module")
def population(small_scenario):
    clients = small_scenario.client_ases(6)
    dests = small_scenario.destination_ases(4)
    adversaries = {0, small_scenario.adversary_as()}
    report = simulate_population(
        small_scenario.graph,
        small_scenario.consensus,
        small_scenario.relay_asn,
        clients,
        dests,
        adversaries,
        days=10,
        circuits_per_day=4,
        seed=5,
        keep_outcomes=True,
    )
    return small_scenario, clients, dests, adversaries, report


class TestPopulationReport:
    def test_every_client_reported(self, population):
        _sc, clients, _d, _a, report = population
        assert len(report.outcomes) == len(clients)
        assert {o.client_asn for o in report.outcomes} == set(clients)

    def test_counts_consistent(self, population):
        _sc, _c, _d, _a, report = population
        for outcome in report.outcomes:
            assert 0 <= outcome.compromised_circuits <= outcome.circuits_built
            if outcome.first_compromise_day is not None:
                assert 1 <= outcome.first_compromise_day <= report.days
                assert outcome.compromised_circuits > 0

    def test_survival_curve_monotone(self, population):
        _sc, _c, _d, _a, report = population
        curve = report.fraction_compromised_by_day()
        assert len(curve) == report.days
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(report.fraction_compromised)

    def test_rates_bounded(self, population):
        _sc, _c, _d, _a, report = population
        assert 0.0 <= report.fraction_compromised <= 1.0
        assert 0.0 <= report.mean_circuit_compromise_rate <= 1.0

    def test_median_defined_only_with_majority(self, population):
        _sc, _c, _d, _a, report = population
        median = report.median_days_to_compromise()
        if report.fraction_compromised >= 0.5:
            assert median is not None and 1 <= median <= report.days
        else:
            assert median is None


class TestModel:
    def test_either_mode_dominates_forward(self, small_scenario):
        clients = small_scenario.client_ases(4)
        dests = small_scenario.destination_ases(3)
        adversaries = {0, 1, small_scenario.adversary_as()}
        kwargs = dict(days=6, circuits_per_day=4, seed=9, keep_outcomes=True)
        fwd = simulate_population(
            small_scenario.graph, small_scenario.consensus, small_scenario.relay_asn,
            clients, dests, adversaries, mode=ObservationMode.FORWARD, **kwargs
        )
        either = simulate_population(
            small_scenario.graph, small_scenario.consensus, small_scenario.relay_asn,
            clients, dests, adversaries, mode=ObservationMode.EITHER, **kwargs
        )
        assert either.mean_circuit_compromise_rate >= fwd.mean_circuit_compromise_rate

    def test_bigger_adversary_is_worse(self, small_scenario):
        clients = small_scenario.client_ases(4)
        dests = small_scenario.destination_ases(3)
        kwargs = dict(days=6, circuits_per_day=4, seed=9, keep_outcomes=True)
        small = simulate_population(
            small_scenario.graph, small_scenario.consensus, small_scenario.relay_asn,
            clients, dests, {0}, **kwargs
        )
        tier1s = set(small_scenario.graph.tier1_ases())
        big = simulate_population(
            small_scenario.graph, small_scenario.consensus, small_scenario.relay_asn,
            clients, dests, tier1s, **kwargs
        )
        assert big.fraction_compromised >= small.fraction_compromised

    def test_validation(self, small_scenario):
        clients = small_scenario.client_ases(2)
        with pytest.raises(ValueError):
            simulate_population(
                small_scenario.graph, small_scenario.consensus,
                small_scenario.relay_asn, clients, [1], set(), days=1
            )
        with pytest.raises(ValueError):
            simulate_population(
                small_scenario.graph, small_scenario.consensus,
                small_scenario.relay_asn, [], [1], {0}, days=1
            )
        with pytest.raises(ValueError):
            simulate_population(
                small_scenario.graph, small_scenario.consensus,
                small_scenario.relay_asn, clients, [1], {0}, days=0
            )
