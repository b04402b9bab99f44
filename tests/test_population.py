"""Tests for the struct-of-arrays population kernel.

The load-bearing property: results are bit-for-bit identical to the
per-user pure-python reference in ``tests/oracle/population.py`` (swapped
in with ``loop_tier()``), across block sizes, and against the
``simulate_user_population`` reference wrapper — per-user
first-compromise days included, not just aggregates.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.population import (
    PopulationAggregate,
    PopulationReport,
    UserOutcome,
    _draws_vector,
    simulate_population,
)
from repro.core.surveillance import ObservationMode, SurveillanceModel
from repro.tor.churn import ChurnConfig, evolve_consensus
from repro.tor.clientdist import ClientASDistribution
from tests.oracle.population import draw, loop_tier


@pytest.fixture(scope="module")
def world(small_scenario):
    clients = small_scenario.client_ases(8)
    dests = small_scenario.destination_ases(4)
    adversaries = frozenset(
        {small_scenario.adversary_as()}
        | set(sorted(small_scenario.graph.tier1_ases())[:2])
    )
    return small_scenario, clients, dests, adversaries


def run_loop(world, **overrides):
    """:func:`run` on the per-user reference kernel."""
    with loop_tier():
        return run(world, **overrides)


def run(world, **overrides):
    scenario, clients, dests, adversaries = world
    kwargs = dict(days=6, circuits_per_day=4, seed=3)
    kwargs.update(overrides)
    return simulate_population(
        scenario.graph,
        kwargs.pop("consensus", scenario.consensus),
        scenario.relay_asn,
        kwargs.pop("clients", clients),
        dests,
        kwargs.pop("adversaries", adversaries),
        **kwargs,
    )


class TestBackendEquivalence:
    def test_loop_matches_reference_semantics(self, world):
        report = run_loop(world)
        assert report.num_users == len(world[1])
        assert all(isinstance(o, UserOutcome) for o in report.outcomes)

    def test_vector_equals_loop_bit_for_bit(self, world):
        vector = run(world)
        loop = run_loop(world)
        assert vector.outcomes == loop.outcomes
        assert vector.aggregate == loop.aggregate

    def test_sharding_invariance(self, world):
        whole = run_loop(world)
        for block_size in (1, 3, 5):
            sharded = run(world, block_size=block_size)
            assert sharded.outcomes == whole.outcomes
            assert sharded.aggregate == whole.aggregate

    def test_jobs_invariance(self, world, tmp_path):
        serial = run(world, block_size=3)
        parallel = run(world, block_size=3, jobs=2)
        assert parallel.outcomes == serial.outcomes
        assert parallel.aggregate == serial.aggregate

    def test_checkpoint_resume_round_trips(self, world, tmp_path):
        ckpt = str(tmp_path / "population.ckpt")
        first = run(world, block_size=3, checkpoint=ckpt)
        resumed = run(world, block_size=3, checkpoint=ckpt, resume=True)
        assert resumed.outcomes == first.outcomes
        assert resumed.aggregate == first.aggregate

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        days=st.integers(min_value=1, max_value=5),
        circuits=st.integers(min_value=1, max_value=3),
        guards=st.integers(min_value=1, max_value=3),
        block=st.integers(min_value=1, max_value=9),
    )
    def test_property_soa_equals_reference(
        self, world, seed, days, circuits, guards, block
    ):
        """Same seeds → same per-user first-compromise days as the
        per-user reference, at any block size."""
        kwargs = dict(
            days=days, circuits_per_day=circuits, num_guards=guards, seed=seed
        )
        reference = run_loop(world, **kwargs)
        vector = run(world, block_size=block, **kwargs)
        assert vector.outcomes == reference.outcomes
        assert vector.aggregate == reference.aggregate

    @settings(deadline=None, max_examples=50)
    @given(
        base=st.integers(min_value=0, max_value=2**64 - 1),
        users=st.lists(
            st.integers(min_value=0, max_value=2**40), min_size=1, max_size=20
        ),
    )
    def test_vector_draws_equal_scalar_draws(self, base, users):
        """The uint64 lattice wraps exactly like the masked scalar one."""
        got = _draws_vector(base, np.asarray(users, dtype=np.uint64))
        assert got.tolist() == [draw(base, user) for user in users]


class TestScenarioKnobs:
    def test_sampled_clients_match_across_tiers_and_shards(self, world):
        scenario, clients, _d, _a = world
        dist = ClientASDistribution.zipf(clients, exponent=1.2)
        one = run_loop(world, clients=dist, num_users=60)
        two = run(world, clients=dist, num_users=60, block_size=7)
        assert one.outcomes == two.outcomes
        assert {o.client_asn for o in one.outcomes} <= set(clients)
        three = run(world, clients=dist, num_users=60)
        assert three.outcomes == one.outcomes

    def test_churn_series_simulates_and_matches_tiers(self, world):
        scenario = world[0]
        series = evolve_consensus(scenario.consensus, 6, ChurnConfig(seed=4))
        loop = run_loop(world, consensus=series)
        assert loop.num_users == len(world[1])
        vector = run(world, consensus=series)
        assert vector.outcomes == loop.outcomes

    def test_either_dominates_forward_per_user(self, world):
        forward = run(world, mode=ObservationMode.FORWARD)
        either = run(world, mode=ObservationMode.EITHER)
        for f, e in zip(forward.outcomes, either.outcomes):
            assert e.compromised_circuits >= f.compromised_circuits
            if f.first_compromise_day is not None:
                assert e.first_compromise_day <= f.first_compromise_day

    def test_guard_rotation_changes_guards(self, world):
        # With a sub-day rotation period every day re-rolls the guards, so
        # across users the compromise pattern must differ from the pinned
        # (effectively infinite rotation) run somewhere.
        pinned = run(world, rotation_days=10_000.0, days=8)
        churny = run(world, rotation_days=0.5, days=8)
        assert pinned.outcomes != churny.outcomes


class TestReportAndAggregates:
    def test_keep_outcomes_default_and_override(self, world):
        kept = run(world)
        assert kept.outcomes is not None  # small N keeps rows by default
        dropped = run(world, keep_outcomes=False)
        assert dropped.outcomes is None
        assert dropped.aggregate == kept.aggregate
        assert dropped.fraction_compromised == kept.fraction_compromised
        assert (
            dropped.median_days_to_compromise()
            == kept.median_days_to_compromise()
        )

    def test_report_matches_outcome_recomputation(self, world):
        report = run(world, days=8)
        outcomes = report.outcomes
        n = len(outcomes)
        assert report.fraction_compromised == pytest.approx(
            sum(o.compromised for o in outcomes) / n
        )
        curve = report.fraction_compromised_by_day()
        for day in range(1, report.days + 1):
            hit = sum(
                1
                for o in outcomes
                if o.first_compromise_day is not None
                and o.first_compromise_day <= day
            )
            assert curve[day - 1] == pytest.approx(hit / n)

    def test_legacy_report_construction_derives_aggregate(self):
        outcomes = (
            UserOutcome(1, 4, 2, 2),
            UserOutcome(2, 4, 0, None),
            UserOutcome(3, 4, 1, 1),
        )
        report = PopulationReport(outcomes=outcomes, days=3)
        assert report.aggregate.users == 3
        assert report.aggregate.compromised_users == 2
        assert report.fraction_compromised == pytest.approx(2 / 3)
        assert report.mean_circuit_compromise_rate == pytest.approx(3 / 12)

    def test_aggregate_merge_is_associative(self):
        a = PopulationAggregate(2, 8, 3, (1, 1, 0), (0, 1, 0, 1))
        b = PopulationAggregate(1, 4, 0, (1, 0, 0, 0), (1,))
        merged = PopulationAggregate.merge([a, b])
        assert merged.users == 3
        assert merged.circuits_built == 12
        assert merged.first_day_hist == (2, 1, 0, 0)
        assert merged.comp_count_hist == (1, 1, 0, 1)
        with pytest.raises(ValueError):
            PopulationAggregate.merge([])

    def test_percentiles(self, world):
        report = run(world, days=10)
        median = report.median_days_to_compromise()
        if median is not None:
            assert report.time_to_compromise_percentile(0.5) == median
        p90 = report.compromise_rate_percentile(0.9)
        p50 = report.compromise_rate_percentile(0.5)
        assert 0.0 <= p50 <= p90 <= 1.0
        with pytest.raises(ValueError):
            report.time_to_compromise_percentile(0.0)
        with pytest.raises(ValueError):
            report.compromise_rate_percentile(1.5)


class TestExposureTable:
    def test_matches_compromised_by(self, small_scenario):
        model = SurveillanceModel(
            small_scenario.graph, engine=small_scenario.engine
        )
        clients = small_scenario.client_ases(4)
        guards = small_scenario.destination_ases(3)
        adversaries = set(sorted(small_scenario.graph.tier1_ases())[:2])
        for mode in ObservationMode:
            table = model.exposure_table(adversaries, clients, guards, mode)
            for i, client in enumerate(clients):
                for j, guard in enumerate(guards):
                    view = model.segment_view(client, guard)
                    assert table[i][j] == bool(
                        adversaries & view.observers(mode)
                    )


class TestValidation:
    def test_bad_inputs(self, world):
        scenario, clients, dests, adversaries = world
        with pytest.raises(ValueError):
            run(world, days=0)
        with pytest.raises(ValueError):
            run(world, circuits_per_day=0)
        with pytest.raises(ValueError):
            run(world, num_guards=0)
        with pytest.raises(ValueError):
            run(world, rotation_days=0.0)
        with pytest.raises(ValueError):
            run(world, clients=[])
        with pytest.raises(ValueError):
            run(world, adversaries=set())
        with pytest.raises(ValueError):
            run(world, clients=clients, num_users=len(clients) + 1)
        with pytest.raises(ValueError):
            run(
                world,
                clients=ClientASDistribution.uniform(clients),
                num_users=None,
            )
        with pytest.raises(ValueError):
            run(world, consensus=[])
