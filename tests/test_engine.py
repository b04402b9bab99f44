"""Tests for the memoizing RoutingEngine facade.

The engine must be invisible semantically — every answer byte-identical
to the pure kernel and to the path-tuple reference kernel in
``tests/oracle/routing.py`` — while the cache counters prove it is
actually reusing work (superset matching, batch grouping, LRU eviction).
"""

import random

import pytest

from repro.asgraph import (
    RoutingEngine,
    TopologyConfig,
    generate_topology,
    set_shared_engine,
    shared_engine,
)
from repro.asgraph.routing import as_path
from repro.asgraph.topology import ASGraph
from repro.serve.api import OutcomeBatch, PathBatch
from tests.oracle.routing import compute_routes


def oracle_path(graph, src, dst):
    """The reference kernel's targeted answer to one (src, dst) query."""
    return compute_routes(graph, [dst], targets=frozenset((src,))).path(src)


def diamond() -> ASGraph:
    g = ASGraph()
    g.add_peer_link(1, 2)
    g.add_provider_link(customer=3, provider=1)
    g.add_provider_link(customer=3, provider=2)
    g.add_provider_link(customer=4, provider=3)
    return g


class TestMemoisation:
    def test_repeated_query_hits_cache(self, tiny_graph):
        engine = RoutingEngine()
        first = engine.outcome(tiny_graph, [10])
        second = engine.outcome(tiny_graph, [10])
        assert second is first
        stats = engine.stats()
        assert stats.queries == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_full_outcome_answers_targeted_query(self, tiny_graph):
        engine = RoutingEngine()
        full = engine.outcome(tiny_graph, [10])
        targeted = engine.outcome(tiny_graph, [10], targets=frozenset({59}))
        assert targeted is full
        assert engine.stats().hits == 1

    def test_target_superset_answers_subset(self, tiny_graph):
        engine = RoutingEngine()
        wide = engine.outcome(tiny_graph, [10], targets=frozenset({40, 50, 59}))
        narrow = engine.outcome(tiny_graph, [10], targets=frozenset({50}))
        assert narrow is wide
        assert engine.stats().hits == 1

    def test_targeted_outcome_does_not_answer_wider_query(self, tiny_graph):
        engine = RoutingEngine()
        engine.outcome(tiny_graph, [10], targets=frozenset({59}))
        engine.outcome(tiny_graph, [10], targets=frozenset({58, 59}))
        assert engine.stats().hits == 0
        assert engine.stats().misses == 2

    def test_distinct_parameters_are_distinct_entries(self, tiny_graph):
        engine = RoutingEngine()
        a = engine.outcome(tiny_graph, [10])
        b = engine.outcome(tiny_graph, [10], excluded_links=[frozenset({10, 11})])
        c = engine.outcome(tiny_graph, [10, 20])
        assert a is not b and a is not c
        assert engine.stats().misses == 3

    def test_outcome_matches_pure_kernel(self, tiny_graph):
        engine = RoutingEngine()
        cached = engine.outcome(tiny_graph, [10, 20])
        pure = compute_routes(tiny_graph, [10, 20])
        assert dict(cached.items()) == dict(pure.items())

    def test_path_matches_as_path(self, tiny_graph):
        engine = RoutingEngine()
        for src, dst in [(59, 10), (3, 42), (17, 17)]:
            got = engine.path(tiny_graph, src, dst)
            assert got == as_path(tiny_graph, src, dst)
            assert got == oracle_path(tiny_graph, src, dst)


class TestInvalidation:
    def test_invalidate_after_mutation(self):
        g = diamond()
        engine = RoutingEngine()
        assert engine.path(g, 4, 1) == (4, 3, 1)
        g.add_provider_link(customer=4, provider=1)
        engine.invalidate(g)
        assert engine.path(g, 4, 1) == (4, 1)

    def test_invalidate_unknown_graph_is_noop(self):
        engine = RoutingEngine()
        engine.invalidate(diamond())
        assert engine.stats().entries == 0

    def test_clear_drops_entries_keeps_counters(self, tiny_graph):
        engine = RoutingEngine()
        engine.outcome(tiny_graph, [10])
        engine.clear()
        stats = engine.stats()
        assert stats.entries == 0
        assert stats.misses == 1
        engine.outcome(tiny_graph, [10])
        assert engine.stats().misses == 2


class TestEviction:
    def test_lru_eviction_bounds_entries(self, tiny_graph):
        engine = RoutingEngine(max_entries=3)
        for dst in (10, 11, 12, 13, 14):
            engine.outcome(tiny_graph, [dst])
        stats = engine.stats()
        assert stats.entries <= 3
        assert stats.evictions == 2
        # The most recent destination is still cached...
        engine.outcome(tiny_graph, [14])
        assert engine.stats().hits == 1
        # ...and the oldest was evicted (recomputed = another miss).
        engine.outcome(tiny_graph, [10])
        assert engine.stats().misses == 6

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RoutingEngine(max_entries=0)


class TestBatching:
    def test_paths_many_identical_to_per_pair_as_path(self):
        """Acceptance criterion: byte-identical answers on a seeded random
        topology, including unreachable (None) pairs."""
        g = generate_topology(
            TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=7)
        )
        g.add_as(999)  # isolated: unreachable from/to everyone
        rng = random.Random(7)
        ases = sorted(g.ases)
        pairs = [(rng.choice(ases), rng.choice(ases)) for _ in range(60)]
        pairs += [(999, ases[0]), (ases[0], 999)]
        engine = RoutingEngine()
        batched = engine.paths_many(g, PathBatch.of(pairs)).mapping()
        assert set(batched) == set(pairs)
        for src, dst in pairs:
            assert batched[(src, dst)] == as_path(g, src, dst), (src, dst)
            assert batched[(src, dst)] == oracle_path(g, src, dst), (src, dst)

    def test_paths_many_groups_by_destination(self, tiny_graph):
        engine = RoutingEngine()
        pairs = [(s, 10) for s in range(20, 30)]
        engine.paths_many(tiny_graph, PathBatch.of(pairs))
        stats = engine.stats()
        # Ten pairs, one destination: one kernel run.
        assert stats.misses == 1
        assert stats.batches == 1

    def test_paths_many_reuses_cache_across_batches(self, tiny_graph):
        engine = RoutingEngine()
        pairs = [(20, 10), (21, 10), (22, 11)]
        engine.paths_many(tiny_graph, PathBatch.of(pairs))
        engine.paths_many(tiny_graph, PathBatch.of(pairs))
        stats = engine.stats()
        assert stats.misses == 2  # dst 10 and dst 11, first batch only
        assert stats.hits == 2

    def test_paths_many_empty(self, tiny_graph):
        result = RoutingEngine().paths_many(tiny_graph, PathBatch.of([]))
        assert len(result) == 0
        assert result.mapping() == {}

    def test_serial_misses_computed_in_sorted_order(self, tiny_graph):
        """Misses are computed in ascending destination order, so cache
        stores and obs streams do not depend on the order of the queries."""
        engine = RoutingEngine()
        seen = []
        real = engine._compute_many_raw

        def spy(graph, seeds_list, *args, **kwargs):
            seen.append([tuple(sorted(seeds)) for seeds in seeds_list])
            return real(graph, seeds_list, *args, **kwargs)

        engine._compute_many_raw = spy
        engine.paths_many(tiny_graph, PathBatch.of([(40, 12), (40, 10), (40, 11)]))
        assert seen == [[(10,), (11,), (12,)]]


class TestOutcomesMany:
    def test_matches_outcome_loop(self, tiny_graph):
        specs = [[10], [11], (10, 20)]
        batch = RoutingEngine().outcomes_many(tiny_graph, OutcomeBatch.of(specs))
        loop = [RoutingEngine().outcome(tiny_graph, spec) for spec in specs]
        assert len(batch) == len(specs)
        for got, want in zip(batch, loop):
            assert dict(got.items()) == dict(want.items())

    def test_batch_warms_cache_like_loop(self, tiny_graph):
        engine = RoutingEngine()
        batch = engine.outcomes_many(tiny_graph, OutcomeBatch.of([[10], [11]]))
        assert engine.stats().misses == 2
        # Per-origin keys: the serial path now hits.
        assert engine.outcome(tiny_graph, [10]) is batch[0]
        assert engine.outcome(tiny_graph, [11]) is batch[1]
        assert engine.stats().hits == 2

    def test_loop_warms_cache_for_batch(self, tiny_graph):
        engine = RoutingEngine()
        warm = engine.outcome(tiny_graph, [10])
        results = engine.outcomes_many(tiny_graph, OutcomeBatch.of([[10], [11]]))
        assert results[0] is warm
        stats = engine.stats()
        assert stats.hits == 1
        assert stats.misses == 2  # the serial miss plus origin 11

    def test_per_row_and_shared_targets(self, tiny_graph):
        engine = RoutingEngine()
        shared = engine.outcomes_many(
            tiny_graph, OutcomeBatch.of([[10], [11]], targets=frozenset({59}))
        )
        per_row = RoutingEngine().outcomes_many(
            tiny_graph,
            OutcomeBatch.of([[10], [11]], targets=[frozenset({59}), None]),
        )
        assert shared[0].path(59) == per_row[0].path(59)
        with pytest.raises(ValueError, match="targets sequence"):
            engine.outcomes_many(
                tiny_graph, OutcomeBatch.of([[10]], targets=[None, None])
            )

    def test_excluded_links_keyed_per_origin(self, tiny_graph):
        engine = RoutingEngine()
        link = frozenset({10, 11})
        batch = engine.outcomes_many(
            tiny_graph, OutcomeBatch.of([[10], [11]], excluded_links=[link])
        )
        assert engine.outcome(tiny_graph, [10], excluded_links=[link]) is batch[0]
        assert engine.outcome(tiny_graph, [10]) is not batch[0]

    def test_empty_batch(self, tiny_graph):
        result = RoutingEngine().outcomes_many(tiny_graph, OutcomeBatch.of([]))
        assert len(result) == 0

    def test_legacy_kernel_matches_fast(self, tiny_graph):
        """Batched rows, plain and forged, equal the reference kernel."""
        specs = [[10], [11, 20], {21: (21, 10)}]
        batch = RoutingEngine().outcomes_many(tiny_graph, OutcomeBatch.of(specs))
        for got, spec in zip(batch, specs):
            assert dict(got.items()) == dict(compute_routes(tiny_graph, spec).items())


class TestStats:
    def test_format_mentions_counters(self, tiny_graph):
        engine = RoutingEngine()
        engine.outcome(tiny_graph, [10])
        engine.outcome(tiny_graph, [10])
        text = engine.stats().format()
        assert "2 queries" in text
        assert "1 hits" in text
        assert "customer" in text

    def test_stage_seconds_accumulate(self, tiny_graph):
        engine = RoutingEngine()
        engine.outcome(tiny_graph, [10])
        stages = engine.stats().stage_seconds
        assert set(stages) == {"customer", "peer", "provider"}
        assert all(secs >= 0.0 for secs in stages.values())


class TestKernelSelection:
    """The engine has one kernel, the flat-array one; its answers must
    equal the reference kernel's."""

    def test_fast_is_default(self, tiny_graph):
        from repro.asgraph import CompactOutcome

        assert isinstance(RoutingEngine().outcome(tiny_graph, [10]), CompactOutcome)

    def test_legacy_escape_hatch(self, tiny_graph):
        """Full outcomes (hijack shape, excluded link) equal the reference."""
        engine = RoutingEngine()
        link = [frozenset({10, 11})]
        for origins, excluded in (([10, 20], None), ([10], link)):
            got = engine.outcome(tiny_graph, origins, excluded_links=excluded)
            want = compute_routes(tiny_graph, origins, excluded_links=excluded)
            assert dict(got.items()) == dict(want.items())

    def test_both_kernels_batch_identically(self, tiny_graph):
        pairs = [(s, d) for s in (40, 50, 59) for d in (10, 11)]
        result = RoutingEngine().paths_many(tiny_graph, PathBatch.of(pairs))
        assert result.mapping() == {
            (s, d): oracle_path(tiny_graph, s, d) for s, d in pairs
        }


class TestSharedEngine:
    def test_singleton_until_replaced(self):
        original = shared_engine()
        try:
            assert shared_engine() is original
            mine = RoutingEngine(max_entries=8)
            set_shared_engine(mine)
            assert shared_engine() is mine
            set_shared_engine(None)
            fresh = shared_engine()
            assert fresh is not mine
        finally:
            set_shared_engine(original)

    def test_migrated_callers_share_the_engine(self, tiny_graph):
        from repro.core.temporal import static_guard_exposure

        engine = RoutingEngine()
        original = shared_engine()
        try:
            set_shared_engine(engine)
            first = static_guard_exposure(tiny_graph, 59, [10, 11])
            second = static_guard_exposure(tiny_graph, 59, [10, 11])
        finally:
            set_shared_engine(original)
        assert first == second
        assert engine.stats().hits >= 1


class TestDeprecatedBatchSignatures:
    """The raw-tuple batch forms are gone; the typed forms never warn."""

    def test_typed_forms_do_not_warn(self, tiny_graph, recwarn):
        engine = RoutingEngine()
        engine.paths_many(tiny_graph, PathBatch.of([(40, 10)]))
        engine.outcomes_many(tiny_graph, OutcomeBatch.of([[10]]))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
