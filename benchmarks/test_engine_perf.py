"""RoutingEngine benchmarks: the guard-sweep workload the engine exists for.

A resilience/exposure experiment asks for paths from many clients to the
same small set of guard origins, over and over.  Uncached, that is one
full-topology (or at best one targeted) kernel run per query; the engine
collapses it to one run per distinct guard origin, answered from cache on
every revisit.  These benchmarks pin the speedup and the acceptance
criteria: the cache hit counter must actually fire, and the batched
answers must be byte-identical to per-pair :func:`as_path` and to the
reference kernel in ``tests/oracle/routing.py``.
"""

import random

import pytest

from repro.asgraph import RoutingEngine, TopologyConfig, generate_topology
from repro.asgraph.routing import as_path
from repro.serve.api import PathBatch
from tests.oracle.routing import compute_routes


@pytest.fixture(scope="module")
def sweep_world():
    """A 1000-AS world plus a guard-sweep workload: 40 clients x 12 guard
    origins, every pair queried (the shape of a resilience table)."""
    graph = generate_topology(TopologyConfig(num_ases=1000, seed=3))
    rng = random.Random(3)
    ases = sorted(graph.ases)
    clients = rng.sample(ases, 40)
    guards = rng.sample(ases, 12)
    pairs = [(c, g) for c in clients for g in guards]
    return graph, pairs


def test_perf_guard_sweep_per_pair_as_path(benchmark, sweep_world):
    """Baseline: one targeted kernel run per (client, guard) query."""
    graph, pairs = sweep_world

    def per_pair():
        return {(s, d): as_path(graph, s, d) for s, d in pairs}

    result = benchmark(per_pair)
    assert len(result) == len(pairs)


def test_perf_guard_sweep_engine_batched(benchmark, sweep_world):
    """The engine groups the sweep into one kernel run per guard origin
    (12 runs instead of 480) and must agree with the baseline exactly."""
    graph, pairs = sweep_world

    def batched():
        return RoutingEngine().paths_many(graph, PathBatch.of(pairs)).mapping()

    result = benchmark(batched)
    assert len(result) == len(pairs)
    rng = random.Random(17)
    for src, dst in rng.sample(pairs, 25):
        assert result[(src, dst)] == as_path(graph, src, dst)
        oracle = compute_routes(graph, [dst], targets=frozenset((src,)))
        assert result[(src, dst)] == oracle.path(src)


def test_perf_guard_sweep_warm_cache(benchmark, sweep_world):
    """Steady state: a warmed engine answers the whole sweep from cache."""
    graph, pairs = sweep_world
    engine = RoutingEngine()
    batch = PathBatch.of(pairs)
    engine.paths_many(graph, batch)  # warm
    warm = engine.stats()

    result = benchmark(lambda: engine.paths_many(graph, batch).mapping())

    assert len(result) == len(pairs)
    stats = engine.stats()
    # Every timed call is answered from the cache, however many rounds the
    # benchmark ran (one under --benchmark-disable).
    assert stats.misses == warm.misses
    assert stats.hits > warm.hits, "acceptance criterion: cache hit counter fired"


def test_perf_repeated_hijack_outcome(benchmark, sweep_world):
    """An attack sweep re-simulating the same (victim, attacker) pair —
    pure memoisation, no batching."""
    graph, _pairs = sweep_world
    engine = RoutingEngine()

    def sweep():
        total = 0
        for _ in range(20):
            outcome = engine.outcome(graph, [500, 700])
            total += len(outcome.capture_set(700))
        return total

    assert benchmark(sweep) > 0
    assert engine.stats().hits > 0
