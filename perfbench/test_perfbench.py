"""Tests of the benchmark's own parts: oracle, tracer and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

from repro.asgraph.engine import RoutingEngine  # noqa: E402
from repro.asgraph.generator import TopologyConfig, generate_topology  # noqa: E402
from repro.serve.api import OutcomeBatch  # noqa: E402


def _world(seed: int):
    return generate_topology(TopologyConfig(num_ases=60, num_tier1=4, num_tier2=15, seed=seed))


def _links(graph):
    return sorted({tuple(sorted((a, b))) for a, b, _rel in graph.links()})


# -- oracle ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_program_with_hijacks_and_exclusions(seed):
    graph = _world(seed)
    topo = oracle.Topology(graph)
    rng = random.Random(seed)
    ases = sorted(graph.ases)
    links = _links(graph)
    for _ in range(6):
        origins = rng.sample(ases, rng.choice((1, 1, 2, 3)))
        excluded = [frozenset(link) for link in rng.sample(links, rng.randrange(0, 6))]
        (outcome,) = RoutingEngine().outcomes_many(
            graph, OutcomeBatch.of([origins], excluded_links=excluded or None)
        )
        table = oracle.routes(topo, origins, excluded)
        for asn in ases:
            assert outcome.path(asn) == table.get(asn), (origins, excluded, asn)
        if len(origins) == 2:
            victim, attacker = origins
            assert oracle.RouteOracle(topo).capture(victim, attacker, excluded) == outcome.capture_set(attacker)


def test_oracle_paths_are_sound():
    graph = _world(3)
    topo = oracle.Topology(graph)
    for origin in sorted(graph.ases)[:10]:
        for asn, path in oracle.routes(topo, [origin]).items():
            assert oracle.path_problem(topo, path, origin) is None


def test_path_problem_catches_bad_paths():
    graph = _world(4)
    topo = oracle.Topology(graph)
    origin = sorted(graph.stub_ases())[0]
    table = oracle.routes(topo, [origin])
    path = max(table.values(), key=len)
    assert len(path) >= 3
    assert oracle.path_problem(topo, path + (path[-1],), origin) is None  # prepend
    assert "origin" in oracle.path_problem(topo, path[:-1], origin)
    stranger = next(a for a in sorted(graph.ases) if a not in graph.neighbours(path[0]) and a not in path)
    assert "adjacent" in oracle.path_problem(topo, (stranger,) + path, origin)
    # customer -> provider -> customer -> provider is a valley
    a = origin
    p = sorted(graph.providers(a))[0]
    c = next((x for x in sorted(graph.customers(p)) if x != a and graph.providers(x) - {p}), None)
    if c is not None:
        q = sorted(graph.providers(c) - {p})[0]
        assert "valley" in oracle.path_problem(topo, (q, c, p, a), a)


# -- tracer ------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_tracer_self_time_on_synthetic_tree():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.enter("run")              # 0
    clock.now = 1.0
    t.enter("tor.pick")         # 1
    clock.now = 3.0
    t.enter("tor.position_weight")  # 3
    clock.now = 4.0
    t.exit()                    # weight: 1 s
    clock.now = 6.0
    t.exit()                    # pick: 5 s total, 4 s self
    t.enter("asgraph.session_open")  # 6
    t._gc_callback("start", {"generation": 2})
    clock.now = 8.0
    t._gc_callback("stop", {"generation": 2})  # 2 s pause inside the session span
    clock.now = 9.0
    t.exit()                    # session: 3 s total, 1 s self
    clock.now = 10.0
    assert t.exit() == 10.0
    assert t.total("tor.pick") == 5.0 and t.self_time("tor.pick") == 4.0
    assert t.self_time("tor.position_weight") == 1.0
    assert t.self_time("asgraph.session_open") == 1.0
    assert t.gc_pause_s == 2.0 and t.gc_collections[2] == 1
    layers = t.layer_self("run")
    assert layers == {"gc": 2.0, "other": 2.0, "tor": 5.0, "asgraph": 1.0}
    assert sum(layers.values()) == 10.0


def test_tracer_wraps_and_restores_entry_points():
    class Box:
        def method(self, x):
            return x + 1

        @staticmethod
        def helper(x):
            return x * 2

    t = Tracer()
    assert t.wrap(Box, "method", "core.method")
    assert t.wrap(Box, "helper", "core.helper")
    assert not t.wrap(Box, "deleted_entry_point", "core.gone")
    assert Box().method(1) == 2 and Box.helper(3) == 6 and Box().helper(3) == 6
    assert t.calls("core.method") == 1 and t.calls("core.helper") == 2
    assert t.absent == ["core.gone"]
    t.unwrap_all()
    assert "traced" not in Box.method.__qualname__
    assert isinstance(vars(Box)["helper"], staticmethod)


# -- corrupted answers fail the checks -----------------------------------------


def test_flipped_verdict_fails_circuit_checks():
    w = workloads.Circuits(0, NullTracer())
    w.clients, w.requests_per_client = 2, 4
    w.setup()
    w.run()
    assert w.failed == 0
    baseline = [p for p in w.check() if "verdicts do not vary" not in p and "chi2" not in p]
    assert baseline == []
    circuit, (forward, either) = w.results[0]
    w.results[0] = (circuit, (forward, not either))
    assert any("oracle" in p or "FORWARD" in p for p in w.check())


def test_dropped_record_fails_month_trace_checks(monkeypatch):
    from repro.scenario import Scenario, ScenarioConfig

    monkeypatch.setattr(workloads, "_scenario", lambda **kw: Scenario(ScenarioConfig.small(0)))
    w = workloads.MonthTrace(0, NullTracer())
    w.setup()
    w.run()
    before = set(w.check())
    session = w.trace.collector_sessions[0]
    stream = w.trace.streams[session]
    stream._records.pop(len(stream._records) // 2)
    after = set(w.check())
    assert any("records" in p for p in after - before)


def test_changed_hop_fails_serve_checks(tmp_path, monkeypatch):
    from repro.serve.api import PathResult

    import repro

    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(repro.__file__)))
    monkeypatch.chdir(tmp_path)
    w = workloads.ServeFollow(0, NullTracer())
    w.days, w.batches_per_kind, w.sample_per_kind = 2, 2, 8
    try:
        w.setup()
        w.run()
    finally:
        w.close()
    assert w.failed == 0 and w.check() == []
    for k, (epoch, query, result) in enumerate(w.samples):
        if isinstance(result, PathResult) and result.path and len(result.path) >= 3:
            hops = list(result.path)
            hops[1] = next(a for a in sorted(w.scenario.graph.ases) if a not in hops)
            w.samples[k] = (epoch, query, dataclasses.replace(result, path=tuple(hops)))
            break
    else:
        pytest.skip("no sampled path long enough to corrupt")
    assert any("oracle" in p for p in w.check())


def test_benchmark_json_lists_what_run_prints():
    import json

    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.PER_LAYER
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tail_has_ten_slower_values():
    assert workloads._tail([float(v) for v in range(1, 1117)]) == 1106.0
    assert workloads._tail([3.0, 1.0]) == 1.0
