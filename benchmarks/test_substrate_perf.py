"""Substrate micro-benchmarks (multi-round, statistical).

Not paper experiments — these track the performance of the hot paths that
every experiment leans on, so regressions show up in `--benchmark-only`
runs: Gao-Rexford route computation, trie longest-prefix match, the BGP
decision process, message-level convergence, and the TCP engine.
"""

import random

import pytest

from repro.analysis.prefixes import Prefix, PrefixTrie, parse_ip
from repro.asgraph import TopologyConfig, compute_routes_fast, generate_topology
from repro.bgpsim.simulator import BGPSimulator, SimulatorConfig
from repro.traffic.circuitsim import CircuitTransfer, TransferConfig


@pytest.fixture(scope="module")
def graph_1000():
    return generate_topology(TopologyConfig(num_ases=1000, seed=0))


def test_perf_compute_routes_1000_ases(benchmark, graph_1000):
    outcome = benchmark(compute_routes_fast, graph_1000, [500])
    assert len(outcome) == 1000


def test_perf_compute_routes_with_targets(benchmark, graph_1000):
    targets = frozenset(range(8, 80))
    outcome = benchmark(
        compute_routes_fast, graph_1000, [500], None, None, targets
    )
    assert all(outcome.path(t) is not None for t in targets)


def test_perf_hijack_capture_set(benchmark, graph_1000):
    outcome = benchmark(compute_routes_fast, graph_1000, [500, 700])
    assert outcome.capture_set(700)


def test_perf_trie_longest_match(benchmark, paper_scenario):
    trie = PrefixTrie({p: o for p, o in paper_scenario.prefix_origins.items()})
    ips = [r.ip for r in paper_scenario.consensus.relays[:500]]

    def lookup_all():
        return sum(1 for ip in ips if trie.longest_match(ip) is not None)

    assert benchmark(lookup_all) == len(ips)


def test_perf_message_level_convergence(benchmark):
    graph = generate_topology(TopologyConfig(num_ases=100, num_tier1=4, num_tier2=20, seed=2))
    prefix = Prefix.parse("10.0.0.0/24")

    def announce_and_converge():
        sim = BGPSimulator(graph, SimulatorConfig(seed=1))
        sim.announce(60, prefix)
        return sim.run().messages_delivered

    delivered = benchmark(announce_and_converge)
    assert delivered > 0


def test_perf_circuit_transfer_1mb(benchmark):
    def run():
        return CircuitTransfer(TransferConfig(file_size=1_000_000)).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed
