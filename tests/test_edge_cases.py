"""Gap-filling edge-case tests across modules."""

import pytest

from repro.analysis.prefixes import Prefix
from repro.asgraph import ASGraph, RouteKind, compute_routes_fast
from repro.bgpsim.collector import UpdateRecord, UpdateStream

P = Prefix.parse("10.0.0.0/24")


class TestRoutingTiebreaks:
    def test_equidistant_multi_origin_tiebreak_is_deterministic(self):
        """Two origins at equal preference/distance: the lowest-next-hop
        rule must resolve identically on every run."""
        g = ASGraph()
        # 1 has two customers 5 and 7, both originating; paths tie.
        g.add_provider_link(customer=5, provider=1)
        g.add_provider_link(customer=7, provider=1)
        out1 = compute_routes_fast(g, [5, 7])
        out2 = compute_routes_fast(g, [5, 7])
        assert out1.path(1) == out2.path(1) == (1, 5)  # lowest next hop wins

    def test_origin_with_no_links_reaches_only_itself(self):
        g = ASGraph()
        g.add_as(9)
        g.add_provider_link(customer=2, provider=1)
        out = compute_routes_fast(g, [9])
        assert out.reachable_ases() == {9}

    def test_route_kind_exposed(self):
        g = ASGraph()
        g.add_provider_link(customer=2, provider=1)
        out = compute_routes_fast(g, [2])
        assert out.route(1).kind is RouteKind.CUSTOMER
        assert out.route(2).kind is RouteKind.ORIGIN

    def test_single_as_origin(self):
        g = ASGraph()
        g.add_as(1)
        out = compute_routes_fast(g, [1])
        assert out.path(1) == (1,)


class TestStreamIndexConsistency:
    def test_append_after_index_built(self):
        stream = UpdateStream(("rrc00", 1))
        stream.append(UpdateRecord(1.0, P, (1, 2)))
        assert stream.prefixes() == {P}  # builds the index
        q = Prefix.parse("10.1.0.0/24")
        stream.append(UpdateRecord(2.0, q, (1, 3)))
        assert stream.prefixes() == {P, q}
        assert len(stream.records_for(q)) == 1
        assert stream.path_timeline(q) == [(2.0, (1, 3))]

    def test_records_for_returns_copy(self):
        stream = UpdateStream(("rrc00", 1), [UpdateRecord(1.0, P, (1, 2))])
        records = stream.records_for(P)
        records.clear()
        assert len(stream.records_for(P)) == 1


class TestPrefixCornerCases:
    def test_slash_zero_and_thirty_two(self):
        default = Prefix.parse("0.0.0.0/0")
        host = Prefix.parse("1.2.3.4/32")
        assert default.contains_prefix(host)
        assert host.num_addresses == 1
        assert host.contains_ip(host.network)

    def test_subprefix_identity(self):
        p = Prefix.parse("10.0.0.0/16")
        assert p.subprefix(16, 0) == p

    def test_trie_with_default_and_host_routes(self):
        from repro.analysis.prefixes import PrefixTrie, parse_ip

        trie = PrefixTrie(
            {
                Prefix.parse("0.0.0.0/0"): "default",
                Prefix.parse("1.2.3.4/32"): "host",
            }
        )
        assert trie.longest_match(parse_ip("1.2.3.4"))[1] == "host"
        assert trie.longest_match(parse_ip("1.2.3.5"))[1] == "default"


class TestConsensusWeightEdges:
    def test_all_relays_one_class(self):
        from repro.tor.consensus import BandwidthWeights

        w = BandwidthWeights.compute(G=0, M=0, E=0, D=100)
        for name in ("Wgd", "Wed"):
            assert 0.0 <= getattr(w, name) <= 1.0

    def test_consensus_of_middles_only(self):
        from repro.tor.consensus import Consensus
        from repro.tor.relay import Relay

        relays = [
            Relay(f"M{i}", f"m{i}", f"10.0.{i}.1", 9001, 100) for i in range(3)
        ]
        consensus = Consensus(relays)
        assert consensus.guards() == []
        assert consensus.exits() == []
        assert consensus.total_bandwidth() == 300
