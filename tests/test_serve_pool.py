"""The live route cache and its churn feed.

Pins the serving tier's load-bearing claims:

- **bounded state** — the live routes keep at most ``cap`` trees, count
  every eviction once, and forget an evicted key instead of re-syncing it;
- **no torn epochs** — a query batch racing ``apply_events`` sees answers
  entirely from epoch N or entirely from epoch N+1, never a mix;
- **bit-identical serving** — at every epoch of an arbitrary event
  sequence, a live facade (and the live daemon in front of it) answers
  exactly like a cold facade rebuilt on a fresh engine with that epoch's
  exclusion set, and like the reference kernel in
  ``tests/oracle/routing.py``.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.asgraph import TopologyConfig, generate_topology
from repro.asgraph.engine import RoutingEngine
from repro.asgraph.routecache import LiveRoutes, normalize_events
from repro.bgpsim.attacks import AttackKind
from repro.core.surveillance import ObservationMode, SegmentView
from repro.serve.api import (
    BatchRequest,
    ExposureQuery,
    ExposureResult,
    HijackQuery,
    HijackQueryResult,
    PathQuery,
    PathResult,
    encode,
)
from repro.serve.facade import QueryFacade, ResultCache

from tests.oracle.routing import compute_routes
from tests.test_serve_daemon import DaemonHarness


def _links(graph):
    return sorted(tuple(sorted((a, b))) for a, b, _r in graph.links())


def _wire(response):
    """Wire-form results: the bit-identity currency."""
    return [encode(r) for r in response.results]


def _mixed_queries(graph):
    """One of each query kind, over fixed endpoints."""
    ases = sorted(graph.ases)
    c, g, e, d = ases[-1], ases[0], ases[1], ases[-2]
    return (
        PathQuery(src=c, dst=g),
        PathQuery(src=g, dst=d),
        HijackQuery(victim=g, attacker=e, clients=(c, d)),
        HijackQuery(victim=g, attacker=e, kind="more-specific-hijack"),
        HijackQuery(victim=d, attacker=c, kind="interception"),
        ExposureQuery(client=c, guard=g, exit=e, dest=d, adversaries=(e,)),
    )


def _live_facade(graph, cache=None):
    live = LiveRoutes(graph)
    facade = QueryFacade(graph, engine=RoutingEngine(), cache=cache, live=live)
    return live, facade


def _oracle_mismatches(graph, queries, results, excluded):
    """Queries whose live answer differs from the reference kernel's.

    Covers path, exposure and same-prefix hijack queries — the kinds the
    live route cache answers; the other attack kinds run through the
    engine and are checked against the cold recompute only.
    """
    routes = {}

    def outcome(*origins):
        key = tuple(sorted(origins))
        if key not in routes:
            routes[key] = compute_routes(graph, list(key), excluded_links=excluded)
        return routes[key]

    def segment(a, b):
        forward = outcome(b).path(a) or (a, b)
        reverse = outcome(a).path(b) or (b, a)
        return SegmentView(forward=frozenset(forward), reverse=frozenset(reverse))

    bad = []
    for query, result in zip(queries, results):
        if isinstance(query, PathQuery):
            assert isinstance(result, PathResult)
            if result.path != outcome(query.dst).path(query.src):
                bad.append(query)
        elif isinstance(query, ExposureQuery):
            assert isinstance(result, ExposureResult)
            mode = ObservationMode(query.mode)
            entry = segment(query.client, query.guard).observers(mode)
            exit_side = segment(query.exit, query.dest).observers(mode)
            adversaries = set(query.adversaries)
            if set(result.observers) != entry & exit_side or result.compromised != (
                bool(adversaries & entry) and bool(adversaries & exit_side)
            ):
                bad.append(query)
        elif query.kind == AttackKind.SAME_PREFIX.value:
            assert isinstance(result, HijackQueryResult)
            pair = outcome(query.victim, query.attacker)
            captured = pair.capture_set(query.attacker)
            retained = pair.capture_set(query.victim)
            if (
                set(result.capture_set) != captured
                or result.capture_fraction != len(captured) / len(graph)
                or set(result.captured_clients) != captured & set(query.clients)
                or set(result.victim_retained_clients)
                != retained & set(query.clients)
            ):
                bad.append(query)
    return bad


class TestNormalizeEvents:
    def test_tuples_and_dicts_canonicalised(self, tiny_graph):
        a, b = _links(tiny_graph)[0]
        out = normalize_events(
            [("down", (b, a)), {"op": "up", "link": [a, b]}], tiny_graph
        )
        assert out == [("down", (a, b)), ("up", (a, b))]

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="down"):
            normalize_events([("sideways", (1, 2))])

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="equal"):
            normalize_events([("down", (3, 3))])

    def test_unknown_link_rejected(self, tiny_graph):
        ases = sorted(tiny_graph.ases)
        a = ases[0]
        stranger = max(ases) + 1000
        with pytest.raises(ValueError, match="not in topology"):
            normalize_events([("down", (a, stranger))], tiny_graph)
        non_neighbour = next(
            x for x in ases if x != a and x not in tiny_graph.neighbours(a)
        )
        with pytest.raises(ValueError, match="no link"):
            normalize_events([("down", (a, non_neighbour))], tiny_graph)


class TestLiveRoutes:
    def test_tree_hit_miss_accounting(self, tiny_graph):
        live = LiveRoutes(tiny_graph, cap=4)
        origin = sorted(tiny_graph.ases)[0]
        tree = live.tree(origin)
        assert tree.path(origin) == (origin,)
        assert live.tree([origin]) is tree
        stats = live.stats()
        assert (stats.trees, stats.hits, stats.misses) == (1, 1, 1)

    def test_key_for_canonical(self):
        assert LiveRoutes.key_for(7) == (7,)
        assert LiveRoutes.key_for((3, 1, 3)) == (1, 3)

    def test_apply_events_bumps_epoch_even_when_empty(self, tiny_graph):
        live = LiveRoutes(tiny_graph)
        report = live.apply_events([])
        assert (report.epoch, report.events, report.unchanged) == (1, 0, True)
        a, b = _links(tiny_graph)[0]
        report = live.apply_events([("down", (a, b))])
        assert report.epoch == 2
        assert not report.unchanged
        assert frozenset((a, b)) in live.excluded_links
        report = live.apply_events([("up", (a, b))])
        assert report.epoch == 3
        assert live.excluded_links == frozenset()

    def test_apply_events_proves_untouched_origins(self, tiny_graph):
        """Resolved keys whose routes survive churn come back as proven."""
        live = LiveRoutes(tiny_graph)
        origins = sorted(tiny_graph.ases)[:6]
        before = {o: live.tree(o) for o in origins}
        a, b = _links(tiny_graph)[0]
        report = live.apply_events([("down", (a, b))])
        assert set(report.repaired_keys) | set(report.proven_keys) == {
            (o,) for o in origins
        }
        assert not set(report.repaired_keys) & set(report.proven_keys)
        # a proven key keeps its very tree; a repaired one got the routes
        # a fresh kernel run computes under the new exclusion set
        for origin in origins:
            tree = live.tree(origin)
            if (origin,) in report.proven_keys:
                assert tree is before[origin]
            cold = RoutingEngine().outcome(
                tiny_graph, [origin], excluded_links=[frozenset((a, b))]
            )
            for asn in sorted(tiny_graph.ases):
                assert tree.path(asn) == cold.path(asn)


class TestLiveRoutesLRU:
    """The live routes hold at most ``cap`` trees, tick ``serve.pool.*``
    once per evicted tree, and forget evicted keys instead of re-syncing
    them."""

    CAP = 3

    def churn(self, num_origins):
        graph = generate_topology(
            TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=3)
        )
        live = LiveRoutes(graph, cap=self.CAP)
        origins = sorted(graph.ases)[:num_origins]
        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
        try:
            trees = {origin: live.tree(origin) for origin in origins}
        finally:
            obs.set_recorder(previous)
        return live, origins, trees, recorder.snapshot().counters

    def test_counter_ticks_once_per_evicted_origin(self):
        live, origins, _trees, counters = self.churn(10)
        assert counters["serve.pool.misses"] == len(origins)
        assert counters["serve.pool.evictions"] == len(origins) - self.CAP
        assert live.stats().trees == self.CAP

    def test_evicted_keys_are_forgotten_by_the_next_epoch(self):
        live, origins, _trees, _counters = self.churn(10)
        report = live.apply_events([])
        # only the resident trees are re-synced and proven; an evicted key
        # is neither, so results that depend on it are invalidated
        assert report.proven_keys == tuple((o,) for o in origins[-self.CAP :])
        assert report.repaired_keys == ()

    def test_readmission_recomputes_an_evicted_tree(self):
        live, origins, trees, _counters = self.churn(10)
        evicted = origins[0]
        misses = live.stats().misses
        fresh = live.tree(evicted)
        assert live.stats().misses == misses + 1
        assert fresh is not trees[evicted]
        assert fresh.path(evicted) == (evicted,)

class TestCacheEpochVersioning:
    def test_only_unproven_dependencies_invalidated(self):
        cache = ResultCache()
        cache.put("a", {"k": "a"}, deps=((1,),))
        cache.put("b", {"k": "b"}, deps=((2,),))
        cache.put("both", {"k": "both"}, deps=((1,), (2,)))
        cache.put("nodeps", {"k": "nodeps"}, deps=())
        dropped = cache.advance_epoch(1, proven=[(1,)])
        # "a" survives; "b" and "both" depend on the unproven (2,);
        # "nodeps" has nothing vouching for it.
        assert dropped == 3
        assert cache.get("a") == {"k": "a"}
        assert cache.get("b") is None
        assert cache.get("both") is None
        assert cache.get("nodeps") is None
        assert cache.epoch == 1

    def test_keep_all_fast_path(self):
        cache = ResultCache()
        cache.put("a", {"k": "a"}, deps=())
        assert cache.advance_epoch(1, keep_all=True) == 0
        assert cache.get("a") == {"k": "a"}

    def test_epoch_cannot_move_backwards(self):
        cache = ResultCache()
        cache.advance_epoch(2)
        with pytest.raises(ValueError, match="backwards"):
            cache.advance_epoch(1)

    def test_snapshot_refuses_restore_across_epochs(self, tiny_graph, tmp_path):
        cache = ResultCache()
        _live, facade = _live_facade(tiny_graph, cache)
        fp = facade.engine.fingerprint(tiny_graph)
        facade.execute_batch(BatchRequest(queries=_mixed_queries(tiny_graph)))
        snap = str(tmp_path / "epoch0.ckpt")
        cache.snapshot(snap, fp)

        facade.apply_events([])  # epoch 1, same topology
        with pytest.raises(ValueError, match="epoch has advanced"):
            cache.restore(snap, fp)

        # and the mirror image: a snapshot from the future
        ahead = str(tmp_path / "epoch1.ckpt")
        cache.snapshot(ahead, fp)
        with pytest.raises(ValueError, match="ahead of"):
            ResultCache().restore(ahead, fp)

    def test_snapshot_round_trips_deps(self, tiny_graph, tmp_path):
        cache = ResultCache()
        _live, facade = _live_facade(tiny_graph, cache)
        fp = facade.engine.fingerprint(tiny_graph)
        queries = _mixed_queries(tiny_graph)
        facade.execute_batch(BatchRequest(queries=queries))
        snap = str(tmp_path / "cache.ckpt")
        cache.snapshot(snap, fp)

        restored = ResultCache()
        assert restored.restore(snap, fp) == len(cache)
        # restored deps still version the entries: an all-invalidating
        # bump empties both caches identically
        assert cache.advance_epoch(1) == restored.advance_epoch(1)
        assert len(restored) == len(cache)


def _cold_answers(graph, queries, excluded):
    """The cold reference: fresh engine, static exclusion set."""
    facade = QueryFacade(
        graph, engine=RoutingEngine(), excluded_links=excluded or None
    )
    return _wire(facade.execute_batch(BatchRequest(queries=queries)))


class TestBitIdenticalServing:
    def test_pooled_matches_cold_on_fresh_graph(self, tiny_graph):
        queries = _mixed_queries(tiny_graph)
        _live, facade = _live_facade(tiny_graph)
        response = facade.execute_batch(BatchRequest(queries=queries))
        assert _wire(response) == _cold_answers(tiny_graph, queries, frozenset())
        assert not _oracle_mismatches(
            tiny_graph, queries, response.results, frozenset()
        )

    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_event_sequence_property(self, tiny_graph, data):
        """At every epoch, live answers == cold recompute == the oracle."""
        links = _links(tiny_graph)
        queries = _mixed_queries(tiny_graph)
        live, facade = _live_facade(tiny_graph, ResultCache())

        num_epochs = data.draw(st.integers(min_value=1, max_value=4))
        excluded = set()
        for _ in range(num_epochs):
            events = data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(["down", "up"]),
                        st.sampled_from(links[:30]),
                    ),
                    max_size=3,
                )
            )
            report = facade.apply_events(events)
            for op, link in normalize_events(events):
                if op == "down":
                    excluded.add(frozenset(link))
                else:
                    excluded.discard(frozenset(link))
            assert live.excluded_links == frozenset(excluded)
            response = facade.execute_batch(BatchRequest(queries=queries))
            where = (
                f"epoch {report.epoch}, "
                f"excluded {sorted(map(sorted, excluded))}"
            )
            assert _wire(response) == _cold_answers(
                tiny_graph, queries, excluded
            ), f"divergence from cold recompute at {where}"
            assert not _oracle_mismatches(
                tiny_graph, queries, response.results, frozenset(excluded)
            ), f"divergence from the oracle at {where}"

    def test_cache_hit_serves_current_epoch_answers(self, tiny_graph):
        """Invalidation is precise: surviving entries are still correct."""
        queries = _mixed_queries(tiny_graph)
        _live, facade = _live_facade(tiny_graph, ResultCache())
        facade.execute_batch(BatchRequest(queries=queries))
        a, b = _links(tiny_graph)[0]
        facade.apply_events([("down", (a, b))])
        warm = _wire(facade.execute_batch(BatchRequest(queries=queries)))
        assert warm == _cold_answers(tiny_graph, queries, {frozenset((a, b))})
        facade.apply_events([("up", (a, b))])
        warm = _wire(facade.execute_batch(BatchRequest(queries=queries)))
        assert warm == _cold_answers(tiny_graph, queries, frozenset())

    def test_unaffected_entries_survive_churn(self, tiny_graph):
        """Churn far from a query's origins must not evict its cache entry."""
        cache = ResultCache()
        _live, facade = _live_facade(tiny_graph, cache)
        ases = sorted(tiny_graph.ases)
        queries = tuple(PathQuery(src=ases[-1], dst=dst) for dst in ases[:8])
        facade.execute_batch(BatchRequest(queries=queries))
        entries_before = len(cache)
        assert entries_before == len(queries)

        # find a link whose failure provably spares at least one origin
        for link in _links(tiny_graph):
            report = facade.apply_events([("down", link)])
            if report.proven_keys and report.repaired_keys:
                break
            facade.apply_events([("up", link)])
        else:
            pytest.skip("no link distinguishes the queried origins")

        assert len(cache) == len(report.proven_keys)
        assert report.invalidated == entries_before - len(report.proven_keys)
        hits_before = cache.hits
        facade.execute_batch(BatchRequest(queries=queries))
        # the surviving entries answered from cache
        assert cache.hits == hits_before + len(report.proven_keys)


    def test_scoped_attack_answers_do_not_outlive_their_epoch(self):
        """An interception answer comes from export-scoped routes outside
        the live trees, so an epoch that proves every live key it touches
        must still drop it: here the fourth epoch proves all three and
        the cached answer would be stale."""
        graph = generate_topology(
            TopologyConfig(num_ases=60, num_tier1=4, num_tier2=15, seed=4)
        )
        queries = (
            HijackQuery(victim=49, attacker=11, kind="interception", clients=(52,)),
            HijackQuery(victim=49, attacker=11, clients=(52,)),
            PathQuery(src=52, dst=49),
            PathQuery(src=52, dst=11),
        )
        _live, facade = _live_facade(graph, ResultCache())
        facade.execute_batch(BatchRequest(queries=queries))
        excluded = set()
        for link in ((0, 57), (1, 28), (1, 14), (17, 41)):
            report = facade.apply_events([("down", link)])
            excluded.add(frozenset(link))
            warm = _wire(facade.execute_batch(BatchRequest(queries=queries)))
            assert warm == _cold_answers(graph, queries, excluded), report.epoch
        assert {(11,), (49,), (11, 49)} <= set(report.proven_keys)


class TestTornEpochs:
    def test_batches_never_mix_epochs(self, tiny_graph):
        """Readers racing apply_events see epoch N or N+1, never both."""
        links = _links(tiny_graph)
        queries = _mixed_queries(tiny_graph)
        # pick a link whose failure actually changes some answer
        flip = None
        even = _cold_answers(tiny_graph, queries, frozenset())
        for link in links:
            odd = _cold_answers(tiny_graph, queries, {frozenset(link)})
            if odd != even:
                flip = link
                break
        assert flip is not None, "no link changes any answer"

        _live, facade = _live_facade(tiny_graph)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                got = _wire(
                    facade.execute_batch(BatchRequest(queries=queries))
                )
                if got != even and got != odd:
                    failures.append(got)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(12):
                facade.apply_events([("down", flip)])
                facade.apply_events([("up", flip)])
        finally:
            stop.set()
            for t in threads:
                t.join(30)
        assert not failures, "a batch mixed answers from two epochs"


class TestDaemonChurn:
    def test_apply_events_over_the_wire(self, tiny_graph):
        harness = DaemonHarness(tiny_graph).start()
        try:
            queries = _mixed_queries(tiny_graph)
            a, b = _links(tiny_graph)[0]
            with harness.connect() as client:
                report = client.apply_events([("down", (a, b))])
                assert report["epoch"] == 1
                assert report["excluded"] == [[a, b]]
                response = client.batch(queries)
                assert _wire(response) == _cold_answers(
                    tiny_graph, queries, {frozenset((a, b))}
                )
                stats = client.stats()
                assert stats["pool"]["epoch"] == 1
                assert stats["pool"]["excluded"] == [[a, b]]
                report = client.apply_events([{"op": "up", "link": [a, b]}])
                assert report["epoch"] == 2
                assert report["excluded"] == []
                response = client.batch(queries)
                assert _wire(response) == _cold_answers(
                    tiny_graph, queries, frozenset()
                )
        finally:
            harness.stop()

    def test_bad_events_are_an_error_response(self, tiny_graph):
        harness = DaemonHarness(tiny_graph).start()
        try:
            with harness.connect() as client:
                with pytest.raises(Exception, match="down"):
                    client.request(
                        "apply-events",
                        events=[{"op": "sideways", "link": [1, 2]}],
                    )
                # the daemon survived and did not bump the epoch
                assert client.stats()["pool"]["epoch"] == 0
        finally:
            harness.stop()
