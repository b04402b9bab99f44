"""The warm session pool and its churn feed.

Pins the serving tier's three load-bearing claims:

- **single release** — LRU eviction (and close) releases each evicted
  session exactly once, never a pooled-and-still-borrowed one;
- **no torn epochs** — a query batch racing ``apply_events`` sees answers
  entirely from epoch N or entirely from epoch N+1, never a mix;
- **bit-identical serving** — at every epoch of an arbitrary event
  sequence, a pooled facade (and the live daemon in front of it) answers
  exactly like a cold facade rebuilt on a fresh engine with that epoch's
  exclusion set.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.asgraph import TopologyConfig, generate_topology
from repro.asgraph.engine import RoutingEngine
from repro.serve.api import (
    BatchRequest,
    ExposureQuery,
    HijackQuery,
    PathQuery,
    encode,
)
from repro.serve.facade import QueryFacade, ResultCache
from repro.serve.pool import SessionPool, normalize_events

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


class _CountingSession:
    """Wrap a session, counting release() calls."""

    def __init__(self, session):
        self._session = session
        self.releases = 0

    def release(self):
        self.releases += 1
        self._session.release()

    def __getattr__(self, name):
        return getattr(self._session, name)


class _CountingEngine:
    """A RoutingEngine whose sessions count their releases."""

    def __init__(self):
        self._engine = RoutingEngine()
        self.sessions = []

    def session(self, *args, **kwargs):
        wrapped = _CountingSession(self._engine.session(*args, **kwargs))
        self.sessions.append(wrapped)
        return wrapped

    def __getattr__(self, name):
        return getattr(self._engine, name)


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


class TestSessionPool:
    def test_borrow_hit_miss_accounting(self, tiny_graph):
        pool = SessionPool(tiny_graph, engine=RoutingEngine(), cap=4)
        origin = sorted(tiny_graph.ases)[0]
        with pool.borrow(origin) as s:
            assert s.path(origin) == (origin,)
        with pool.borrow(origin) as s2:
            assert s2 is s
        stats = pool.stats()
        assert (stats.hits, stats.misses, stats.created) == (1, 1, 1)
        assert pool.keys() == [(origin,)]

    def test_key_for_canonical(self):
        assert SessionPool.key_for(7) == (7,)
        assert SessionPool.key_for((3, 1, 3)) == (1, 3)

    def test_lru_eviction_releases_exactly_once(self, tiny_graph):
        engine = _CountingEngine()
        pool = SessionPool(tiny_graph, engine=engine, cap=2)
        origins = sorted(tiny_graph.ases)[:5]
        for origin in origins:
            with pool.borrow(origin):
                pass
        assert len(pool) == 2
        assert pool.stats().evictions == 3
        released = [s for s in engine.sessions if s.released]
        assert len(released) == 3
        assert all(s.releases == 1 for s in released)
        # the two residents were never released
        assert all(s.releases == 0 for s in engine.sessions if not s.released)
        pool.close()
        assert all(s.releases == 1 for s in engine.sessions)
        with pytest.raises(RuntimeError, match="closed"):
            with pool.borrow(origins[0]):
                pass

    def test_concurrent_same_key_borrows_get_distinct_sessions(self, tiny_graph):
        engine = _CountingEngine()
        pool = SessionPool(tiny_graph, engine=engine, cap=4)
        origin = sorted(tiny_graph.ases)[0]
        with pool.borrow(origin) as outer:
            with pool.borrow(origin) as inner:
                assert inner is not outer
        # one of the two was retired on return, exactly once
        assert sum(s.releases for s in engine.sessions) == 1
        assert len(pool) == 1

    def test_error_path_returns_the_session(self, tiny_graph):
        pool = SessionPool(tiny_graph, engine=RoutingEngine(), cap=4)
        origin = sorted(tiny_graph.ases)[0]
        with pytest.raises(RuntimeError, match="boom"):
            with pool.borrow(origin):
                raise RuntimeError("boom")
        assert len(pool) == 1  # returned despite the raise
        with pool.borrow(origin) as session:
            assert not session.released

    def test_apply_events_bumps_epoch_even_when_empty(self, tiny_graph):
        pool = SessionPool(tiny_graph, engine=RoutingEngine())
        report = pool.apply_events([])
        assert (report.epoch, report.events, report.unchanged) == (1, 0, True)
        a, b = _links(tiny_graph)[0]
        report = pool.apply_events([("down", (a, b))])
        assert report.epoch == 2
        assert not report.unchanged
        assert frozenset((a, b)) in pool.excluded_links
        report = pool.apply_events([("up", (a, b))])
        assert report.epoch == 3
        assert pool.excluded_links == frozenset()

    def test_apply_events_proves_untouched_origins(self, tiny_graph):
        """Sessions whose routes survive churn come back as proven keys."""
        engine = RoutingEngine()
        pool = SessionPool(tiny_graph, engine=engine)
        origins = sorted(tiny_graph.ases)[:6]
        for origin in origins:
            with pool.borrow(origin):
                pass
        a, b = _links(tiny_graph)[0]
        report = pool.apply_events([("down", (a, b))])
        assert set(report.repaired_keys) | set(report.proven_keys) == {
            (o,) for o in origins
        }
        # proof check: a "proven" origin's paths really are unchanged
        cold = engine.outcome(
            tiny_graph,
            [origins[0]],
            excluded_links=[(a, b)] if (origins[0],) in report.proven_keys else None,
        )
        if (origins[0],) in report.proven_keys:
            baseline = RoutingEngine().outcome(tiny_graph, [origins[0]])
            for asn in sorted(tiny_graph.ases):
                assert cold.path(asn) == baseline.path(asn)


class TestSessionLRURelease:
    """Eviction from the pool must actually release the evicted sessions
    (undo log, children index, label arrays), tick ``serve.pool.*`` exactly
    once per evicted origin, and re-admit an evicted key as a fresh
    session."""

    CAP = 3

    def churn(self, num_origins):
        graph = generate_topology(
            TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=3)
        )
        pool = SessionPool(graph, engine=RoutingEngine(), cap=self.CAP)
        origins = sorted(graph.ases)[:num_origins]
        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
        try:
            created = {}
            for origin in origins:
                with pool.borrow(origin) as session:
                    created[origin] = session
        finally:
            obs.set_recorder(previous)
        return pool, origins, created, recorder.snapshot().counters

    def test_counter_ticks_once_per_evicted_origin(self):
        pool, origins, _created, counters = self.churn(10)
        assert counters["serve.pool.created"] == len(origins)
        assert counters["serve.pool.evictions"] == len(origins) - self.CAP
        assert len(pool) == self.CAP

    def test_evicted_sessions_are_released(self):
        pool, origins, created, _counters = self.churn(10)
        live = {key[0] for key in pool.keys()}
        assert live == set(origins[-self.CAP :])
        for origin, session in created.items():
            if origin in live:
                assert not session.released
                assert session.path(origin) == (origin,)
            else:
                assert session.released
                with pytest.raises(RuntimeError, match="released"):
                    session.path(origin)
                with pytest.raises(RuntimeError, match="released"):
                    session.exclude_link((origin, origin + 1))

    def test_readmission_builds_a_fresh_session(self):
        pool, origins, created, _counters = self.churn(10)
        evicted_origin = origins[0]
        assert (evicted_origin,) not in pool.keys()
        with pool.borrow(evicted_origin) as fresh:
            assert fresh is not created[evicted_origin]
            assert not fresh.released
            assert fresh.path(evicted_origin) == (evicted_origin,)

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
        engine = RoutingEngine()
        fp = engine.fingerprint(tiny_graph)
        pool = SessionPool(tiny_graph, engine=engine)
        cache = ResultCache()
        facade = QueryFacade(tiny_graph, engine=engine, cache=cache, pool=pool)
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
        engine = RoutingEngine()
        fp = engine.fingerprint(tiny_graph)
        pool = SessionPool(tiny_graph, engine=engine)
        cache = ResultCache()
        facade = QueryFacade(tiny_graph, engine=engine, cache=cache, pool=pool)
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
        engine = RoutingEngine()
        pool = SessionPool(tiny_graph, engine=engine)
        facade = QueryFacade(tiny_graph, engine=engine, pool=pool)
        warm = _wire(facade.execute_batch(BatchRequest(queries=queries)))
        assert warm == _cold_answers(tiny_graph, queries, frozenset())

    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_event_sequence_property(self, tiny_graph, data):
        """At every epoch, pooled answers == cold recompute answers."""
        links = _links(tiny_graph)
        queries = _mixed_queries(tiny_graph)
        engine = RoutingEngine()
        pool = SessionPool(tiny_graph, engine=engine)
        cache = ResultCache()
        facade = QueryFacade(tiny_graph, engine=engine, cache=cache, pool=pool)

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
            assert pool.excluded_links == frozenset(excluded)
            warm = _wire(facade.execute_batch(BatchRequest(queries=queries)))
            assert warm == _cold_answers(tiny_graph, queries, excluded), (
                f"divergence at epoch {report.epoch}, "
                f"excluded {sorted(map(sorted, excluded))}"
            )

    def test_cache_hit_serves_current_epoch_answers(self, tiny_graph):
        """Invalidation is precise: surviving entries are still correct."""
        queries = _mixed_queries(tiny_graph)
        engine = RoutingEngine()
        pool = SessionPool(tiny_graph, engine=engine)
        cache = ResultCache()
        facade = QueryFacade(tiny_graph, engine=engine, cache=cache, pool=pool)
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
        engine = RoutingEngine()
        pool = SessionPool(tiny_graph, engine=engine)
        cache = ResultCache()
        facade = QueryFacade(tiny_graph, engine=engine, cache=cache, pool=pool)
        ases = sorted(tiny_graph.ases)
        queries = tuple(PathQuery(src=ases[-1], dst=dst) for dst in ases[:8])
        facade.execute_batch(BatchRequest(queries=queries))
        entries_before = len(cache)
        assert entries_before == len(queries)

        # find a link whose failure provably spares at least one pooled origin
        for link in _links(tiny_graph):
            report = facade.apply_events([("down", link)])
            if report.proven_keys and report.repaired_keys:
                break
            facade.apply_events([("up", link)])
        else:
            pytest.skip("no link distinguishes the pooled origins")

        assert len(cache) == len(report.proven_keys)
        assert report.invalidated == entries_before - len(report.proven_keys)
        hits_before = cache.hits
        facade.execute_batch(BatchRequest(queries=queries))
        # the surviving entries answered from cache
        assert cache.hits == hits_before + len(report.proven_keys)


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

        engine = RoutingEngine()
        pool = SessionPool(tiny_graph, engine=engine)
        facade = QueryFacade(tiny_graph, engine=engine, pool=pool)
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
