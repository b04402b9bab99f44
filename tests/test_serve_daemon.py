"""Integration tests for the routing daemon and its blocking client.

The daemon runs on a background thread with an ephemeral port; clients
are plain blocking sockets.  Covers: batch answers bit-identical to the
in-process facade, malformed/oversized frame handling (error responses,
never a crash), per-client response ordering under concurrency, and
snapshot/restore of the result cache.
"""

import asyncio
import threading

import pytest

from repro.asgraph.engine import RoutingEngine
from repro.serve.api import (
    BatchRequest,
    ExposureQuery,
    HijackQuery,
    HijackQueryResult,
    PathQuery,
    QueryError,
    encode,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import RoutingDaemon, ServeConfig
from repro.serve.facade import QueryFacade


class DaemonHarness:
    """One daemon on a background thread, plus client plumbing."""

    def __init__(self, graph, **config) -> None:
        self.daemon = RoutingDaemon(
            graph,
            engine=RoutingEngine(),
            config=ServeConfig(port=0, **config),
        )
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()
        self.host = self.port = None

    def _run(self) -> None:
        async def main() -> None:
            self.host, self.port = await self.daemon.start()
            self._started.set()
            await self.daemon.wait_stopped()

        asyncio.run(main())

    def start(self) -> "DaemonHarness":
        self._thread.start()
        assert self._started.wait(10), "daemon failed to start"
        return self

    def connect(self) -> ServeClient:
        return ServeClient.connect(self.host, self.port)

    def stop(self) -> None:
        if self._started.is_set() and self._thread.is_alive():
            try:
                with self.connect() as client:
                    client.shutdown()
            except (ConnectionError, OSError):
                pass
        self._thread.join(10)


@pytest.fixture()
def harness(tiny_graph):
    h = DaemonHarness(tiny_graph).start()
    yield h
    h.stop()


def sample_queries(graph):
    ases = sorted(graph.ases)
    c, g, e, d = ases[-1], ases[0], ases[1], ases[-2]
    return (
        PathQuery(src=c, dst=g),
        PathQuery(src=d, dst=e),
        ExposureQuery(client=c, guard=g, exit=e, dest=d),
        ExposureQuery(client=c, guard=g, exit=e, dest=d, adversaries=(ases[2],)),
        HijackQuery(victim=g, attacker=e, clients=(c, d)),
        HijackQuery(victim=g, attacker=e, kind="interception"),
    )


class TestOps:
    def test_ping_info_stats(self, harness, tiny_graph):
        with harness.connect() as client:
            assert client.ping()
            info = client.info()
            assert info["num_ases"] == len(tiny_graph)
            assert info["ases"] == sorted(tiny_graph.ases)
            assert set(info) == {"num_ases", "num_links", "ases", "graph_fingerprint"}
            stats = client.stats()
            assert stats["serve"]["requests"] >= 2
            assert stats["serve"]["errors"] == 0

    def test_unknown_op_is_an_error_not_a_crash(self, harness):
        with harness.connect() as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.request("teleport")
            assert client.ping()  # connection survived

    def test_shutdown_stops_the_daemon(self, tiny_graph):
        h = DaemonHarness(tiny_graph).start()
        with h.connect() as client:
            assert client.shutdown()
        h._thread.join(10)
        assert not h._thread.is_alive()


class TestBatch:
    def test_batch_bit_identical_to_in_process_facade(self, harness, tiny_graph):
        """The acceptance gate: daemon answers == direct facade answers."""
        queries = sample_queries(tiny_graph)
        local = QueryFacade(tiny_graph, engine=RoutingEngine()).execute_batch(
            BatchRequest(queries=queries)
        )
        with harness.connect() as client:
            remote = client.batch(queries)
        assert [encode(r) for r in remote.results] == [
            encode(r) for r in local.results
        ]

    def test_unknown_as_yields_query_error_slot(self, harness, tiny_graph):
        present = sorted(tiny_graph.ases)[0]
        with harness.connect() as client:
            response = client.batch(
                [
                    PathQuery(src=10**6, dst=present),
                    PathQuery(src=present, dst=present),
                ]
            )
        first, second = response.results
        assert isinstance(first, QueryError)
        assert "not in topology" in first.message
        assert not isinstance(second, QueryError)

    def test_victim_equals_attacker_rejected_per_slot(self, harness, tiny_graph):
        asn = sorted(tiny_graph.ases)[0]
        with harness.connect() as client:
            response = client.batch([HijackQuery(victim=asn, attacker=asn)])
        assert isinstance(response.results[0], QueryError)

    def test_hijack_retained_clients_match_resilience_semantics(
        self, harness, tiny_graph
    ):
        """victim_retained_clients == clients still routing to the victim,
        the survival test core/resilience counts."""
        ases = sorted(tiny_graph.ases)
        victim, attacker, client_asn = ases[0], ases[1], ases[-1]
        engine = RoutingEngine()
        outcome = engine.outcome(tiny_graph, [victim, attacker])
        route = outcome.route(client_asn)
        survives = route is not None and route.origin == victim
        with harness.connect() as client:
            response = client.batch(
                [
                    HijackQuery(
                        victim=victim, attacker=attacker, clients=(client_asn,)
                    )
                ]
            )
        result = response.results[0]
        assert isinstance(result, HijackQueryResult)
        assert (client_asn in result.victim_retained_clients) == survives

    def test_batch_id_echoed(self, harness, tiny_graph):
        asn = sorted(tiny_graph.ases)[0]
        with harness.connect() as client:
            response = client.batch(
                [PathQuery(src=asn, dst=asn)], request_id="req-42"
            )
        assert response.id == "req-42"


class TestFrameHandling:
    def test_malformed_frame_gets_error_and_keeps_connection(self, harness):
        with harness.connect() as client:
            response = client.send_raw(b"this is not json\n")
            assert response["ok"] is False
            assert response["error"]["kind"] == "FrameError"
            assert client.ping()  # still line-synchronised

    def test_non_object_frame_gets_error(self, harness):
        with harness.connect() as client:
            response = client.send_raw(b"[1,2,3]\n")
            assert response["ok"] is False
            assert client.ping()

    def test_oversized_frame_gets_error_then_close(self, tiny_graph):
        h = DaemonHarness(tiny_graph, max_frame_bytes=4096).start()
        try:
            with h.connect() as client:
                blob = b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n'
                response = client.send_raw(blob)
                assert response["ok"] is False
                assert response["error"]["kind"] == "FrameError"
                # Fatal: the daemon hangs up after answering.
                with pytest.raises(ConnectionError):
                    client.request("ping")
        finally:
            h.stop()

    def test_client_disconnect_does_not_kill_daemon(self, harness):
        sock_client = harness.connect()
        sock_client._sock.sendall(b'{"op": "ping"')  # half a frame, then gone
        sock_client.close()
        with harness.connect() as client:
            assert client.ping()


class TestConcurrentClients:
    def test_per_client_response_ordering(self, harness, tiny_graph):
        """Each client's responses arrive in its request order even with
        many clients hammering the daemon at once."""
        ases = sorted(tiny_graph.ases)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                with harness.connect() as client:
                    for i in range(10):
                        rid = f"w{worker_id}-{i}"
                        response = client.batch(
                            [PathQuery(src=ases[-1 - worker_id], dst=ases[i])],
                            request_id=rid,
                        )
                        if response.id != rid:
                            errors.append(
                                f"worker {worker_id} got {response.id}, "
                                f"wanted {rid}"
                            )
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []

    def test_interleaved_clients_get_their_own_answers(self, harness, tiny_graph):
        ases = sorted(tiny_graph.ases)
        with harness.connect() as a, harness.connect() as b:
            ra = a.batch([PathQuery(src=ases[-1], dst=ases[0])])
            rb = b.batch([PathQuery(src=ases[-2], dst=ases[1])])
            assert ra.results[0].src == ases[-1]
            assert rb.results[0].src == ases[-2]


class TestSnapshotRestore:
    def test_snapshot_restore_equivalence(self, tiny_graph, tmp_path):
        """A daemon restored from a snapshot answers identically and from
        cache (the CI serve-smoke assertion, in miniature)."""
        queries = sample_queries(tiny_graph)
        snap = str(tmp_path / "cache.snapshot.jsonl")

        h1 = DaemonHarness(tiny_graph).start()
        try:
            with h1.connect() as client:
                first = client.batch(queries)
                # every slot answered (errors are not cached, which would
                # break the all-hits assertion below)
                assert not any(isinstance(r, QueryError) for r in first.results)
                entries = client.snapshot(snap)
                assert entries == len(queries)
        finally:
            h1.stop()

        h2 = DaemonHarness(tiny_graph).start()
        try:
            with h2.connect() as client:
                assert client.restore(snap) == entries
                second = client.batch(queries)
                stats = client.stats()
            assert [encode(r) for r in second.results] == [
                encode(r) for r in first.results
            ]
            # Every query was answered from the restored cache.
            assert stats["serve"]["cache_hits"] == len(queries)
            assert stats["engine"]["misses"] == 0
        finally:
            h2.stop()

    def test_restore_rejects_other_topology(self, tiny_graph, tmp_path):
        from repro.asgraph import TopologyConfig, generate_topology

        snap = str(tmp_path / "cache.snapshot.jsonl")
        other = generate_topology(
            TopologyConfig(num_ases=60, num_tier1=4, num_tier2=15, seed=9)
        )
        h_other = DaemonHarness(other).start()
        try:
            with h_other.connect() as client:
                client.batch(sample_queries(other))
                client.snapshot(snap)
        finally:
            h_other.stop()

        h = DaemonHarness(tiny_graph).start()
        try:
            with h.connect() as client:
                with pytest.raises(ServeError, match="graph"):
                    client.restore(snap)
        finally:
            h.stop()

    def test_missing_snapshot_is_an_error_response(self, harness, tmp_path):
        with harness.connect() as client:
            with pytest.raises(ServeError):
                client.restore(str(tmp_path / "nope.jsonl"))
            assert client.ping()
