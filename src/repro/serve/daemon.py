"""The long-lived routing daemon: compile the graph once, query forever.

An asyncio TCP server that owns a warm :class:`RoutingEngine` and answers
the unified query API (:mod:`repro.serve.api`) over the JSONL protocol
(:mod:`repro.serve.protocol`).  Design points:

- **one facade** — every query runs through the same
  :class:`~repro.serve.facade.QueryFacade` an in-process caller would
  use, so daemon answers are bit-identical to direct calls;
- **per-client ordering** — each connection's requests are processed
  sequentially by its handler coroutine, so responses always come back in
  request order; concurrency happens *across* connections, with the
  blocking engine work pushed onto a thread pool so the event loop stays
  responsive;
- **graceful failure** — malformed frames and bad queries produce error
  responses, never a crash; oversized frames get an error and a close
  (line-sync is unrecoverable past an overrun); a client disconnecting
  mid-request just ends its handler;
- **observability** — requests are counted and spanned through
  :mod:`repro.obs`, so running under ``--obs-out`` streams the daemon's
  metrics as JSONL like every other command;
- **snapshot/restore** — the serve-tier result cache can be dumped to and
  reloaded from :mod:`repro.persist` checkpoints while running; snapshots
  carry the topology epoch and refuse a daemon whose epoch differs;
- **live churn** — the ``apply-events`` op feeds link up/down deltas into
  the daemon's :class:`~repro.asgraph.routecache.LiveRoutes`, bumping the
  topology epoch atomically with respect to in-flight batches (a batch's
  answers are always entirely from epoch N or entirely from N+1) and
  invalidating exactly the affected cache entries.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.routecache import LiveRoutes
from repro.asgraph.topology import ASGraph
from repro.serve import protocol
from repro.serve.api import BatchRequest, decode, encode
from repro.serve.facade import QueryFacade, ResultCache

__all__ = ["ServeConfig", "ServeStats", "RoutingDaemon"]


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs (address, framing cap, result and route cache sizes)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``daemon.address``
    port: int = 0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    cache_entries: int = 65536
    #: full route trees kept by the live route cache (LRU)
    pool_entries: int = 1024


@dataclass(frozen=True)
class ServeStats:
    """Counter snapshot reported by the ``stats`` op and at shutdown."""

    connections: int
    requests: int
    batches: int
    queries: int
    errors: int
    cache_entries: int
    cache_hits: int
    cache_misses: int
    epoch: int = 0
    pool_sessions: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    pool_repairs: int = 0


class RoutingDaemon:
    """One graph, one engine, one result cache, many clients."""

    def __init__(
        self,
        graph: ASGraph,
        *,
        engine: Optional[RoutingEngine] = None,
        config: ServeConfig = ServeConfig(),
    ) -> None:
        self.graph = graph
        self.engine = engine if engine is not None else shared_engine()
        self.config = config
        self.cache = ResultCache(max_entries=config.cache_entries)
        self.live = LiveRoutes(graph, cap=config.pool_entries)
        self.facade = QueryFacade(
            graph, engine=self.engine, cache=self.cache, live=self.live
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._connections = 0
        self._requests = 0
        self._batches = 0
        self._queries = 0
        self._errors = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid once started."""
        if self._server is None:
            raise RuntimeError("daemon is not listening")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting clients; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_frame_bytes + 1,
        )
        return self.address

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` request arrives, then close."""
        assert self._stopping is not None, "daemon is not started"
        await self._stopping.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopping is not None:
            self._stopping.set()

    def stats(self) -> ServeStats:
        live = self.live.stats()
        return ServeStats(
            connections=self._connections,
            requests=self._requests,
            batches=self._batches,
            queries=self._queries,
            errors=self._errors,
            cache_entries=len(self.cache),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            epoch=live.epoch,
            pool_sessions=live.trees,
            pool_hits=live.hits,
            pool_misses=live.misses,
            pool_evictions=live.evictions,
            pool_repairs=live.repairs,
        )

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        obs.add("serve.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    # The line outgrew the stream limit: protocol violation,
                    # tell the client and drop the connection.
                    await self._send(
                        writer,
                        protocol.response_error(
                            None,
                            "FrameError",
                            f"frame exceeds the "
                            f"{self.config.max_frame_bytes}-byte cap",
                        ),
                    )
                    break
                if not line:
                    break  # client closed
                response, keep_open = await self._respond(line)
                await self._send(writer, response)
                if not keep_open:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-write; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(protocol.encode_frame(doc))
        await writer.drain()

    async def _respond(self, line: bytes) -> Tuple[dict, bool]:
        """Answer one frame; returns (response doc, keep connection open)."""
        self._requests += 1
        obs.add("serve.requests")
        try:
            doc = protocol.decode_frame(line, self.config.max_frame_bytes)
        except protocol.FrameError as exc:
            self._errors += 1
            obs.add("serve.errors")
            return (
                protocol.response_error(None, "FrameError", str(exc)),
                not exc.fatal,
            )
        op = doc.get("op")
        request_id = doc.get("id")
        try:
            if op == "ping":
                return protocol.response_ok(op, {"pong": True}, request_id), True
            if op == "info":
                return protocol.response_ok(op, self._info(), request_id), True
            if op == "batch":
                result = await self._run_batch(doc)
                return protocol.response_ok(op, result, request_id), True
            if op == "apply-events":
                result = await self._run_apply_events(doc)
                return protocol.response_ok(op, result, request_id), True
            if op == "stats":
                return protocol.response_ok(op, self._stats_doc(), request_id), True
            if op == "snapshot":
                path = self._require_path(doc)
                entries = self.cache.snapshot(
                    path, self.engine.fingerprint(self.graph)
                )
                obs.add("serve.snapshots")
                return (
                    protocol.response_ok(
                        op, {"path": path, "entries": entries}, request_id
                    ),
                    True,
                )
            if op == "restore":
                path = self._require_path(doc)
                entries = self.cache.restore(
                    path, self.engine.fingerprint(self.graph)
                )
                obs.add("serve.restores")
                return (
                    protocol.response_ok(
                        op, {"path": path, "entries": entries}, request_id
                    ),
                    True,
                )
            if op == "shutdown":
                assert self._stopping is not None
                self._stopping.set()
                return (
                    protocol.response_ok(op, {"stopping": True}, request_id),
                    False,
                )
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — daemon must never crash
            self._errors += 1
            obs.add("serve.errors")
            return (
                protocol.response_error(
                    op if isinstance(op, str) else None,
                    type(exc).__name__,
                    str(exc),
                    request_id,
                ),
                True,
            )

    # -- ops -----------------------------------------------------------------

    async def _run_batch(self, doc: dict) -> dict:
        request = decode(doc.get("request"))
        if not isinstance(request, BatchRequest):
            raise ValueError("batch op requires a 'request' of type batch")
        self._batches += 1
        self._queries += len(request.queries)

        def work() -> dict:
            with obs.span("serve.batch", queries=len(request.queries)):
                response = self.facade.execute_batch(request)
            return encode(response)

        # The engine is CPU-bound and thread-safe: run it off the event
        # loop so other clients' frames keep flowing while this one routes.
        return await asyncio.get_running_loop().run_in_executor(None, work)

    async def _run_apply_events(self, doc: dict) -> dict:
        events = doc.get("events")
        if not isinstance(events, list):
            raise ValueError("apply-events op requires an 'events' list")

        def work() -> dict:
            with obs.span("serve.apply_events", events=len(events)):
                report = self.facade.apply_events(events)
            obs.add("serve.epoch_bumps")
            return {
                "epoch": report.epoch,
                "events": report.events,
                "excluded": sorted(
                    sorted(link) for link in report.excluded_links
                ),
                "repaired": len(report.repaired_keys),
                "proven": len(report.proven_keys),
                "invalidated": report.invalidated,
                "unchanged": report.unchanged,
            }

        # Runs on the same executor as batches; the live writer gate
        # drains in-flight batches before the epoch bump, so no batch
        # ever straddles two epochs.
        return await asyncio.get_running_loop().run_in_executor(None, work)

    def _info(self) -> dict:
        return {
            "num_ases": len(self.graph),
            "num_links": self.graph.num_links(),
            "ases": sorted(self.graph.ases),
            "graph_fingerprint": self.engine.fingerprint(self.graph),
        }

    def _stats_doc(self) -> dict:
        stats = self.stats()
        engine = self.engine.stats()
        obs.gauge("serve.cache.entries", stats.cache_entries)
        obs.gauge("serve.pool.epoch", stats.epoch)
        return {
            "serve": {
                "connections": stats.connections,
                "requests": stats.requests,
                "batches": stats.batches,
                "queries": stats.queries,
                "errors": stats.errors,
                "cache_entries": stats.cache_entries,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
            },
            "pool": {
                "epoch": stats.epoch,
                "sessions": stats.pool_sessions,
                "hits": stats.pool_hits,
                "misses": stats.pool_misses,
                "evictions": stats.pool_evictions,
                "repairs": stats.pool_repairs,
                "excluded": sorted(
                    sorted(link) for link in self.live.excluded_links
                ),
            },
            "engine": {
                "queries": engine.queries,
                "hits": engine.hits,
                "misses": engine.misses,
                "evictions": engine.evictions,
                "entries": engine.entries,
                "compute_seconds": engine.compute_seconds,
                "batches": engine.batches,
                # The engine no longer hands out routing sessions; the
                # key stays for readers of the wire format.
                "sessions": 0,
            },
        }

    @staticmethod
    def _require_path(doc: dict) -> str:
        path = doc.get("path")
        if not isinstance(path, str) or not path:
            raise ValueError(f"op {doc.get('op')!r} requires a 'path' string")
        return path
