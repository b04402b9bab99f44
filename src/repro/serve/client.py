"""Blocking client for the routing daemon.

:class:`ServeClient` speaks the JSONL protocol over a plain TCP socket
with no asyncio on the caller's side — the shape tests, scripts, and the
CI smoke job want.  Each request blocks until its response frame arrives;
the daemon guarantees responses come back in request order per client.

Usage::

    with ServeClient.connect("127.0.0.1", 7777) as client:
        response = client.batch([PathQuery(src=10, dst=20)])
        print(response.results[0].path)
"""

from __future__ import annotations

import socket
from typing import Iterable, Optional

from repro.serve import protocol
from repro.serve.api import BatchRequest, BatchResponse, decode, encode

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The daemon answered with an error frame."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.error_message = message


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.daemon.RoutingDaemon`."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self._next_id = 0

    @classmethod
    def connect(
        cls, host: str, port: int, *, timeout: Optional[float] = 30.0
    ) -> "ServeClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- raw request/response ------------------------------------------------

    def request(self, op: str, **fields: object) -> dict:
        """Send one op frame, block for its response, return the result doc.

        Raises :class:`ServeError` on an error response and
        ``ConnectionError`` if the daemon hangs up without answering.
        """
        self._next_id += 1
        doc = {"op": op, "id": self._next_id, **fields}
        self._sock.sendall(protocol.encode_frame(doc))
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        response = protocol.decode_frame(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                str(error.get("kind", "UnknownError")),
                str(error.get("message", "")),
            )
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    def send_raw(self, data: bytes) -> dict:
        """Ship pre-encoded bytes and read one response frame (for tests)."""
        self._sock.sendall(data)
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return protocol.decode_frame(line)

    # -- typed ops -----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def info(self) -> dict:
        return self.request("info")

    def stats(self) -> dict:
        return self.request("stats")

    def batch(
        self, queries: Iterable[object], *, request_id: Optional[str] = None
    ) -> BatchResponse:
        """Run a batch of typed queries; returns the typed response."""
        request = BatchRequest(queries=tuple(queries), id=request_id)
        result = self.request("batch", request=encode(request))
        response = decode(result)
        if not isinstance(response, BatchResponse):
            raise ServeError("ProtocolError", "batch op returned a non-batch result")
        return response

    def apply_events(self, events: Iterable[object]) -> dict:
        """Feed link up/down deltas into the daemon's live routes.

        ``events`` are ``("down", (a, b))`` / ``("up", (a, b))`` tuples or
        wire-form ``{"op": ..., "link": [a, b]}`` dicts.  Returns the churn
        report doc: the new ``epoch``, the full ``excluded`` link list, and
        ``repaired``/``proven``/``invalidated`` counts.
        """
        wire = []
        for event in events:
            if isinstance(event, dict):
                wire.append({"op": event.get("op"), "link": list(event.get("link"))})
            else:
                op, link = event
                wire.append({"op": op, "link": [int(link[0]), int(link[1])]})
        return self.request("apply-events", events=wire)

    def snapshot(self, path: str) -> int:
        """Dump the daemon's result cache to ``path``; returns entry count."""
        return int(self.request("snapshot", path=path).get("entries", 0))

    def restore(self, path: str) -> int:
        """Load a cache snapshot into the daemon; returns entries added."""
        return int(self.request("restore", path=path).get("entries", 0))

    def shutdown(self) -> bool:
        """Ask the daemon to stop; the connection closes after the ack."""
        result = self.request("shutdown")
        return bool(result.get("stopping"))
