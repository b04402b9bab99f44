"""Serving layer: the unified query API, its facade, and the daemon.

``repro.serve.api`` is the single typed query surface for routing
questions — in-process callers execute it through
:class:`~repro.serve.facade.QueryFacade`, remote callers through
:class:`~repro.serve.daemon.RoutingDaemon` /
:class:`~repro.serve.client.ServeClient`, and both paths produce
bit-identical results.
"""

from repro.asgraph.routecache import ChurnReport, LiveRoutes
from repro.serve.api import (
    API_SCHEMA_VERSION,
    BatchRequest,
    BatchResponse,
    ExposureQuery,
    ExposureResult,
    HijackQuery,
    HijackQueryResult,
    OutcomeBatch,
    OutcomeBatchResult,
    PathBatch,
    PathBatchResult,
    PathQuery,
    PathResult,
    QueryError,
    WireError,
    decode,
    encode,
    query_key,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import RoutingDaemon, ServeConfig, ServeStats
from repro.serve.facade import QueryFacade, ResultCache
from repro.serve.follow import ChurnFeed, LinkEvent, follow, link_events
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "API_SCHEMA_VERSION",
    "BatchRequest",
    "BatchResponse",
    "ExposureQuery",
    "ExposureResult",
    "HijackQuery",
    "HijackQueryResult",
    "OutcomeBatch",
    "OutcomeBatchResult",
    "PathBatch",
    "PathBatchResult",
    "PathQuery",
    "PathResult",
    "QueryError",
    "WireError",
    "decode",
    "encode",
    "query_key",
    "ServeClient",
    "ServeError",
    "RoutingDaemon",
    "ServeConfig",
    "ServeStats",
    "QueryFacade",
    "ResultCache",
    "LiveRoutes",
    "ChurnReport",
    "ChurnFeed",
    "LinkEvent",
    "follow",
    "link_events",
    "MAX_FRAME_BYTES",
    "FrameError",
    "decode_frame",
    "encode_frame",
]
