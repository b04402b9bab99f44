"""AS-level Internet topology and Gao-Rexford policy routing."""

from repro.asgraph.relationships import Relationship, RouteKind
from repro.asgraph.topology import ASGraph
from repro.asgraph.generator import TopologyConfig, generate_topology
from repro.asgraph.routing import Route, as_path
from repro.asgraph.index import GraphIndex, graph_index
from repro.asgraph.fastpath import CompactOutcome, compute_routes_fast
from repro.asgraph.batch import BatchOutcome, compute_routes_many
from repro.asgraph.engine import (
    EngineStats,
    RoutingEngine,
    shared_engine,
    set_shared_engine,
)
from repro.asgraph.routecache import (
    ChurnReport,
    LiveRoutes,
    LiveStats,
    RouteCache,
    normalize_events,
)
from repro.asgraph.inference import InferenceResult, infer_relationships
from repro.asgraph.ixp import IXP, IXPModel, assign_ixps

__all__ = [
    "Relationship",
    "RouteKind",
    "ASGraph",
    "TopologyConfig",
    "generate_topology",
    "Route",
    "as_path",
    "GraphIndex",
    "graph_index",
    "CompactOutcome",
    "compute_routes_fast",
    "BatchOutcome",
    "compute_routes_many",
    "EngineStats",
    "RoutingEngine",
    "shared_engine",
    "set_shared_engine",
    "ChurnReport",
    "LiveRoutes",
    "LiveStats",
    "RouteCache",
    "normalize_events",
    "InferenceResult",
    "infer_relationships",
    "IXP",
    "IXPModel",
    "assign_ixps",
]
