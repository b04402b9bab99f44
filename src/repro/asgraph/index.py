"""Dense integer compilation of an :class:`~repro.asgraph.topology.ASGraph`.

The routing kernel spends its life iterating neighbour sets.  The mutable
``ASGraph`` stores them as per-AS ``set`` objects keyed by (sparse) AS
number, and every ``providers()``/``peers()``/``customers()`` call builds a
fresh ``frozenset`` — fine for construction and ad-hoc queries, hostile to
a kernel that touches every edge of an Internet-scale graph per run.

:class:`GraphIndex` compiles the topology once into flat arrays:

- a dense index ``0..n-1`` over the ASes, **assigned in ascending AS-number
  order** so comparing two dense indices compares the underlying AS numbers
  (the kernel's lowest-next-hop tiebreak works directly on indices);
- CSR (compressed sparse row) adjacency per relationship class:
  ``providers_of(i)`` is ``prov_adj[prov_start[i]:prov_start[i+1]]``, with
  ``array('i')`` storage — no per-node objects, picklable in one shot, and
  cheap to ship to worker processes.

Indexes are immutable snapshots.  :func:`graph_index` caches one per graph
object keyed by :attr:`ASGraph.version`, so mutating a graph transparently
invalidates its compilation (unlike the engine's fingerprint cache, no
manual ``invalidate`` call is needed).
"""

from __future__ import annotations

import threading
import weakref
from array import array
from typing import Dict, List, Tuple

from repro.asgraph.topology import ASGraph

__all__ = ["GraphIndex", "graph_index"]


class GraphIndex:
    """Immutable flat-array snapshot of an AS topology.

    Attributes
    ----------
    n:
        Number of ASes.
    asns:
        Dense index -> AS number, ascending (``asns[i] < asns[j]`` iff
        ``i < j``).
    idx:
        AS number -> dense index (inverse of ``asns``).
    prov_start / prov_adj, cust_start / cust_adj, peer_start / peer_adj:
        CSR adjacency: the neighbours of dense node ``i`` in class ``X``
        are ``X_adj[X_start[i]:X_start[i+1]]``.
    """

    __slots__ = (
        "n",
        "asns",
        "idx",
        "prov_start",
        "prov_adj",
        "cust_start",
        "cust_adj",
        "peer_start",
        "peer_adj",
    )

    def __init__(self, graph: ASGraph) -> None:
        asns: List[int] = sorted(graph.ases)
        idx: Dict[int, int] = {asn: i for i, asn in enumerate(asns)}
        self.n = len(asns)
        self.asns = asns
        self.idx = idx
        self.prov_start, self.prov_adj = self._csr(graph.providers, asns, idx)
        self.cust_start, self.cust_adj = self._csr(graph.customers, asns, idx)
        self.peer_start, self.peer_adj = self._csr(graph.peers, asns, idx)

    @staticmethod
    def _csr(neighbours, asns: List[int], idx: Dict[int, int]) -> Tuple[array, array]:
        adj = array("i")
        start = array("i", [0] * (len(asns) + 1))
        pos = 0
        for i, asn in enumerate(asns):
            row = sorted(idx[nbr] for nbr in neighbours(asn))
            adj.extend(row)
            pos += len(row)
            start[i + 1] = pos
        return start, adj

    # Picklable by default (plain slots of dict/list/array values); workers
    # receive a self-contained snapshot with no reference to the source graph.


_cache_lock = threading.Lock()
#: graph object -> (version it was compiled at, its index)
_index_cache: "weakref.WeakKeyDictionary[ASGraph, Tuple[int, GraphIndex]]" = (
    weakref.WeakKeyDictionary()
)


def graph_index(graph: ASGraph) -> GraphIndex:
    """The graph's cached :class:`GraphIndex`, recompiled after mutations.

    Compilation is O(V + E) and happens once per ``(graph, version)``; every
    fast-kernel run on an unmutated graph reuses the same snapshot.
    """
    with _cache_lock:
        entry = _index_cache.get(graph)
        if entry is not None and entry[0] == graph.version:
            return entry[1]
    compiled = GraphIndex(graph)
    with _cache_lock:
        entry = _index_cache.get(graph)
        if entry is not None and entry[0] == graph.version:
            return entry[1]
        _index_cache[graph] = (graph.version, compiled)
    return compiled
