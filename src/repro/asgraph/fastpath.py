"""Flat-array Gao-Rexford route computation: the routing kernel.

Three stages (customer routes up, one peering hop across, provider routes
down; ties by AS-path length then lowest next-hop AS number), run over
the compiled :class:`~repro.asgraph.index.GraphIndex` with
**parent-pointer routes**:

- a candidate is three ints (total path length, via node, seed id), not
  a path tuple, so an edge relaxation never pays an O(path-length) tuple
  concatenation or a ``Route`` allocation;
- finalised state is four flat arrays (``plen``/``parent``/``kind``/
  ``seed``), offers are O(1), a stage is O(V + E), and full AS paths are
  reconstructed lazily by walking predecessors only when a caller actually
  asks for them (:class:`CompactOutcome`).

Loop prevention over forged announced paths is exact: a node on the
*propagated* part of a candidate path is always already routed (the
kernel only extends finalised routes), so the textbook ``target in path``
check reduces to membership in the announcing seed's forged tail — an
O(1) frozenset probe against the seed the candidate descends from.

Outcome-for-outcome equivalence with the path-tuple reference kernel in
``tests/oracle/routing.py`` (including the ``targets`` early exit,
``excluded_links``, ``origin_export_scopes`` and the tiebreak order) is
pinned by ``tests/test_fastpath.py`` and ``tests/test_routing.py``, and
re-checked by ``benchmarks/bench_kernel.py`` on every benchmark run.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Set,
    Tuple,
)

from repro.asgraph.index import GraphIndex, graph_index
from repro.asgraph.relationships import RouteKind
from repro.asgraph.routing import Route, _normalise_origins, _OriginsArg
from repro.asgraph.topology import ASGraph

__all__ = ["CompactOutcome", "compute_routes_fast"]

_ORIGIN = int(RouteKind.ORIGIN)
_CUSTOMER = int(RouteKind.CUSTOMER)
_PEER = int(RouteKind.PEER)
_PROVIDER = int(RouteKind.PROVIDER)


class CompactOutcome:
    """Routing outcome stored as parent-pointer arrays, materialised lazily.

    Exposes the :class:`~repro.asgraph.routing.RoutingOutcome` API
    (``path``/``route``/``reachable_ases``/``capture_set``/
    ``capture_set_via``/``ases_on_path``/``items``/``len``) so engine
    callers run unchanged.  A cached entry costs O(V) ints instead of
    O(V · avg-path-length) tuples; paths are rebuilt (and then memoised) by
    walking the predecessor chain only for the ASes a caller asks about.
    """

    __slots__ = (
        "_gi",
        "_plen",
        "_parent",
        "_kind",
        "_seed",
        "_seed_paths",
        "_origins",
        "_num_routed",
        "_paths",
        "_reachable",
    )

    def __init__(
        self,
        gi: GraphIndex,
        plen: List[int],
        parent: List[int],
        kind: bytearray,
        seed: List[int],
        seed_paths: Tuple[Tuple[int, ...], ...],
        origins: Tuple[int, ...],
        num_routed: int,
    ) -> None:
        self._gi = gi
        self._plen = plen
        self._parent = parent
        self._kind = kind
        self._seed = seed
        self._seed_paths = seed_paths
        self._origins = origins
        self._num_routed = num_routed
        self._paths: Dict[int, Tuple[int, ...]] = {}
        self._reachable: Optional[FrozenSet[int]] = None

    # -- RoutingOutcome API --------------------------------------------------

    @property
    def origins(self) -> Tuple[int, ...]:
        return self._origins

    def _path_of(self, i: int) -> Tuple[int, ...]:
        """Materialise node ``i``'s path by walking parents (memoised)."""
        paths = self._paths
        cached = paths.get(i)
        if cached is not None:
            return cached
        chain: List[int] = []
        node = i
        parent = self._parent
        while node not in paths and parent[node] >= 0:
            chain.append(node)
            node = parent[node]
        suffix = paths.get(node)
        if suffix is None:
            suffix = self._seed_paths[self._seed[node]]
            paths[node] = suffix
        asns = self._gi.asns
        for node in reversed(chain):
            suffix = (asns[node],) + suffix
            paths[node] = suffix
        return suffix

    def route(self, asn: int) -> Optional[Route]:
        i = self._gi.idx.get(asn)
        if i is None or not self._plen[i]:
            return None
        return Route(path=self._path_of(i), kind=RouteKind(self._kind[i]))

    def path(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the prefix (inclusive), or None."""
        i = self._gi.idx.get(asn)
        if i is None or not self._plen[i]:
            return None
        return self._path_of(i)

    def reachable_ases(self) -> FrozenSet[int]:
        if self._reachable is None:
            asns = self._gi.asns
            plen = self._plen
            self._reachable = frozenset(
                asns[i] for i in range(self._gi.n) if plen[i]
            )
        return self._reachable

    def capture_set(self, origin: int) -> FrozenSet[int]:
        """ASes whose selected route terminates at ``origin``.

        Resolved from the per-node seed id — no path materialisation.
        """
        seed_origin = [path[-1] for path in self._seed_paths]
        asns = self._gi.asns
        plen = self._plen
        seed = self._seed
        return frozenset(
            asns[i]
            for i in range(self._gi.n)
            if plen[i] and seed_origin[seed[i]] == origin
        )

    def capture_set_via(self, announcer: int) -> FrozenSet[int]:
        """ASes whose selected path crosses ``announcer``.

        One O(V) sweep over parent pointers (a node's path crosses the
        announcer iff the node *is* the announcer or its parent's path
        crosses it; seeds check their announced tail) — again no tuples.
        """
        gi = self._gi
        plen = self._plen
        parent = self._parent
        seed = self._seed
        ann_idx = gi.idx.get(announcer, -1)
        seed_hit = [announcer in path for path in self._seed_paths]
        # 0 = unknown, 1 = on path, 2 = not on path
        mark = bytearray(gi.n)
        out: List[int] = []
        asns = gi.asns
        for i in range(gi.n):
            if not plen[i] or mark[i]:
                continue
            stack: List[int] = []
            node = i
            while not mark[node]:
                if node == ann_idx:
                    mark[node] = 1
                    break
                if parent[node] < 0:
                    mark[node] = 1 if seed_hit[seed[node]] else 2
                    break
                stack.append(node)
                node = parent[node]
            verdict = mark[node]
            for node in stack:
                mark[node] = verdict
        for i in range(gi.n):
            if plen[i] and mark[i] == 1:
                out.append(asns[i])
        return frozenset(out)

    def ases_on_path(self, asn: int) -> FrozenSet[int]:
        """All ASes traversed from ``asn`` to the prefix, endpoints included."""
        path = self.path(asn)
        return frozenset(path) if path is not None else frozenset()

    def items(self) -> Iterable[Tuple[int, Route]]:
        gi = self._gi
        plen = self._plen
        kind = self._kind
        for i in range(gi.n):
            if plen[i]:
                yield gi.asns[i], Route(path=self._path_of(i), kind=RouteKind(kind[i]))

    def __len__(self) -> int:
        return self._num_routed

    # -- fast-path extras ----------------------------------------------------

    def rebind_index(self, gi: GraphIndex) -> None:
        """Swap in an equivalent :class:`GraphIndex` (same topology).

        Used when outcomes computed in worker processes are folded back
        into the parent's cache: every outcome then shares the parent's
        single index snapshot instead of carrying its own unpickled copy.
        """
        if gi.n != self._gi.n or gi.asns != self._gi.asns:
            raise ValueError("rebind_index requires an index over the same ASes")
        self._gi = gi


def compute_routes_fast(
    graph: ASGraph,
    origins: _OriginsArg,
    excluded_links: Optional[Iterable[FrozenSet[int]]] = None,
    origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
    targets: Optional[FrozenSet[int]] = None,
    stage_timings: Optional[MutableMapping[str, float]] = None,
) -> CompactOutcome:
    """Compute every AS's best Gao-Rexford route to a prefix.

    ``origins`` is an iterable of origin ASNs (each announcing ``(asn,)``)
    or a mapping ``asn -> announced_as_path`` for crafted announcements,
    which must start with the announcing AS: an attacker 66 forging origin
    1 announces ``{66: (66, 1)}``.  ``excluded_links`` (``frozenset({a,
    b})`` pairs) are treated as down, which is how failure what-ifs and
    scoped announcements are expressed without mutating the graph.
    ``origin_export_scopes`` restricts which neighbours an origin announces
    its own route to (an interception attacker limiting its blast radius,
    §3.2).  ``targets`` is an early-exit set: routes for targets are exact,
    other ASes may be missing from the outcome.  Wall seconds per
    propagation stage are *added* to ``stage_timings`` under
    ``"customer"``, ``"peer"`` and ``"provider"``.

    Loop prevention is enforced: an AS never accepts a path already
    containing its own number, so the victim and the ASes on a forged tail
    reject the forged announcement.
    """
    seeds = _normalise_origins(origins)
    for asn in seeds:
        if asn not in graph:
            raise ValueError(f"origin AS{asn} not in topology")
    excluded = frozenset(excluded_links) if excluded_links else frozenset()
    scopes = dict(origin_export_scopes) if origin_export_scopes else {}
    for asn in scopes:
        if asn not in seeds:
            raise ValueError(f"export scope given for non-origin AS{asn}")

    gi = graph_index(graph)
    n = gi.n
    idx = gi.idx
    asns = gi.asns

    # Per-node state: total path length (0 = unrouted), predecessor
    # (-1 = announcing seed), route kind, and which seed the route descends
    # from (index into seed_list).
    plen = [0] * n
    parent = [-1] * n
    kind = bytearray(n)
    seed = [-1] * n

    seed_list = sorted(seeds)
    seed_paths = tuple(seeds[asn] for asn in seed_list)
    # Forged-tail membership sets for O(1) loop prevention.  A tail of just
    # the announcer needs no check: the announcer is routed from the start,
    # so the plen check already rejects it.
    seed_tails: List[Optional[FrozenSet[int]]] = [
        frozenset(path) if len(path) > 1 else None for path in seed_paths
    ]
    routed: List[int] = []
    for sid, asn in enumerate(seed_list):
        i = idx[asn]
        plen[i] = len(seed_paths[sid])
        kind[i] = _ORIGIN
        seed[i] = sid
        routed.append(i)

    # Excluded links as a directed set of dense pairs (both orientations).
    blocked: Optional[Set[Tuple[int, int]]] = None
    if excluded:
        blocked = set()
        for link in excluded:
            if len(link) != 2:
                continue
            a, b = link
            ia = idx.get(a)
            ib = idx.get(b)
            if ia is not None and ib is not None:
                blocked.add((ia, ib))
                blocked.add((ib, ia))
        if not blocked:
            blocked = None

    # Export scopes: dense origin node -> allowed dense neighbours.  Only
    # ever consulted for seed nodes (an origin's route keeps kind ORIGIN).
    scope_of: Dict[int, Set[int]] = {}
    for asn, allowed in scopes.items():
        scope_of[idx[asn]] = {idx[b] for b in allowed if b in idx}

    remaining: Optional[Set[int]] = None
    if targets is not None:
        # A target AS outside the topology can never be routed; the -1
        # sentinel keeps the early exit from ever firing, as in the reference.
        remaining = {idx.get(t, -1) for t in targets}
        for i in routed:
            remaining.discard(i)

    def stamp(stage: str, started: float) -> None:
        if stage_timings is not None:
            stage_timings[stage] = stage_timings.get(stage, 0.0) + (
                time.perf_counter() - started
            )

    def outcome() -> CompactOutcome:
        return CompactOutcome(
            gi,
            plen,
            parent,
            kind,
            seed,
            seed_paths,
            tuple(seed_list),
            len(routed),
        )

    # Stage 1: customer routes flow up provider links from the origins.
    t0 = time.perf_counter()
    _propagate_flat(
        gi.prov_start,
        gi.prov_adj,
        plen,
        parent,
        kind,
        seed,
        _CUSTOMER,
        list(routed),
        routed,
        remaining,
        blocked,
        scope_of,
        seed_tails,
        asns,
    )
    stamp("customer", t0)

    # Stage 2: peer routes are learned across a single peering hop from the
    # stage-1 snapshot.
    if remaining is None or remaining:
        t0 = time.perf_counter()
        peer_start = gi.peer_start
        peer_adj = gi.peer_adj
        snapshot_len = len(routed)  # stage-1 routed nodes only are sources

        if remaining:
            # Targets first, from their own peer rows: if this completes the
            # target set, the rest of the frontier is never materialised.
            phase_a: Dict[int, Tuple[int, int]] = {}
            for v in sorted(remaining):
                if v < 0:
                    continue
                best_l = 0
                best_u = -1
                v_asn = asns[v]
                for j in range(peer_start[v], peer_start[v + 1]):
                    u = peer_adj[j]
                    lu = plen[u]
                    if not lu:
                        continue
                    tail = seed_tails[seed[u]]
                    if tail is not None and v_asn in tail:
                        continue
                    if blocked is not None and (u, v) in blocked:
                        continue
                    allowed = scope_of.get(u)
                    if allowed is not None and kind[u] == _ORIGIN and v not in allowed:
                        continue
                    lu += 1
                    if best_l == 0 or lu < best_l or (lu == best_l and u < best_u):
                        best_l = lu
                        best_u = u
                if best_l:
                    phase_a[v] = (best_l, best_u)
            for v, (l, u) in phase_a.items():
                plen[v] = l
                parent[v] = u
                kind[v] = _PEER
                seed[v] = seed[u]
                routed.append(v)
                remaining.discard(v)
            if not remaining:
                stamp("peer", t0)
                return outcome()

        pend_len = [0] * n
        pend_via = [0] * n
        touched: List[int] = []
        for k in range(snapshot_len):
            u = routed[k]
            a0 = peer_start[u]
            a1 = peer_start[u + 1]
            if a0 == a1:
                continue
            lu = plen[u] + 1
            tail = seed_tails[seed[u]]
            allowed = scope_of.get(u)
            for j in range(a0, a1):
                v = peer_adj[j]
                if plen[v]:
                    continue
                if tail is not None and asns[v] in tail:
                    continue
                if blocked is not None and (u, v) in blocked:
                    continue
                if allowed is not None and v not in allowed:
                    continue
                pl = pend_len[v]
                if pl == 0:
                    pend_len[v] = lu
                    pend_via[v] = u
                    touched.append(v)
                elif lu < pl or (lu == pl and u < pend_via[v]):
                    pend_len[v] = lu
                    pend_via[v] = u
        for v in touched:
            u = pend_via[v]
            plen[v] = pend_len[v]
            parent[v] = u
            kind[v] = _PEER
            seed[v] = seed[u]
            routed.append(v)
            if remaining is not None:
                remaining.discard(v)
        stamp("peer", t0)

    # Stage 3: provider routes flow down customer links from everyone routed.
    if remaining is None or remaining:
        t0 = time.perf_counter()
        _propagate_flat(
            gi.cust_start,
            gi.cust_adj,
            plen,
            parent,
            kind,
            seed,
            _PROVIDER,
            list(routed),
            routed,
            remaining,
            blocked,
            scope_of,
            seed_tails,
            asns,
        )
        stamp("provider", t0)

    return outcome()


def _propagate_flat(
    start,
    adj,
    plen: List[int],
    parent: List[int],
    kind: bytearray,
    seed: List[int],
    kind_val: int,
    sources: List[int],
    routed: List[int],
    remaining: Optional[Set[int]],
    blocked: Optional[Set[Tuple[int, int]]],
    scope_of: Dict[int, Set[int]],
    seed_tails: List[Optional[FrozenSet[int]]],
    asns: List[int],
) -> None:
    """Distance-synchronous relaxation used by stages 1 and 3.

    Mirrors the reference kernel's round structure exactly — finalise
    every node whose best candidate has the globally minimal total path
    length, then extend from the newly routed — but a candidate is just
    ``(length, via)`` kept as the per-node minimum, bucketed by length.
    Candidate lengths produced after the initial offers are monotonically
    non-decreasing, so a per-node minimum plus lazy bucket entries finalises
    the same route the reference's all-candidates scan does.
    """
    n = len(plen)
    pend_len = [0] * n
    pend_via = [0] * n
    buckets: Dict[int, List[int]] = {}

    def offer_from(u: int) -> None:
        a0 = start[u]
        a1 = start[u + 1]
        if a0 == a1:
            return
        lu = plen[u] + 1
        tail = seed_tails[seed[u]]
        allowed = scope_of.get(u) if (scope_of and kind[u] == _ORIGIN) else None
        for j in range(a0, a1):
            v = adj[j]
            if plen[v]:
                continue
            if tail is not None and asns[v] in tail:
                continue
            if blocked is not None and (u, v) in blocked:
                continue
            if allowed is not None and v not in allowed:
                continue
            pl = pend_len[v]
            if pl == 0 or lu < pl:
                pend_len[v] = lu
                pend_via[v] = u
                bucket = buckets.get(lu)
                if bucket is None:
                    buckets[lu] = [v]
                else:
                    bucket.append(v)
            elif lu == pl and u < pend_via[v]:
                pend_via[v] = u

    for u in sources:
        offer_from(u)

    while buckets:
        if remaining is not None and not remaining:
            return
        cur = min(buckets)
        newly: List[int] = []
        for v in buckets.pop(cur):
            if plen[v] or pend_len[v] != cur:
                continue  # routed at a shorter length, or a stale entry
            u = pend_via[v]
            plen[v] = cur
            parent[v] = u
            kind[v] = kind_val
            seed[v] = seed[u]
            routed.append(v)
            if remaining is not None:
                remaining.discard(v)
            newly.append(v)
        for u in newly:
            offer_from(u)
