"""Stateful incremental route maintenance on the flat-array substrate.

The month-trace workload (:mod:`repro.bgpsim.trace`) asks the same question
thousands of times: *given this origin, and this slightly-different set of
failed links, what are the vantage paths now?*  Answering every churn event
with a full Gao-Rexford propagation — even the flat-array one — makes a
month x thousands-of-prefixes sweep O(events · (V + E)).  Classic
incremental SPF observations apply here: a single link event invalidates
only the route subtree that crossed the link, and the rest of the forest is
provably untouched.

:class:`DynamicRoutingSession` holds the ``plen``/``parent``/``kind``/
``seed`` arrays of :func:`~repro.asgraph.fastpath.compute_routes_fast` as
*mutable* per-origin state, plus a children index over the parent-pointer
forest.  On :meth:`~DynamicRoutingSession.exclude_link`:

- a link that is not a parent edge of the forest is a guaranteed no-op
  (removing never-chosen candidates cannot change any per-node minimum):
  O(1);
- otherwise the subtree under the broken edge is detached and repaired in
  Gao-Rexford stage order, re-offering from the intact frontier with the
  same distance-bucket tiebreaks as a fresh run.  Stage-1/2 labels outside
  the subtree are provably unchanged by a removal, but a detached node
  whose route *shortens* while degrading rank (customer -> provider) can
  steal intact provider-kind customers — the stage-3 repair therefore
  carries an improve-detach cascade that re-opens any intact provider
  route beaten by a repaired label.

On :meth:`~DynamicRoutingSession.restore_link`, a first-order check asks
whether any offer across the restored link beats the label of either
endpoint; if not, the state is already the fixpoint (labels away from the
link are functions of unchanged labels) and the event is O(degree).  A
restore that matters rebuilds the session with one full kernel run —
additions cascade improvements *and* rank-upgrade worsenings and are not
worth a bespoke repair at this workload's restore rates.

Equivalence guarantee: after any sequence of events, the session state is
bit-for-bit what ``compute_routes_fast(graph, origins,
excluded_links=session.excluded_links, ...)`` would return — same paths,
same kinds, same tiebreaks.  ``tests/test_incremental.py`` pins this with
a hypothesis event-sequence property and hand-built adversarial
topologies; ``benchmarks/bench_incremental.py`` re-checks it on every run.

Sessions whose origins announce forged tails (crafted multi-hop paths)
always repair via full rebuild: re-parenting a node onto a different seed
changes which neighbours its tail filter blocks, which can leak route
changes outside the detached subtree.  The no-op fast paths still apply.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.asgraph.fastpath import CompactOutcome, compute_routes_fast
from repro.asgraph.index import graph_index
from repro.asgraph.relationships import RouteKind
from repro.asgraph.routing import Route, _normalise_origins, _OriginsArg
from repro.asgraph.topology import ASGraph

__all__ = ["SessionStats", "DynamicRoutingSession"]

_ORIGIN = int(RouteKind.ORIGIN)
_CUSTOMER = int(RouteKind.CUSTOMER)
_PEER = int(RouteKind.PEER)
_PROVIDER = int(RouteKind.PROVIDER)

_Link = FrozenSet[int]


@dataclass
class SessionStats:
    """Event accounting for one routing session."""

    #: exclude/restore calls that changed the exclusion set
    events: int = 0
    #: events proven routing-neutral without touching any route
    noops: int = 0
    #: exclusions repaired by detaching and re-offering a subtree
    subtree_repairs: int = 0
    #: events answered with a full kernel rerun (restores that matter,
    #: forged-tail sessions, graph mutations)
    full_rebuilds: int = 0
    #: nodes detached across all repairs (initial subtrees + improve-detach)
    nodes_detached: int = 0
    #: nodes re-finalised with a route across all repairs
    nodes_repaired: int = 0
    #: restores answered by replaying the last repair's undo log
    undo_restores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "events": self.events,
            "noops": self.noops,
            "subtree_repairs": self.subtree_repairs,
            "full_rebuilds": self.full_rebuilds,
            "nodes_detached": self.nodes_detached,
            "nodes_repaired": self.nodes_repaired,
            "undo_restores": self.undo_restores,
        }


class DynamicRoutingSession:
    """Mutable per-origin routing state with delta maintenance.

    Create one per origin (or announcement set), then drive it with
    :meth:`exclude_link` / :meth:`restore_link` / :meth:`set_excluded` and
    query with :meth:`path` / :meth:`route` / :meth:`outcome`.  Obtain
    sessions through :meth:`repro.asgraph.engine.RoutingEngine.session`.

    The graph is snapshotted via its cached
    :class:`~repro.asgraph.index.GraphIndex`; mutating the graph mid-session
    is detected on the next event (via ``graph.version``) and answered with
    a rebuild.
    """

    def __init__(
        self,
        graph: ASGraph,
        origins: _OriginsArg,
        *,
        excluded_links: Optional[Iterable[_Link]] = None,
        origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
    ) -> None:
        self.graph = graph
        seeds = _normalise_origins(origins)
        for asn in seeds:
            if asn not in graph:
                raise ValueError(f"origin AS{asn} not in topology")
        scopes = dict(origin_export_scopes) if origin_export_scopes else {}
        for asn in scopes:
            if asn not in seeds:
                raise ValueError(f"export scope given for non-origin AS{asn}")
        self._seeds = seeds
        self._scopes = scopes
        self._excluded: Set[_Link] = {
            frozenset(link) for link in (excluded_links or ())
        }
        #: undo log of the last subtree repair: (link, [(node, old labels)]).
        #: Valid only while the exclusion set stays exactly as that repair
        #: left it; lets a restore of the same link (the trace workload's
        #: dominant flap pattern) replay in O(affected) instead of a rebuild.
        self._undo: Optional[Tuple[_Link, List[Tuple[int, int, int, int, int]]]] = None
        self.stats = SessionStats()
        self._released = False
        self._bind_index()
        self._rebuild_full(count=False)

    # -- index/state plumbing ------------------------------------------------

    def __enter__(self) -> "DynamicRoutingSession":
        self._check_live()
        return self

    def __exit__(self, *_exc: object) -> None:
        # Guaranteed release even when the body raises — the
        # context-manager form is the recommended way to hold a session.
        self.release()

    def release(self) -> None:
        """Drop the session's routing state (undo log, children index,
        label arrays) so an evicted session cannot pin large per-origin
        arrays alive through lingering references.  Idempotent; any later
        event or query raises ``RuntimeError``.
        """
        if self._released:
            return
        self._released = True
        self._undo = None
        self._children = []
        self._plen = []
        self._parent = []
        self._kind = bytearray()
        self._seed = []
        self._num_routed = 0

    @property
    def released(self) -> bool:
        return self._released

    def _check_live(self) -> None:
        if self._released:
            raise RuntimeError("routing session has been released")

    def _bind_index(self) -> None:
        """(Re)compile the graph-derived structures."""
        self._graph_version = self.graph.version
        gi = graph_index(self.graph)
        self._gi = gi
        idx = gi.idx
        self._seed_list = sorted(self._seeds)
        self._seed_paths: Tuple[Tuple[int, ...], ...] = tuple(
            self._seeds[asn] for asn in self._seed_list
        )
        self._seed_tails: List[Optional[FrozenSet[int]]] = [
            frozenset(path) if len(path) > 1 else None for path in self._seed_paths
        ]
        #: forged tails leak route changes outside a detached subtree when a
        #: repair re-parents a node onto a different seed; those sessions
        #: repair via full rebuild (the no-op fast paths still apply)
        self._incremental_ok = all(tail is None for tail in self._seed_tails)
        self._scope_of: Dict[int, Set[int]] = {
            idx[asn]: {idx[b] for b in allowed if b in idx}
            for asn, allowed in self._scopes.items()
        }
        blocked: Set[Tuple[int, int]] = set()
        for link in self._excluded:
            pair = self._dense_pair(link)
            if pair is not None:
                blocked.add(pair)
                blocked.add((pair[1], pair[0]))
        self._blocked = blocked

    def _dense_pair(self, link: _Link) -> Optional[Tuple[int, int]]:
        if len(link) != 2:
            return None
        a, b = link
        idx = self._gi.idx
        ia = idx.get(a)
        ib = idx.get(b)
        if ia is None or ib is None:
            return None
        return (ia, ib)

    def _rebuild_full(self, count: bool = True) -> None:
        """Reset state from one full kernel run (the correctness anchor)."""
        out = compute_routes_fast(
            self.graph,
            self._seeds,
            excluded_links=frozenset(self._excluded),
            origin_export_scopes=self._scopes or None,
        )
        # Take ownership of the kernel's working arrays: the outcome object
        # is ours alone and is dropped here, so no aliasing escapes.
        self._plen: List[int] = out._plen
        self._parent: List[int] = out._parent
        self._kind: bytearray = out._kind
        self._seed: List[int] = out._seed
        self._num_routed = len(out)
        n = self._gi.n
        children: List[List[int]] = [[] for _ in range(n)]
        parent = self._parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p].append(i)
        self._children = children
        self._undo = None
        if count:
            self.stats.full_rebuilds += 1

    def _maybe_rebind(self) -> bool:
        if self.graph.version == self._graph_version:
            return False
        self._bind_index()
        self._rebuild_full()
        return True

    # -- events --------------------------------------------------------------

    def exclude_link(self, link: Iterable[int]) -> bool:
        """Treat ``link`` as down.  Returns True if the exclusion set grew.

        O(1) when the link is not a parent edge of the current route
        forest; otherwise detaches and repairs the invalidated subtree.
        """
        self._check_live()
        link = frozenset(link)
        if link in self._excluded:
            return False
        self._maybe_rebind()
        self._excluded.add(link)
        self.stats.events += 1
        self._undo = None  # the exclusion set moved past the logged repair
        pair = self._dense_pair(link)
        if pair is None:
            self.stats.noops += 1
            return True
        ia, ib = pair
        self._blocked.add((ia, ib))
        self._blocked.add((ib, ia))
        # A parent-pointer forest uses a link in at most one direction.
        if self._parent[ia] == ib:
            broken = ia
        elif self._parent[ib] == ia:
            broken = ib
        else:
            # Never-chosen candidates: removing them changes no minimum.
            self.stats.noops += 1
            return True
        if self._incremental_ok:
            self._repair_exclude(broken, link)
            self.stats.subtree_repairs += 1
        else:
            self._rebuild_full()
        return True

    def restore_link(self, link: Iterable[int]) -> bool:
        """Undo an exclusion.  Returns True if the exclusion set shrank.

        O(degree) when no offer across the restored link beats either
        endpoint's current label (the state is already the fixpoint);
        otherwise the session rebuilds with one kernel run.
        """
        self._check_live()
        link = frozenset(link)
        if link not in self._excluded:
            return False
        self._maybe_rebind()
        self._excluded.discard(link)
        self.stats.events += 1
        undo = self._undo
        self._undo = None
        pair = self._dense_pair(link)
        if pair is None:
            self.stats.noops += 1
            return True
        ia, ib = pair
        self._blocked.discard((ia, ib))
        self._blocked.discard((ib, ia))
        if undo is not None and undo[0] == link:
            # The exclusion set is back to exactly what it was before the
            # logged repair, so reverting the repair's label changes *is*
            # the fresh fixpoint for it.
            self._apply_undo(undo[1])
            self.stats.undo_restores += 1
            return True
        if self._restore_matters(ia, ib):
            self._rebuild_full()
        else:
            self.stats.noops += 1
        return True

    def set_excluded(self, links: Iterable[Iterable[int]]) -> bool:
        """Move the exclusion set to exactly ``links`` (diffed per link)."""
        self._check_live()
        target = {frozenset(link) for link in links}
        changed = False
        for link in sorted(self._excluded - target, key=sorted):
            changed |= self.restore_link(link)
        for link in sorted(target - self._excluded, key=sorted):
            changed |= self.exclude_link(link)
        return changed

    # -- restore first-order check -------------------------------------------

    @staticmethod
    def _in_row(start, adj, u: int, v: int) -> bool:
        lo, hi = start[u], start[u + 1]
        j = bisect_left(adj, v, lo, hi)
        return j < hi and adj[j] == v

    def _offer_allowed(self, u: int, v: int) -> bool:
        """Export filters for a (routed) ``u`` offering to neighbour ``v``."""
        tail = self._seed_tails[self._seed[u]]
        if tail is not None and self._gi.asns[v] in tail:
            return False
        if self._kind[u] == _ORIGIN:
            allowed = self._scope_of.get(u)
            if allowed is not None and v not in allowed:
                return False
        return True

    def _up_offer_beats(self, x: int, p: int) -> bool:
        """Would ``x``'s customer-route offer displace provider ``p``?"""
        plen, kind, parent = self._plen, self._kind, self._parent
        if not plen[x] or kind[x] > _CUSTOMER or not self._offer_allowed(x, p):
            return False
        if not plen[p]:
            return True
        if kind[p] == _ORIGIN:
            return False
        if kind[p] > _CUSTOMER:
            return True
        length = plen[x] + 1
        return length < plen[p] or (length == plen[p] and x < parent[p])

    def _peer_offer_beats(self, x: int, q: int) -> bool:
        plen, kind, parent = self._plen, self._kind, self._parent
        if not plen[x] or kind[x] > _CUSTOMER or not self._offer_allowed(x, q):
            return False
        if not plen[q]:
            return True
        if kind[q] < _PEER:
            return False
        if kind[q] > _PEER:
            return True
        length = plen[x] + 1
        return length < plen[q] or (length == plen[q] and x < parent[q])

    def _down_offer_beats(self, x: int, c: int) -> bool:
        plen, kind, parent = self._plen, self._kind, self._parent
        if not plen[x] or not self._offer_allowed(x, c):
            return False
        if not plen[c]:
            return True
        if kind[c] != _PROVIDER:
            return False
        length = plen[x] + 1
        return length < plen[c] or (length == plen[c] and x < parent[c])

    def _restore_matters(self, ia: int, ib: int) -> bool:
        """Does any offer across the restored link beat a current label?

        Labels elsewhere are functions of unchanged labels, so "no beat at
        either endpoint" proves the whole state is already the fixpoint.
        """
        gi = self._gi
        if self._in_row(gi.prov_start, gi.prov_adj, ia, ib):  # ib provides ia
            if self._up_offer_beats(ia, ib) or self._down_offer_beats(ib, ia):
                return True
        if self._in_row(gi.prov_start, gi.prov_adj, ib, ia):  # ia provides ib
            if self._up_offer_beats(ib, ia) or self._down_offer_beats(ia, ib):
                return True
        if self._in_row(gi.peer_start, gi.peer_adj, ia, ib):
            if self._peer_offer_beats(ia, ib) or self._peer_offer_beats(ib, ia):
                return True
        return False

    # -- subtree repair ------------------------------------------------------

    def _apply_undo(self, entries: List[Tuple[int, int, int, int, int]]) -> None:
        """Revert every label change logged by the last subtree repair."""
        plen, parent, kind, seed = self._plen, self._parent, self._kind, self._seed
        children = self._children
        routed_delta = 0
        for node, _pl, _pa, _ki, _se in entries:
            p = parent[node]
            if p >= 0:
                children[p].remove(node)
        for node, pl, pa, ki, se in entries:
            if plen[node]:
                routed_delta -= 1
            if pl:
                routed_delta += 1
            plen[node] = pl
            parent[node] = pa
            kind[node] = ki
            seed[node] = se
        for node, _pl, pa, _ki, _se in entries:
            if pa >= 0:
                children[pa].append(node)
        self._num_routed += routed_delta

    def _repair_exclude(self, broken: int, link: _Link) -> None:
        """Detach the subtree under ``broken`` and re-route it in stage order.

        Equivalence argument (plain announcements only; link *removals*):
        stage-1/2 labels of nodes outside the detached subtree cannot
        change — their chosen offers survive, and surviving non-chosen
        candidates only lengthen, so no minimum or tiebreak moves.  Intact
        provider-kind labels *can* improve when a repaired label shortens
        (rank degradation customer->provider can shorten the path while
        worsening the rank); the stage-3 loop below detects every such
        offer and re-opens the beaten node's subtree, processing it in the
        same global distance-bucket order a fresh run would.
        """
        gi = self._gi
        plen, parent, kind, seed = self._plen, self._parent, self._kind, self._seed
        children = self._children
        asns = gi.asns
        blocked = self._blocked
        scope_of = self._scope_of
        tails = self._seed_tails
        prov_start, prov_adj = gi.prov_start, gi.prov_adj
        cust_start, cust_adj = gi.cust_start, gi.cust_adj
        peer_start, peer_adj = gi.peer_start, gi.peer_adj

        # Detach: collect forest descendants, clear labels, drop child lists
        # (all children of a detached node are detached with it).
        children[parent[broken]].remove(broken)
        detached: List[int] = [broken]
        stack = [broken]
        while stack:
            node = stack.pop()
            kids = children[node]
            if kids:
                detached.extend(kids)
                stack.extend(kids)
                children[node] = []
        undo_log: List[Tuple[int, int, int, int, int]] = [
            (node, plen[node], parent[node], kind[node], seed[node])
            for node in detached
        ]
        undo_seen = set(detached)
        for node in detached:
            plen[node] = 0
            parent[node] = -1
            kind[node] = 0
            seed[node] = -1
        self._num_routed -= len(detached)
        self.stats.nodes_detached += len(detached)
        region = set(detached)

        pend: Dict[int, Tuple[int, int]] = {}
        buckets: Dict[int, List[int]] = {}

        def may_offer(u: int, v: int) -> bool:
            if (u, v) in blocked:
                return False
            tail = tails[seed[u]]
            if tail is not None and asns[v] in tail:
                return False
            if kind[u] == _ORIGIN:
                allowed = scope_of.get(u)
                if allowed is not None and v not in allowed:
                    return False
            return True

        def offer(v: int, length: int, via: int) -> None:
            cur = pend.get(v)
            if cur is None or length < cur[0]:
                pend[v] = (length, via)
                bucket = buckets.get(length)
                if bucket is None:
                    buckets[length] = [v]
                else:
                    bucket.append(v)
            elif length == cur[0] and via < cur[1]:
                pend[v] = (length, via)

        repaired: List[int] = []

        def finalize(v: int, length: int, via: int, kind_val: int) -> None:
            plen[v] = length
            parent[v] = via
            kind[v] = kind_val
            seed[v] = seed[via]
            children[via].append(v)
            self._num_routed += 1
            repaired.append(v)

        # Stage 1: customer routes.  Seed every detached node from its
        # (stage-1 routed) customers, then bucket-propagate inside the
        # region; offers to intact nodes are provably no-ops on a removal.
        for d in detached:
            for j in range(cust_start[d], cust_start[d + 1]):
                x = cust_adj[j]
                if plen[x] and kind[x] <= _CUSTOMER and may_offer(x, d):
                    offer(d, plen[x] + 1, x)
        while buckets:
            cur = min(buckets)
            for v in buckets.pop(cur):
                entry = pend.get(v)
                if plen[v] or entry is None or entry[0] != cur:
                    continue
                finalize(v, cur, entry[1], _CUSTOMER)
                for j in range(prov_start[v], prov_start[v + 1]):
                    p = prov_adj[j]
                    if not plen[p] and p in region and may_offer(v, p):
                        offer(p, cur + 1, v)
        pend.clear()

        # Stage 2: peer routes for regional nodes still unrouted, each from
        # its own peer row against the repaired stage-1 state.  (Assignments
        # cannot feed each other: peer routes are not exported to peers.)
        for d in detached:
            if plen[d]:
                continue
            best_len = 0
            best_via = -1
            for j in range(peer_start[d], peer_start[d + 1]):
                x = peer_adj[j]
                if not plen[x] or kind[x] > _CUSTOMER or not may_offer(x, d):
                    continue
                length = plen[x] + 1
                if best_len == 0 or length < best_len or (
                    length == best_len and x < best_via
                ):
                    best_len = length
                    best_via = x
            if best_len:
                finalize(d, best_len, best_via, _PEER)

        # Stage 3: provider routes, with the improve-detach cascade.
        def seed_from_providers(d: int) -> None:
            for j in range(prov_start[d], prov_start[d + 1]):
                x = prov_adj[j]
                if plen[x] and may_offer(x, d):
                    offer(d, plen[x] + 1, x)

        def push_down(u: int) -> None:
            length = plen[u] + 1
            for j in range(cust_start[u], cust_start[u + 1]):
                v = cust_adj[j]
                if not may_offer(u, v):
                    continue
                pv = plen[v]
                if pv:
                    # Only a provider-kind route can be displaced, and only
                    # by a strictly better (or tiebreak-winning) offer.
                    if kind[v] == _PROVIDER and (
                        length < pv or (length == pv and u < parent[v])
                    ):
                        offer(v, length, u)
                elif v in region:
                    offer(v, length, u)

        down_sources = list(repaired)
        for d in detached:
            if not plen[d]:
                seed_from_providers(d)
        for u in down_sources:
            push_down(u)

        def improve_detach(root: int) -> None:
            """Re-open an intact provider route beaten by a repaired label.

            The root is re-finalised immediately by the caller; its
            descendants (all intact: a regional node cannot sit below a
            node whose label exceeds the current bucket) re-enter the
            bucket queue at lengths >= the current bucket.
            """
            children[parent[root]].remove(root)
            sub = [root]
            stack2 = [root]
            while stack2:
                node = stack2.pop()
                kids = children[node]
                if kids:
                    sub.extend(kids)
                    stack2.extend(kids)
                    children[node] = []
            for node in sub:
                if node not in undo_seen:
                    undo_seen.add(node)
                    undo_log.append(
                        (node, plen[node], parent[node], kind[node], seed[node])
                    )
            for node in sub:
                plen[node] = 0
                parent[node] = -1
                kind[node] = 0
                seed[node] = -1
            self._num_routed -= len(sub)
            self.stats.nodes_detached += len(sub)
            region.update(sub)
            for node in sub:
                if node != root:
                    # Stale candidates die with the detach; the rescan (and
                    # later pushes from re-finalised nodes) re-seed them.
                    pend.pop(node, None)
                    seed_from_providers(node)

        while buckets:
            cur = min(buckets)
            for v in buckets.pop(cur):
                entry = pend.get(v)
                if entry is None or entry[0] != cur:
                    continue
                via = entry[1]
                pv = plen[v]
                if pv:
                    # Re-validate at pop time: a duplicate bucket entry may
                    # surface after the node was already re-finalised.
                    if kind[v] != _PROVIDER or not (
                        cur < pv or (cur == pv and via < parent[v])
                    ):
                        continue
                    improve_detach(v)
                finalize(v, cur, via, _PROVIDER)
                push_down(v)

        self.stats.nodes_repaired += len(repaired)
        self._undo = (link, undo_log)

    # -- queries -------------------------------------------------------------

    @property
    def origins(self) -> Tuple[int, ...]:
        return tuple(self._seed_list)

    @property
    def excluded_links(self) -> FrozenSet[_Link]:
        return frozenset(self._excluded)

    def path(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the prefix under the current exclusions."""
        self._check_live()
        i = self._gi.idx.get(asn)
        if i is None or not self._plen[i]:
            return None
        parent = self._parent
        chain: List[int] = []
        node = i
        while parent[node] >= 0:
            chain.append(node)
            node = parent[node]
        path = self._seed_paths[self._seed[node]]
        asns = self._gi.asns
        for node in reversed(chain):
            path = (asns[node],) + path
        return path

    def route(self, asn: int) -> Optional[Route]:
        path = self.path(asn)
        if path is None:
            return None
        return Route(path=path, kind=RouteKind(self._kind[self._gi.idx[asn]]))

    def outcome(self) -> CompactOutcome:
        """An immutable snapshot of the current state (arrays are copied)."""
        self._check_live()
        return CompactOutcome(
            self._gi,
            list(self._plen),
            list(self._parent),
            bytearray(self._kind),
            list(self._seed),
            self._seed_paths,
            tuple(self._seed_list),
            self._num_routed,
        )

    def __len__(self) -> int:
        return self._num_routed

    def verify(self) -> None:
        """Assert state equals a fresh full recompute (debug/test aid)."""
        fresh = compute_routes_fast(
            self.graph,
            self._seeds,
            excluded_links=frozenset(self._excluded),
            origin_export_scopes=self._scopes or None,
        )
        gi = self._gi
        for i, asn in enumerate(gi.asns):
            want = fresh.path(asn)
            got = self.path(asn)
            if want != got:
                raise AssertionError(
                    f"session diverged at AS{asn}: {got} != {want} "
                    f"(excluded={sorted(map(sorted, self._excluded))})"
                )
            want_kind = fresh._kind[i]
            if self._plen[i] and self._kind[i] != want_kind:
                raise AssertionError(
                    f"session kind diverged at AS{asn}: "
                    f"{self._kind[i]} != {want_kind}"
                )
