"""Reference Gao-Rexford route computation: one path tuple per candidate.

This is the kernel the program shipped before the flat-array
:func:`repro.asgraph.fastpath.compute_routes_fast` replaced it.  It keeps
the textbook statement of the algorithm used by the AS-path inference
literature the paper builds on (Gao 2001) and by BGP attack studies:

1. *customer routes* propagate from the origins up provider links;
2. *peer routes* are learned one hop across peering links;
3. *provider routes* propagate down customer links.

Within a stage, ties are broken by AS-path length and then by lowest
next-hop AS number (a deterministic stand-in for BGP's router-ID
tiebreak).  Every candidate carries its whole AS path, so loop prevention
is a literal ``asn in path`` test rather than the fast kernel's forged-tail
probe.  Its answer is a :class:`RoutingOutcome`: a dict of whole
:class:`~repro.asgraph.routing.Route` objects behind the same outcome API
as the shipped :class:`~repro.asgraph.fastpath.CompactOutcome`.
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

from repro.asgraph.relationships import RouteKind
from repro.asgraph.routing import Route, _normalise_origins, _OriginsArg
from repro.asgraph.topology import ASGraph

__all__ = ["RoutingOutcome", "compute_routes"]

_Link = FrozenSet[int]


class RoutingOutcome:
    """The routes every AS selected for one announced prefix."""

    def __init__(self, routes: Dict[int, Route], origins: Tuple[int, ...]) -> None:
        self._routes = routes
        self._origins = origins

    @property
    def origins(self) -> Tuple[int, ...]:
        return self._origins

    def route(self, asn: int) -> Optional[Route]:
        return self._routes.get(asn)

    def path(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the prefix (inclusive), or None."""
        route = self._routes.get(asn)
        return route.path if route is not None else None

    def reachable_ases(self) -> FrozenSet[int]:
        return frozenset(self._routes)

    def capture_set(self, origin: int) -> FrozenSet[int]:
        """ASes whose selected route terminates at ``origin``.

        With a victim and an attacker both announcing, this is the set of
        ASes the attacker attracts (the hijack's blast radius).  Origins
        themselves are included (they route to themselves).

        For *forged-origin* announcements (an attacker announcing
        ``(attacker, victim)``) the path terminates at the victim, so use
        :meth:`capture_set_via` with the attacker's ASN instead.
        """
        return frozenset(asn for asn, route in self._routes.items() if route.origin == origin)

    def capture_set_via(self, announcer: int) -> FrozenSet[int]:
        """ASes whose selected path crosses ``announcer``.

        When ``announcer`` originated a (possibly forged) announcement for
        this prefix, every selected path containing it was attracted by
        that announcement — its actual traffic lands at the announcer
        regardless of the AS numbers it prepended.
        """
        return frozenset(
            asn for asn, route in self._routes.items() if announcer in route.path
        )

    def ases_on_path(self, asn: int) -> FrozenSet[int]:
        """All ASes traversed from ``asn`` to the prefix, endpoints included."""
        path = self.path(asn)
        return frozenset(path) if path is not None else frozenset()

    def items(self) -> Iterable[Tuple[int, Route]]:
        return self._routes.items()

    def __len__(self) -> int:
        return len(self._routes)


def compute_routes(
    graph: ASGraph,
    origins: _OriginsArg,
    excluded_links: Optional[Iterable[FrozenSet[int]]] = None,
    origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
    targets: Optional[FrozenSet[int]] = None,
    stage_timings: Optional[MutableMapping[str, float]] = None,
) -> RoutingOutcome:
    """Compute every AS's best Gao-Rexford route to a prefix.

    Parameters
    ----------
    graph:
        The AS topology.
    origins:
        Either an iterable of origin ASNs (each announcing ``(asn,)``), or a
        mapping ``asn -> announced_as_path`` for crafted announcements.  A
        crafted path must start with the announcing AS; e.g. an attacker 66
        forging origin 1 announces ``{66: (66, 1)}``.
    excluded_links:
        Links (as ``frozenset({a, b})`` pairs) to treat as down.
    origin_export_scopes:
        Optional per-origin restriction of which neighbours the origin
        announces to (``origin -> allowed neighbour set``).
    targets:
        Optional early-exit set: stop as soon as every target AS has a
        route.  Routes for targets are exact (the staged computation
        finalises an AS only when no better route can still appear); other
        ASes may be missing from the outcome.  The exit is honoured within
        stage 1, between stages, within stage 2 (remaining targets are
        served from their own peer rows first; the rest of the peer
        frontier is only built if targets are still missing, since those
        routes feed stage 3), and within stage 3.
    stage_timings:
        Optional accumulator mapping; wall seconds spent in each
        propagation stage are *added* under ``"customer"``, ``"peer"`` and
        ``"provider"``.

    Notes
    -----
    Loop prevention is enforced: an AS never accepts a path already
    containing its own number (this is what limits origin-forging attacks —
    the victim and ASes on the forged tail reject the announcement).
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

    routes: Dict[int, Route] = {
        asn: Route(path=path, kind=RouteKind.ORIGIN) for asn, path in seeds.items()
    }

    # Shrinking early-exit set: a target is discarded the moment it is
    # routed.  Targets outside the topology can never be routed and keep
    # the exit from firing.
    remaining = set(targets) - routes.keys() if targets is not None else None

    def usable(a: int, b: int) -> bool:
        if frozenset((a, b)) in excluded:
            return False
        # An origin only exports its own announcement within its scope; once
        # the route has propagated, downstream ASes export normally.
        scope = scopes.get(a)
        if scope is not None and routes.get(a) is not None and routes[a].kind is RouteKind.ORIGIN:
            return b in scope
        return True

    def done() -> bool:
        return remaining is not None and not remaining

    def stamp(stage: str, started: float) -> None:
        if stage_timings is not None:
            stage_timings[stage] = stage_timings.get(stage, 0.0) + (
                time.perf_counter() - started
            )

    # Stage 1: customer routes flow up provider links from the origins.
    # Routes are final as soon as they are assigned (no later stage can
    # displace a customer route), so the early exit applies here too.
    t0 = time.perf_counter()
    _propagate(
        graph,
        routes,
        sources=dict(routes),
        next_ases=lambda asn: (p for p in graph.providers(asn) if usable(asn, p)),
        kind=RouteKind.CUSTOMER,
        remaining=remaining,
    )
    stamp("customer", t0)

    # Stage 2: peer routes are learned across a single peering hop from the
    # stage-1 snapshot.
    if not done():
        t0 = time.perf_counter()
        stage1 = dict(routes)
        if remaining:
            # Serve remaining targets from their own peer rows first: if
            # that completes the target set, the whole-frontier candidate
            # build (only needed as stage-3 sources) is skipped entirely.
            for target in sorted(remaining):
                candidates = [
                    Route(path=(target,) + stage1[peer].path, kind=RouteKind.PEER)
                    for peer in graph.peers(target)
                    if peer in stage1
                    and target not in stage1[peer].path
                    and usable(peer, target)
                ]
                if candidates:
                    routes[target] = min(candidates, key=_route_sort_key)
                    remaining.discard(target)
        if not done():
            peer_candidates: Dict[int, List[Route]] = {}
            for asn, route in stage1.items():
                for peer in graph.peers(asn):
                    if peer in routes:
                        continue
                    if peer in route.path:
                        continue
                    if not usable(asn, peer):
                        continue
                    peer_candidates.setdefault(peer, []).append(
                        Route(path=(peer,) + route.path, kind=RouteKind.PEER)
                    )
            for asn, candidates in peer_candidates.items():
                routes[asn] = min(candidates, key=_route_sort_key)
                if remaining is not None:
                    remaining.discard(asn)
        stamp("peer", t0)

    # Stage 3: provider routes flow down customer links from everyone routed.
    if not done():
        t0 = time.perf_counter()
        _propagate(
            graph,
            routes,
            sources=dict(routes),
            next_ases=lambda asn: (c for c in graph.customers(asn) if usable(asn, c)),
            kind=RouteKind.PROVIDER,
            remaining=remaining,
        )
        stamp("provider", t0)

    return RoutingOutcome(routes, tuple(sorted(seeds)))


def _route_sort_key(route: Route) -> Tuple[int, int]:
    # Shorter path first, then lowest next-hop ASN (deterministic tiebreak).
    return (len(route.path), route.next_hop if route.next_hop is not None else -1)


def _propagate(
    graph: ASGraph,
    routes: Dict[int, Route],
    sources: Dict[int, Route],
    next_ases,
    kind: RouteKind,
    remaining=None,
) -> None:
    """Distance-synchronous BFS used by stages 1 and 3.

    Processes candidate routes in order of increasing path length so that an
    AS is finalised only once all candidates of its best length are known —
    this makes the lowest-next-hop tiebreak deterministic.  ``remaining``
    (the caller's shrinking set of unrouted targets, checked between levels,
    when every finalised route is final) allows an early exit once it
    empties.
    """
    # Pending candidates per target AS, discovered lazily.
    frontier: Dict[int, List[Route]] = {}

    def offer(target: int, via_route: Route) -> None:
        if target in routes:
            return
        if target in via_route.path:
            return  # loop prevention
        frontier.setdefault(target, []).append(
            Route(path=(target,) + via_route.path, kind=kind)
        )

    for asn, route in sources.items():
        for target in next_ases(asn):
            offer(target, route)

    while frontier:
        if remaining is not None and not remaining:
            return
        # Finalise every AS whose best candidate has the globally minimal
        # length this round; they cannot be beaten by later discoveries,
        # which are strictly longer.
        best_len = min(len(min(cands, key=len)) for cands in frontier.values())
        newly_routed: List[int] = []
        for asn in list(frontier):
            candidates = [r for r in frontier[asn] if len(r) == best_len]
            if not candidates:
                continue
            routes[asn] = min(candidates, key=_route_sort_key)
            del frontier[asn]
            newly_routed.append(asn)
            if remaining is not None:
                remaining.discard(asn)
        for asn in newly_routed:
            for target in next_ases(asn):
                offer(target, routes[asn])
