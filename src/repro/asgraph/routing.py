"""Route and outcome types of Gao-Rexford routing over an :class:`~repro.asgraph.ASGraph`.

A routing outcome holds, for every AS, its best policy-compliant route
towards a prefix announced by one or more origin ASes.  Multiple origins
are exactly the hijack setting of §3.2: the victim and the attacker both
announce the same prefix, and every AS independently picks the
announcement it prefers — the set of ASes that pick the attacker is the
*capture set*.

The computation itself is :func:`repro.asgraph.fastpath.compute_routes_fast`
(and its multi-origin batch, :func:`repro.asgraph.batch.compute_routes_many`):
customer routes climb provider links from the origins, peer routes cross
one peering hop, provider routes descend customer links; within a stage,
ties go to the shorter AS path and then to the lowest next-hop AS number.
This module keeps the types every kernel answers with and the
announcement normalisation they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.asgraph.relationships import RouteKind
from repro.asgraph.topology import ASGraph

__all__ = ["Route", "RoutingOutcome", "as_path"]


@dataclass(frozen=True)
class Route:
    """One AS's chosen route towards the announced prefix.

    ``path`` runs from the choosing AS to (and including) the origin's
    announced path, e.g. ``(7, 3, 1)`` means AS7 reaches the prefix via AS3,
    with AS1 the origin.
    """

    path: Tuple[int, ...]
    kind: RouteKind

    @property
    def origin(self) -> int:
        return self.path[-1]

    @property
    def next_hop(self) -> Optional[int]:
        """The neighbour the route was learned from (None for origins)."""
        return self.path[1] if len(self.path) > 1 else None

    def __len__(self) -> int:
        return len(self.path)


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


_OriginsArg = Union[Iterable[int], Mapping[int, Sequence[int]]]


def as_path(graph: ASGraph, src: int, dst: int) -> Optional[Tuple[int, ...]]:
    """Convenience: the policy path from ``src`` to a prefix originated at ``dst``.

    Passes ``targets={src}`` so the staged early-exit applies instead of
    routing the whole topology for a single query.  (For repeated queries
    use :class:`repro.asgraph.engine.RoutingEngine`, which also memoises.)
    """
    # Imported here: the kernel module imports this one for its types.
    from repro.asgraph.fastpath import compute_routes_fast

    return compute_routes_fast(graph, [dst], targets=frozenset((src,))).path(src)


def _normalise_origins(origins: _OriginsArg) -> Dict[int, Tuple[int, ...]]:
    if isinstance(origins, Mapping):
        seeds: Dict[int, Tuple[int, ...]] = {}
        for asn, path in origins.items():
            path = tuple(path)
            if not path or path[0] != asn:
                raise ValueError(f"announced path for AS{asn} must start with AS{asn}: {path}")
            if len(set(path)) != len(path):
                raise ValueError(f"announced path for AS{asn} contains a loop: {path}")
            seeds[asn] = path
        if not seeds:
            raise ValueError("at least one origin is required")
        return seeds
    seeds = {int(asn): (int(asn),) for asn in origins}
    if not seeds:
        raise ValueError("at least one origin is required")
    return seeds
