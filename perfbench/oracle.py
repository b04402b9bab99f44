"""Independent route and path checks for the whole-run benchmark.

A compact Gao-Rexford computation written from the rules
``repro.asgraph.routing`` documents, not from its code:

- a customer route beats a peer route, which beats a provider route;
- among routes of one kind, the shorter AS path wins, then the lowest
  next-hop AS number;
- customer routes climb provider links from the origins, peer routes
  cross one peering link from an origin or customer route, and provider
  routes descend customer links from any routed AS;
- an AS never accepts a path that already holds its own number;
- excluded links carry nothing, in either direction.

Where the program propagates level by level, this oracle runs a
Dijkstra-style heap per stage keyed by ``(path length, next hop)``.  It
reads only the AS graph's adjacency from ``repro``.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

Path = Tuple[int, ...]

#: relationship of ``b`` seen from ``a`` along a path hop
UP, PEER, DOWN = "up", "peer", "down"


class Topology:
    """Plain adjacency copied out of an ``ASGraph`` (nothing else is read)."""

    def __init__(self, graph) -> None:
        self.ases = sorted(graph.ases)
        self.providers = {a: tuple(sorted(graph.providers(a))) for a in self.ases}
        self.customers = {a: tuple(sorted(graph.customers(a))) for a in self.ases}
        self.peers = {a: tuple(sorted(graph.peers(a))) for a in self.ases}

    def __len__(self) -> int:
        return len(self.ases)

    def hop(self, a: int, b: int) -> Optional[str]:
        """How traffic moves from ``a`` to neighbour ``b`` (None: no link)."""
        if b in self.providers[a]:
            return UP
        if b in self.peers[a]:
            return PEER
        if b in self.customers[a]:
            return DOWN
        return None


def routes(
    topo: Topology,
    origins: Iterable[int],
    excluded: Iterable[Iterable[int]] = (),
) -> Dict[int, Path]:
    """Every AS's selected path towards a prefix the ``origins`` announce.

    The path runs from the choosing AS to the origin, both included; ASes
    with no route are absent.
    """
    down = {frozenset(link) for link in excluded}
    best: Dict[int, Path] = {o: (o,) for o in origins}

    def open_link(a: int, b: int) -> bool:
        return frozenset((a, b)) not in down

    def climb(sources: Dict[int, Path], neighbours) -> None:
        heap = []
        for asn, path in sources.items():
            for nxt in neighbours[asn]:
                heapq.heappush(heap, (len(path) + 1, asn, nxt, path))
        while heap:
            _length, via, asn, path = heapq.heappop(heap)
            if asn in best or asn in path or not open_link(via, asn):
                continue
            best[asn] = (asn,) + path
            for nxt in neighbours[asn]:
                if nxt not in best:
                    heapq.heappush(heap, (len(path) + 2, asn, nxt, best[asn]))

    # customer routes: up provider links from the origins
    climb(dict(best), topo.providers)
    # peer routes: one peering hop from an origin or customer route
    offers: Dict[int, Tuple[int, int, Path]] = {}
    for asn, path in list(best.items()):
        for peer in topo.peers[asn]:
            if peer in best or peer in path or not open_link(asn, peer):
                continue
            offer = (len(path) + 1, asn, (peer,) + path)
            if peer not in offers or offer < offers[peer]:
                offers[peer] = offer
    for peer, (_length, _via, path) in offers.items():
        best[peer] = path
    # provider routes: down customer links from every routed AS
    climb(dict(best), topo.customers)
    return best


class RouteOracle:
    """Memoised :func:`routes` per (origins, exclusion set)."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._memo: Dict[Tuple[Tuple[int, ...], FrozenSet[FrozenSet[int]]], Dict[int, Path]] = {}

    def table(self, origins: Sequence[int], excluded=frozenset()) -> Dict[int, Path]:
        down = frozenset(frozenset(link) for link in excluded)
        key = (tuple(sorted(origins)), down)
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = routes(self.topo, key[0], down)
        return table

    def path(self, src: int, dst: int, excluded=frozenset()) -> Optional[Path]:
        """Policy path from ``src`` towards ``dst``'s prefix."""
        return self.table((dst,), excluded).get(src)

    def segment(self, a: int, b: int, excluded=frozenset()) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """ASes on the a->b path and on the b->a path (endpoints included)."""
        forward = self.path(a, b, excluded) or (a, b)
        reverse = self.path(b, a, excluded) or (b, a)
        return frozenset(forward), frozenset(reverse)

    def observers(self, a: int, b: int, mode: str, excluded=frozenset()) -> FrozenSet[int]:
        forward, reverse = self.segment(a, b, excluded)
        if mode == "forward":
            return forward
        if mode == "reverse":
            return reverse
        return forward | reverse

    def circuit_observers(self, client, guard, exit_, dest, mode, excluded=frozenset()):
        """ASes that see both ends of a circuit under ``mode``."""
        return self.observers(client, guard, mode, excluded) & self.observers(
            exit_, dest, mode, excluded
        )

    def compromised(self, adversaries, client, guard, exit_, dest, mode, excluded=frozenset()) -> bool:
        """Some colluding adversary on each end segment."""
        adv = frozenset(adversaries)
        return bool(adv & self.observers(client, guard, mode, excluded)) and bool(
            adv & self.observers(exit_, dest, mode, excluded)
        )

    def capture(self, victim: int, attacker: int, excluded=frozenset()) -> FrozenSet[int]:
        """ASes whose route ends at ``attacker`` when both announce one prefix."""
        table = self.table((victim, attacker), excluded)
        return frozenset(asn for asn, path in table.items() if path[-1] == attacker)


def collapse(path: Sequence[int]) -> Path:
    """Drop AS-path prepends (consecutive repeats)."""
    out = []
    for asn in path:
        if not out or out[-1] != asn:
            out.append(asn)
    return tuple(out)


def path_problem(topo: Topology, path: Sequence[int], origin: int) -> Optional[str]:
    """Why an observed AS path is impossible, or None when it is sound.

    Sound means: it ends at the prefix's origin (prepends allowed), each
    pair of consecutive ASes shares a link, no AS repeats, and the path is
    valley-free: zero or more uphill hops, at most one peering hop, then
    only downhill hops.
    """
    hops = collapse(path)
    if not hops or hops[-1] != origin:
        return f"path {tuple(path)} does not end at origin AS{origin}"
    if len(set(hops)) != len(hops):
        return f"path {tuple(path)} loops"
    phase = UP
    for a, b in zip(hops, hops[1:]):
        kind = topo.hop(a, b)
        if kind is None:
            return f"AS{a} and AS{b} are not adjacent in {tuple(path)}"
        if kind == UP and phase != UP:
            return f"valley at AS{a}->AS{b} in {tuple(path)}"
        if kind == PEER:
            if phase != UP:
                return f"second peak at AS{a}->AS{b} in {tuple(path)}"
            phase = PEER
        if kind == DOWN:
            phase = DOWN
    return None
