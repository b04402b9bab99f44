"""Reference Tor relay selection: a full scan of the consensus per pick.

This is the selection :class:`repro.tor.pathsel.PathSelector` made before
it compiled each consensus into a :class:`repro.tor.index.RelayIndex`:
every running relay is tested against every excluded relay, then a
bandwidth-weighted draw scans the candidates in consensus order.  It
consumes the RNG exactly as the indexed pick does, so both return the
same relay from cloned generators.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

from repro.tor.pathsel import PathSelector
from repro.tor.relay import Relay

__all__ = ["weighted_choice", "scan_pick", "scan_selection"]


def weighted_choice(
    rng: random.Random, relays: Sequence[Relay], weight: Callable[[Relay], float]
) -> Optional[Relay]:
    """Pick a relay with probability proportional to ``weight(relay)``.

    A relay of zero weight is never picked, even when the draw is 0.0.
    Returns None when no relay has positive weight.
    """
    weights = [max(0.0, weight(r)) for r in relays]
    total = sum(weights)
    if total <= 0:
        return None
    pick = rng.uniform(0.0, total)
    acc = 0.0
    last = None
    for relay, w in zip(relays, weights):
        if w <= 0:
            continue
        acc += w
        last = relay
        if pick <= acc:
            return relay
    # Rounding left the draw above the running sum.
    return last


def scan_pick(
    selector: PathSelector,
    position: str,
    exclude: Sequence[Relay] = (),
    predicate: Optional[Callable[[Relay], bool]] = None,
) -> Optional[Relay]:
    """``selector.pick(position, exclude, predicate)`` by full scan."""
    consensus = selector.consensus
    candidates = [
        r
        for r in consensus.running()
        if all(selector.constraints.compatible(r, other) for other in exclude)
        and (predicate is None or predicate(r))
    ]
    return weighted_choice(
        selector.rng, candidates, lambda r: consensus.position_weight(r, position)
    )


@contextmanager
def scan_selection() -> Iterator[None]:
    """Run every ``PathSelector.pick`` through :func:`scan_pick` while
    active, so ``build_circuit`` and ``GuardManager`` use the reference."""
    indexed = PathSelector.pick
    PathSelector.pick = scan_pick
    try:
        yield
    finally:
        PathSelector.pick = indexed
