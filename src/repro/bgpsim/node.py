"""A single BGP-speaking AS: sessions, policy, and update processing.

Nodes are deliberately passive: :meth:`BGPNode.receive` ingests one UPDATE,
reruns the decision process, and *returns* the UPDATEs that must be sent to
neighbours.  The simulator owns time and message delivery, which keeps the
node logic synchronous and easy to test in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analysis.prefixes import Prefix
from repro.asgraph.relationships import Relationship, RouteKind, may_export
from repro.bgpsim.messages import (
    NO_EXPORT,
    Announcement,
    Community,
    UpdateMessage,
    Withdrawal,
)
from repro.bgpsim.rib import AdjRibIn, LocRib, RibEntry, decision_process

__all__ = ["BGPNode", "Outbox"]

#: Community value meaning "the AS named in the first element must not
#: re-export this route" — the per-AS scoping primitive behind the
#: Renesys-style stealth hijack (§3.2).
NO_EXPORT_TO_UPSTREAMS_VALUE = 0xFF02

#: Messages a node wants delivered: (neighbour_asn, message).
Outbox = List[Tuple[int, UpdateMessage]]


class BGPNode:
    """One AS in the message-level simulator."""

    def __init__(self, asn: int, neighbours: Mapping[int, Relationship]) -> None:
        """``neighbours`` maps neighbour ASN to its relationship as seen
        from this AS (``Relationship.CUSTOMER`` means the neighbour pays us).
        """
        self.asn = asn
        self._neighbours: Dict[int, Relationship] = dict(neighbours)
        self.adj_rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        #: prefixes this AS originates, with the communities it attaches and
        #: the subset of neighbours it announces to (None = all neighbours).
        self._originated: Dict[Prefix, Tuple[FrozenSet[Community], Optional[FrozenSet[int]]]] = {}
        #: what we last advertised to each neighbour, per prefix, so we can
        #: send implicit withdrawals / avoid duplicate updates.
        self._advertised: Dict[int, Dict[Prefix, Announcement]] = {}

    # -- session management --------------------------------------------------

    @property
    def neighbours(self) -> Mapping[int, Relationship]:
        return self._neighbours

    def add_neighbour(self, asn: int, relationship: Relationship) -> Outbox:
        """Bring up a session; returns the full-table dump to send to it."""
        if asn in self._neighbours:
            raise ValueError(f"AS{self.asn} already has a session with AS{asn}")
        self._neighbours[asn] = relationship
        return self._full_table_for(asn)

    def drop_neighbour(self, asn: int) -> Outbox:
        """Tear down a session: flush its routes, rerun decisions, and
        return the updates triggered at the other (still-up) sessions."""
        if asn not in self._neighbours:
            raise ValueError(f"AS{self.asn} has no session with AS{asn}")
        del self._neighbours[asn]
        self._advertised.pop(asn, None)
        affected = self.adj_rib_in.clear_neighbour(asn)
        outbox: Outbox = []
        for prefix in affected:
            outbox.extend(self._reselect(prefix))
        return outbox

    def session_reset(self, asn: int) -> Outbox:
        """Model a session reset towards ``asn``: re-send the full table.

        This is the source of the "artificial updates" that §4's methodology
        removes (Zhang et al. 2005): the re-advertisements carry paths that
        did not actually change.
        """
        if asn not in self._neighbours:
            raise ValueError(f"AS{self.asn} has no session with AS{asn}")
        self._advertised.pop(asn, None)
        return self._full_table_for(asn)

    # -- origination ----------------------------------------------------------

    def originate(
        self,
        prefix: Prefix,
        communities: FrozenSet[Community] = frozenset(),
        to_neighbours: Optional[Iterable[int]] = None,
    ) -> Outbox:
        """Start announcing ``prefix`` as our own.

        ``to_neighbours`` restricts the announcement to a subset of sessions
        (traffic engineering / scoped attack announcements).
        """
        scope = frozenset(to_neighbours) if to_neighbours is not None else None
        if scope is not None:
            unknown = scope - set(self._neighbours)
            if unknown:
                raise ValueError(f"AS{self.asn} has no session with {sorted(unknown)}")
        self._originated[prefix] = (frozenset(communities), scope)
        own = RibEntry(
            announcement=Announcement(prefix, (self.asn,), frozenset(communities)),
            learned_from=self.asn,
            kind=RouteKind.ORIGIN,
        )
        self.loc_rib.install(prefix, own)
        return self._announce_best(prefix)

    def withdraw_origin(self, prefix: Prefix) -> Outbox:
        """Stop announcing an originated prefix."""
        if prefix not in self._originated:
            raise ValueError(f"AS{self.asn} does not originate {prefix}")
        del self._originated[prefix]
        return self._reselect(prefix)

    # -- update processing -----------------------------------------------------

    def receive(self, message: UpdateMessage) -> Outbox:
        """Process one UPDATE from a neighbour; returns messages to send."""
        sender = message.sender
        relationship = self._neighbours.get(sender)
        if relationship is None:
            # Session went down while the message was in flight; drop it.
            return []
        prefix = message.prefix
        if message.is_withdrawal:
            if not self.adj_rib_in.withdraw(sender, prefix):
                return []
            return self._reselect(prefix)

        announcement = message.payload
        assert isinstance(announcement, Announcement)
        if announcement.has_loop(self.asn):
            return []  # loop prevention: silently discard
        entry = RibEntry(
            announcement=announcement,
            learned_from=sender,
            kind=RouteKind.from_relationship(relationship),
        )
        self.adj_rib_in.update(entry)
        return self._reselect(prefix)

    def best_path(self, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        """The AS path currently selected for ``prefix`` (self included)."""
        best = self.loc_rib.best(prefix)
        if best is None:
            return None
        if best.kind is RouteKind.ORIGIN:
            return (self.asn,)
        return (self.asn,) + best.as_path

    # -- internals ---------------------------------------------------------------

    def _reselect(self, prefix: Prefix) -> Outbox:
        candidates = list(self.adj_rib_in.candidates(prefix))
        if prefix in self._originated:
            communities, _ = self._originated[prefix]
            candidates.append(
                RibEntry(
                    announcement=Announcement(prefix, (self.asn,), communities),
                    learned_from=self.asn,
                    kind=RouteKind.ORIGIN,
                )
            )
        best = decision_process(candidates)
        changed = self.loc_rib.install(prefix, best)
        if not changed:
            return []
        return self._announce_best(prefix)

    def _announce_best(self, prefix: Prefix) -> Outbox:
        """Advertise the current best route (or withdraw) to every eligible
        neighbour, suppressing updates that repeat the last advertisement."""
        outbox: Outbox = []
        best = self.loc_rib.best(prefix)
        for neighbour in self._neighbours:
            outbox.extend(self._update_for(neighbour, prefix, best))
        return outbox

    def _update_for(
        self, neighbour: int, prefix: Prefix, best: Optional[RibEntry]
    ) -> Outbox:
        advertised = self._advertised.setdefault(neighbour, {})
        exported = self._exportable(neighbour, best)
        if exported is None:
            if prefix in advertised:
                del advertised[prefix]
                return [(neighbour, UpdateMessage(self.asn, Withdrawal(prefix)))]
            return []
        if advertised.get(prefix) == exported:
            return []
        advertised[prefix] = exported
        return [(neighbour, UpdateMessage(self.asn, exported))]

    def _exportable(
        self, neighbour: int, best: Optional[RibEntry]
    ) -> Optional[Announcement]:
        """Apply export policy; None means nothing may be advertised."""
        if best is None:
            return None
        relationship = self._neighbours[neighbour]
        if not may_export(best.kind, relationship):
            return None
        announcement = best.announcement
        if best.kind is RouteKind.ORIGIN:
            _, scope = self._originated[announcement.prefix]
            if scope is not None and neighbour not in scope:
                return None
            return announcement
        # Community-based propagation control on learned routes.
        if NO_EXPORT in announcement.communities:
            return None
        if (self.asn, NO_EXPORT_TO_UPSTREAMS_VALUE) in announcement.communities:
            return None
        if announcement.has_loop(neighbour):
            return None  # poison-aware: the neighbour would reject it anyway
        return announcement.prepended_by(self.asn)

    def _full_table_for(self, neighbour: int) -> Outbox:
        outbox: Outbox = []
        for prefix, best in list(self.loc_rib.items()):
            outbox.extend(self._update_for(neighbour, prefix, best))
        return outbox
