"""BGP UPDATE messages: announcements, withdrawals, and communities.

Only the attributes the paper's analyses touch are modelled: NLRI (one
prefix per message, as collectors see after MRT explosion), AS_PATH,
and COMMUNITIES (used by the Renesys-style stealth hijack of §3.2, where
``NO_EXPORT``-like communities limit propagation of the bogus route).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

from repro.analysis.prefixes import Prefix

__all__ = [
    "Announcement",
    "Withdrawal",
    "UpdateMessage",
    "NO_EXPORT",
    "Community",
]


#: A community is an (ASN, value) pair, as in RFC 1997.
Community = Tuple[int, int]

#: Well-known community: do not propagate beyond the receiving AS.
NO_EXPORT: Community = (0xFFFF, 0xFF01)


@dataclass(frozen=True)
class Announcement:
    """A reachability announcement for one prefix.

    ``as_path`` is ordered nearest-first: ``as_path[0]`` is the neighbour
    that sent the message, ``as_path[-1]`` the origin.
    """

    prefix: Prefix
    as_path: Tuple[int, ...]
    communities: FrozenSet[Community] = frozenset()

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("announcement must carry a non-empty AS path")

    @property
    def origin(self) -> int:
        return self.as_path[-1]

    def has_loop(self, asn: int) -> bool:
        """True if ``asn`` already appears in the AS path (must be rejected)."""
        return asn in self.as_path

    def prepended_by(self, asn: int) -> "Announcement":
        """The announcement as re-advertised by ``asn``."""
        if self.has_loop(asn):
            raise ValueError(f"AS{asn} cannot prepend itself onto {self.as_path}")
        return Announcement(
            prefix=self.prefix,
            as_path=(asn,) + self.as_path,
            communities=self.communities,
        )


@dataclass(frozen=True)
class Withdrawal:
    """A withdrawal of reachability for one prefix."""

    prefix: Prefix


@dataclass(frozen=True)
class UpdateMessage:
    """An UPDATE as sent over one BGP session.

    ``sender`` is the ASN of the session peer that emitted the message;
    ``payload`` is either an :class:`Announcement` or a :class:`Withdrawal`.
    """

    sender: int
    payload: Union[Announcement, Withdrawal]

    @property
    def prefix(self) -> Prefix:
        return self.payload.prefix

    @property
    def is_withdrawal(self) -> bool:
        return isinstance(self.payload, Withdrawal)
