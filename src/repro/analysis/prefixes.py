"""IPv4 prefixes and longest-prefix-match tries.

The paper maps every Tor relay to the *most specific* BGP prefix containing
its IP address ("Tor prefixes", §4).  The authors used public BGP tables for
that mapping; here the prefixes come from the simulated BGP RIBs, and the
mapping itself is a classic binary-trie longest-prefix match, equivalent to
what ``pyasn`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Prefix",
    "PrefixTrie",
    "parse_ip",
    "format_ip",
    "map_relays_to_prefixes",
]

_MAX_BITS = 32
_ALL_ONES = 0xFFFFFFFF


def parse_ip(text: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer.

    >>> parse_ip("78.46.0.1")
    1311244289
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address."""
    if not 0 <= value <= _ALL_ONES:
        raise ValueError(f"not a 32-bit address: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix (network address + mask length).

    Instances are normalised: host bits below the mask are zeroed, so two
    prefixes describing the same address block always compare equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= _MAX_BITS:
            raise ValueError(f"prefix length out of range: {self.length}")
        mask = self.mask
        if self.network & ~mask & _ALL_ONES:
            object.__setattr__(self, "network", self.network & mask)
        # Prefixes key the month trace's busiest dicts and sets, so the hash
        # is computed once.  It is the dataclass's own value: set iteration
        # order, which feeds the trace's random draws, stays as it was.
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation.

        >>> Prefix.parse("78.46.0.0/15")
        Prefix.parse('78.46.0.0/15')
        """
        try:
            addr, _, length = text.partition("/")
            return cls(parse_ip(addr), int(length))
        except ValueError as exc:
            raise ValueError(f"invalid prefix {text!r}: {exc}") from None

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (_ALL_ONES << (_MAX_BITS - self.length)) & _ALL_ONES

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (_MAX_BITS - self.length)

    def contains_ip(self, ip: int) -> bool:
        """True if the 32-bit address ``ip`` falls inside this prefix."""
        return (ip & self.mask) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and self.contains_ip(other.network)

    def subprefix(self, length: int, index: int = 0) -> "Prefix":
        """Return the ``index``-th sub-prefix of the given (longer) length.

        Used by the attack module to craft more-specific hijack announcements.
        """
        if length < self.length:
            raise ValueError("subprefix must not be shorter than parent")
        extra = length - self.length
        if not 0 <= index < (1 << extra):
            raise ValueError(f"subprefix index {index} out of range for +{extra} bits")
        return Prefix(self.network | (index << (_MAX_BITS - length)), length)

    def nth_ip(self, index: int) -> int:
        """The ``index``-th address inside the prefix (0 = network address)."""
        if not 0 <= index < self.num_addresses:
            raise ValueError(f"address index {index} out of range")
        return self.network + index

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix.parse({str(self)!r})"


@dataclass
class _TrieNode:
    children: List[Optional["_TrieNode"]] = field(default_factory=lambda: [None, None])
    value: object = None
    has_value: bool = False


class PrefixTrie:
    """Binary trie mapping :class:`Prefix` keys to arbitrary values.

    Supports exact lookups, longest-prefix match on addresses, and
    most-specific-covering-prefix queries — everything needed to map relay
    IPs onto the announced BGP prefixes.
    """

    def __init__(self, items: Optional[Mapping[Prefix, object]] = None) -> None:
        self._root = _TrieNode()
        self._size = 0
        if items:
            for prefix, value in items.items():
                self.insert(prefix, value)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._walk(prefix)
        return node is not None and node.has_value

    def insert(self, prefix: Prefix, value: object = None) -> None:
        """Insert ``prefix`` (replacing any existing value)."""
        node = self._root
        for bit in _bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.has_value = True
        node.value = value

    def get(self, prefix: Prefix, default: object = None) -> object:
        """Exact-match lookup; returns ``default`` when absent."""
        node = self._walk(prefix)
        if node is not None and node.has_value:
            return node.value
        return default

    def remove(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; returns True if it was present."""
        node = self._walk(prefix)
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        return True

    def longest_match(self, ip: int) -> Optional[Tuple[Prefix, object]]:
        """Most specific stored prefix containing ``ip``, with its value."""
        node = self._root
        best: Optional[Tuple[int, object]] = None
        network = 0
        depth = 0
        if node.has_value:
            best = (0, node.value)
        for shift in range(_MAX_BITS - 1, -1, -1):
            bit = (ip >> shift) & 1
            child = node.children[bit]
            if child is None:
                break
            network = (network << 1) | bit
            depth += 1
            node = child
            if node.has_value:
                best = (depth, node.value)
        if best is None:
            return None
        length, value = best
        return Prefix((ip >> (_MAX_BITS - length) << (_MAX_BITS - length)) if length else 0, length), value

    def covering_prefixes(self, ip: int) -> List[Tuple[Prefix, object]]:
        """All stored prefixes containing ``ip``, least specific first."""
        out: List[Tuple[Prefix, object]] = []
        node = self._root
        length = 0
        if node.has_value:
            out.append((Prefix(0, 0), node.value))
        for shift in range(_MAX_BITS - 1, -1, -1):
            bit = (ip >> shift) & 1
            child = node.children[bit]
            if child is None:
                break
            length += 1
            node = child
            if node.has_value:
                mask_shift = _MAX_BITS - length
                out.append((Prefix((ip >> mask_shift) << mask_shift, length), node.value))
        return out

    def items(self) -> Iterator[Tuple[Prefix, object]]:
        """Iterate over all stored ``(prefix, value)`` pairs (DFS order)."""
        stack: List[Tuple[_TrieNode, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, network, length = stack.pop()
            if node.has_value:
                yield Prefix(network << (_MAX_BITS - length) if length else 0, length), node.value
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, (network << 1) | bit, length + 1))

    def _walk(self, prefix: Prefix) -> Optional[_TrieNode]:
        node = self._root
        for bit in _bits(prefix):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node


def _bits(prefix: Prefix) -> Iterator[int]:
    for shift in range(_MAX_BITS - 1, _MAX_BITS - 1 - prefix.length, -1):
        yield (prefix.network >> shift) & 1


def map_relays_to_prefixes(
    relay_ips: Iterable[Tuple[str, str]],
    announced: Mapping[Prefix, int],
) -> Dict[str, Tuple[Prefix, int]]:
    """Map relays to their most specific announced BGP prefix.

    Parameters
    ----------
    relay_ips:
        Iterable of ``(fingerprint, dotted_quad_ip)`` pairs.
    announced:
        Mapping of announced prefixes to their origin AS number.

    Returns
    -------
    dict
        ``fingerprint -> (tor_prefix, origin_asn)``.  Relays whose address is
        covered by no announced prefix are omitted (the paper drops them too).
    """
    trie = PrefixTrie()
    for prefix, origin in announced.items():
        trie.insert(prefix, origin)
    result: Dict[str, Tuple[Prefix, int]] = {}
    for fingerprint, ip_text in relay_ips:
        match = trie.longest_match(parse_ip(ip_text))
        if match is not None:
            prefix, origin = match
            result[fingerprint] = (prefix, int(origin))  # type: ignore[arg-type]
    return result
