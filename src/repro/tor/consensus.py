"""The network consensus: the relay directory Tor clients download.

Includes the *bandwidth-weights* machinery from dir-spec §3.8.3: because
Guard- and Exit-flagged capacity is scarce relative to demand, the
directory authorities publish position weights (Wgg, Wed, ...) that scale a
relay's bandwidth depending on the position it is considered for, so that
scarce capacity is reserved for the positions that need it.  The weights
matter here because they decide *which* relays carry most traffic — i.e.
which prefixes an AS-level adversary should intercept (§3.2: "an adversary
could intercept traffic towards high bandwidth guard relays and exit
relays").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.tor.relay import Flag, Relay

__all__ = ["BandwidthWeights", "Consensus", "Position"]


#: Circuit positions for weight lookups.
class Position:
    GUARD = "guard"
    MIDDLE = "middle"
    EXIT = "exit"


@dataclass(frozen=True)
class BandwidthWeights:
    """Position weights, as fractions in [0, 1] (consensus stores 1/10000).

    Naming follows dir-spec: ``W<position><class>`` where position is
    g(uard)/m(iddle)/e(xit) and class is g(uard-only)/e(xit-only)/d(ual,
    Guard+Exit)/m(middle, neither flag).
    """

    Wgg: float
    Wgd: float
    Wmg: float
    Wmm: float
    Wme: float
    Wmd: float
    Wee: float
    Wed: float

    def __post_init__(self) -> None:
        for name in ("Wgg", "Wgd", "Wmg", "Wmm", "Wme", "Wmd", "Wee", "Wed"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")

    def weight(self, relay: Relay, position: str) -> float:
        """The multiplier applied to ``relay.bandwidth`` for ``position``."""
        dual = relay.is_guard_and_exit
        if position == Position.GUARD:
            if not relay.is_guard:
                return 0.0
            return self.Wgd if dual else self.Wgg
        if position == Position.EXIT:
            if not relay.is_exit:
                return 0.0
            return self.Wed if dual else self.Wee
        if position == Position.MIDDLE:
            if dual:
                return self.Wmd
            if relay.is_guard:
                return self.Wmg
            if relay.is_exit:
                return self.Wme
            return self.Wmm
        raise ValueError(f"unknown position {position!r}")

    def relay_weight(self, relay: Relay, position: str) -> float:
        """``relay``'s selection weight for ``position``: its bandwidth
        times :meth:`weight`, or 0.0 when it is not running."""
        if not relay.is_running:
            return 0.0
        return relay.bandwidth * self.weight(relay, position)

    @classmethod
    def compute(cls, G: float, M: float, E: float, D: float) -> "BandwidthWeights":
        """Derive weights from class bandwidth totals (dir-spec §3.8.3).

        ``G``/``M``/``E``/``D`` are the bandwidth totals of guard-only,
        unflagged, exit-only, and dual (Guard+Exit) relays.  The full spec
        algorithm distinguishes many sub-cases; this implements the three
        top-level ones, which cover every real consensus:

        - both guard and exit capacity plentiful (``E+D >= T/3 <= G+D``):
          balance everything equally;
        - exactly one of them scarce: dedicate the scarce class (and the
          dual relays) entirely to the scarce position;
        - both scarce: dedicate each class to its own position and split
          dual capacity in proportion to the shortfalls.
        """
        for name, value in (("G", G), ("M", M), ("E", E), ("D", D)):
            if value < 0:
                raise ValueError(f"negative bandwidth total {name}={value}")
        T = G + M + E + D
        if T <= 0:
            raise ValueError("total bandwidth must be positive")
        third = T / 3.0
        guard_scarce = G + D < third
        exit_scarce = E + D < third

        if not guard_scarce and not exit_scarce:
            # Case 1: plentiful. Spread guard and exit capacity so every
            # position ends up with T/3 where possible.
            Wgg = min(1.0, third / G) if G > 0 else 0.0
            Wee = min(1.0, third / E) if E > 0 else 0.0
            # Dual relays fill whatever the dedicated classes left over.
            need_g = max(0.0, third - Wgg * G)
            need_e = max(0.0, third - Wee * E)
            if D > 0:
                Wgd = min(1.0, need_g / D)
                Wed = min(1.0, max(need_e / D, 1.0 - Wgd))
                if Wgd + Wed > 1.0:
                    scale = 1.0 / (Wgd + Wed)
                    Wgd *= scale
                    Wed *= scale
            else:
                Wgd = Wed = 0.0
            Wmd = max(0.0, 1.0 - Wgd - Wed)
            Wmg = max(0.0, 1.0 - Wgg)
            Wme = max(0.0, 1.0 - Wee)
            return cls(Wgg=Wgg, Wgd=Wgd, Wmg=Wmg, Wmm=1.0, Wme=Wme, Wmd=Wmd, Wee=Wee, Wed=Wed)

        if guard_scarce and exit_scarce:
            # Case 2: both scarce. Dedicate classes to their positions and
            # split D by relative shortfall.
            shortfall_g = max(0.0, third - G)
            shortfall_e = max(0.0, third - E)
            total_short = shortfall_g + shortfall_e
            Wgd = shortfall_g / total_short if total_short > 0 else 0.5
            Wed = 1.0 - Wgd
            return cls(Wgg=1.0, Wgd=Wgd, Wmg=0.0, Wmm=1.0, Wme=0.0, Wmd=0.0, Wee=1.0, Wed=Wed)

        if exit_scarce:
            # Case 3a: exits scarce, guards plentiful: all exit-capable
            # capacity works as exit; guard-only capacity covers guard+middle.
            Wgg = min(1.0, third / G) if G > 0 else 0.0
            return cls(Wgg=Wgg, Wgd=0.0, Wmg=max(0.0, 1.0 - Wgg), Wmm=1.0, Wme=0.0, Wmd=0.0, Wee=1.0, Wed=1.0)

        # Case 3b: guards scarce, exits plentiful.
        Wee = min(1.0, third / E) if E > 0 else 0.0
        return cls(Wgg=1.0, Wgd=1.0, Wmg=0.0, Wmm=1.0, Wme=max(0.0, 1.0 - Wee), Wmd=0.0, Wee=Wee, Wed=0.0)


class Consensus:
    """A network consensus: relays plus derived position weights."""

    def __init__(
        self,
        relays: Sequence[Relay],
        valid_after: float = 0.0,
        weights: Optional[BandwidthWeights] = None,
    ) -> None:
        fingerprints = [r.fingerprint for r in relays]
        if len(set(fingerprints)) != len(fingerprints):
            raise ValueError("duplicate relay fingerprints in consensus")
        self._relays: Tuple[Relay, ...] = tuple(relays)
        self._by_fingerprint: Dict[str, Relay] = {r.fingerprint: r for r in relays}
        self.valid_after = valid_after
        self.weights = weights if weights is not None else self._derive_weights()

    def _derive_weights(self) -> BandwidthWeights:
        G = sum(r.bandwidth for r in self._relays if r.is_guard and not r.is_exit)
        E = sum(r.bandwidth for r in self._relays if r.is_exit and not r.is_guard)
        D = sum(r.bandwidth for r in self._relays if r.is_guard_and_exit)
        M = sum(r.bandwidth for r in self._relays if not r.is_guard and not r.is_exit)
        if G + M + E + D <= 0:
            return BandwidthWeights(1, 1, 0, 1, 0, 0, 1, 0)
        return BandwidthWeights.compute(G=G, M=M, E=E, D=D)

    # -- queries --------------------------------------------------------------

    @property
    def relays(self) -> Tuple[Relay, ...]:
        return self._relays

    def __len__(self) -> int:
        return len(self._relays)

    def relay(self, fingerprint: str) -> Relay:
        return self._by_fingerprint[fingerprint]

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._by_fingerprint

    def guards(self) -> List[Relay]:
        """Relays usable in the guard position."""
        return [r for r in self._relays if r.is_guard and r.is_running]

    def exits(self) -> List[Relay]:
        """Relays usable in the exit position."""
        return [r for r in self._relays if r.is_exit and r.is_running]

    def guard_and_exit(self) -> List[Relay]:
        return [r for r in self._relays if r.is_guard_and_exit and r.is_running]

    def running(self) -> List[Relay]:
        return [r for r in self._relays if r.is_running]

    def total_bandwidth(self) -> int:
        return sum(r.bandwidth for r in self._relays)

    def position_weight(self, relay: Relay, position: str) -> float:
        """Effective selection weight of ``relay`` for ``position``."""
        return self.weights.relay_weight(relay, position)

    # -- serialization (simplified network-status format) ----------------------

    def to_text(self) -> str:
        """Serialise in a compact network-status-like document."""
        lines: List[str] = [f"valid-after {self.valid_after}"]
        w = self.weights
        lines.append(
            "bandwidth-weights "
            + " ".join(
                f"{name}={int(round(getattr(w, name) * 10000))}"
                for name in ("Wgg", "Wgd", "Wmg", "Wmm", "Wme", "Wmd", "Wee", "Wed")
            )
        )
        for relay in self._relays:
            lines.append(
                f"r {relay.nickname} {relay.fingerprint} {relay.address} {relay.or_port}"
            )
            lines.append("s " + " ".join(sorted(f.value for f in relay.flags)))
            lines.append(f"w Bandwidth={relay.bandwidth}")
            if relay.family:
                lines.append("family " + " ".join(sorted(relay.family)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Consensus":
        """Parse the output of :meth:`to_text`."""
        valid_after = 0.0
        weights: Optional[BandwidthWeights] = None
        relays: List[Relay] = []
        current: Optional[Dict] = None

        def finish() -> None:
            nonlocal current
            if current is not None:
                relays.append(
                    Relay(
                        fingerprint=current["fingerprint"],
                        nickname=current["nickname"],
                        address=current["address"],
                        or_port=current["or_port"],
                        bandwidth=current.get("bandwidth", 0),
                        flags=frozenset(current.get("flags", {Flag.RUNNING, Flag.VALID})),
                        family=frozenset(current.get("family", ())),
                    )
                )
                current = None

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            keyword, _, rest = line.partition(" ")
            if keyword == "valid-after":
                valid_after = float(rest)
            elif keyword == "bandwidth-weights":
                values = dict(item.split("=") for item in rest.split())
                weights = BandwidthWeights(
                    **{name: int(v) / 10000.0 for name, v in values.items()}
                )
            elif keyword == "r":
                finish()
                parts = rest.split()
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed r line {line!r}")
                current = {
                    "nickname": parts[0],
                    "fingerprint": parts[1],
                    "address": parts[2],
                    "or_port": int(parts[3]),
                }
            elif keyword == "s":
                if current is None:
                    raise ValueError(f"line {lineno}: s line outside relay entry")
                current["flags"] = {Flag.from_name(name) for name in rest.split()}
            elif keyword == "w":
                if current is None:
                    raise ValueError(f"line {lineno}: w line outside relay entry")
                current["bandwidth"] = int(rest.partition("=")[2])
            elif keyword == "family":
                if current is None:
                    raise ValueError(f"line {lineno}: family line outside relay entry")
                current["family"] = rest.split()
            else:
                raise ValueError(f"line {lineno}: unknown keyword {keyword!r}")
        finish()
        return cls(relays, valid_after=valid_after, weights=weights)
