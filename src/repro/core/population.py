"""Population-scale user simulation: a struct-of-arrays compromise kernel.

The paper's §3 argument is ultimately about *users*: AS-level
adversaries under the guard get re-rolled by BGP on every circuit, so
time-to-first-compromise collapses for whole client populations.  This
module answers that question (the user-level metrics of Johnson et al.)
for an explicit client roster — ``repro users`` and E13 — and scales it
to 10^6+ clients over a month of relay churn on one machine.

Three ideas carry the whole kernel:

- **Struct of arrays.**  The population is flat arrays — a client-AS
  index per user, a ``num_guards × users`` guard-slot matrix of AS
  registry indices with per-slot expiry days, per-user compromised-
  circuit counts and first-compromise days — never a list of per-user
  objects.
- **Exposure-table dedup.**  Millions of users collapse onto a tiny set
  of distinct (client-AS, guard-AS) and (exit-AS, dest-AS) pairs.  Those
  segments are routed once per run through
  :meth:`SurveillanceModel.exposure_table` (one batched
  ``outcomes_many`` pass over the distinct endpoint ASes) and every
  circuit resolves against the flattened boolean tables with one
  ``take`` each.
- **Counter-based randomness.**  Every draw is a pure function of
  ``(seed, user, day, circuit, stream)`` through a SplitMix64-style
  finalizer, evaluated over numpy arrays of user indices.  Results are
  therefore bit-for-bit independent of the block size and of how blocks
  shard over :mod:`repro.runner` workers, and equal to the per-user
  pure-python reference in ``tests/oracle/population.py``.  Weighted
  draws go through a bucket table (:class:`_Sampler`) that picks exactly
  the entry ``np.searchsorted`` (and the reference's ``bisect_right``)
  would, at a fraction of the cost.

Sharding streams: each user block returns only a
:class:`PopulationAggregate` (histograms and counts); aggregates merge
associatively, so memory stays flat no matter the population size.  Set
``keep_outcomes=True`` (the default for small populations) to also
retain per-user :class:`UserOutcome` rows.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.surveillance import ObservationMode, SurveillanceModel
from repro.runner import ExperimentSpec, TransientFields, Trial, run_experiment
from repro.tor.clientdist import ClientASDistribution
from repro.tor.consensus import Consensus, Position
from repro.tor.index import relay_index

__all__ = [
    "DayMix",
    "PopulationAggregate",
    "PopulationReport",
    "UserOutcome",
    "population_spec",
    "simulate_population",
]


# --------------------------------------------------------------------------
# Counter-based draws (SplitMix64 finalizer over a keyed lattice)
# --------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_MULT_USER = 0x9E3779B97F4A7C15
_MULT_DAY = 0xD1B54A32D192ED03
_MULT_CIRCUIT = 0x8CB92BA72F3D8DD7
_MULT_STREAM = 0xEB44ACCAB455D165
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# Every random decision has its own stream id, so a (user, day, circuit,
# stream) key never collides across decision kinds.
_STREAM_CLIENT = 1
_STREAM_GUARD = 2
_STREAM_LIFETIME = 3
_STREAM_SLOT = 4
_STREAM_EXIT = 5
_STREAM_DEST = 6


def _population_seed(seed: int) -> int:
    """64-bit base key for the draw lattice (blake2b of the root seed)."""
    data = f"population\x1f{seed}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _draw_base(seed: int, day: int, circuit: int, stream: int) -> int:
    """Fold everything but the user index into one 64-bit key prefix."""
    return (
        seed
        + day * _MULT_DAY
        + circuit * _MULT_CIRCUIT
        + stream * _MULT_STREAM
    ) & _MASK


def _draws_vector(base: int, users):
    """One uniform in [0, 1) per entry of a uint64 array of user indices.

    Depends only on the key, never on evaluation order, which is what
    makes block sharding bit-for-bit invariant.  uint64 arithmetic wraps
    with C semantics (the 64-bit mask of the lattice); ``z >> 11`` fits in
    53 bits so the float64 conversion is exact.
    """
    z = users * np.uint64(_MULT_USER)
    z += np.uint64(base)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def _cumulative(weights: Sequence[float]) -> Tuple[float, ...]:
    """Cumulative probabilities via a plain running sum.

    Built once in pure python, so ``np.searchsorted(cum, u,
    side="right")`` and a scalar ``bisect_right(cum, u)`` agree
    bit-for-bit.
    """
    total = 0.0
    for weight in weights:
        total += weight
    acc = 0.0
    out: List[float] = []
    for weight in weights:
        acc += weight
        out.append(acc / total)
    return tuple(out)


#: Bucket tables split [0, 1) into this many equal buckets.  A power of
#: two, so ``u * _BUCKETS`` and ``k / _BUCKETS`` are exact in float64.
_BUCKETS = 1 << 14


class _Sampler:
    """Inverse-CDF draws through a bucket table, exact to the bit.

    ``draw(u)`` is ``values[min(searchsorted(cum, u, side="right"),
    len(cum) - 1)]``.  Bucket ``b`` covers ``[b / _BUCKETS, (b + 1) /
    _BUCKETS)``; when no CDF value falls inside it, every draw there has
    the same answer, which the int32 table holds.  Draws in the few
    buckets that hold a CDF value (-1 in the table) fall back to
    ``np.searchsorted``.  An alias table would be faster still but maps
    draws to other entries, so every result would move.
    """

    __slots__ = ("cum", "values", "table")

    def __init__(self, cum: Sequence[float], values) -> None:
        self.cum = np.asarray(cum, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.int64)
        grid = np.arange(_BUCKETS + 1, dtype=np.float64) / _BUCKETS
        edges = np.searchsorted(self.cum, grid, side="right")
        table = self.values[np.minimum(edges[:-1], self.cum.size - 1)]
        table[edges[:-1] != edges[1:]] = -1
        self.table = table.astype(np.int32)

    def draw(self, u):
        """The picked value for each uniform in ``u`` (int32)."""
        picked = self.table[(u * _BUCKETS).astype(np.intp)]
        split = np.flatnonzero(picked < 0)
        if split.size:
            index = np.searchsorted(self.cum, u[split], side="right")
            picked[split] = self.values[np.minimum(index, self.cum.size - 1)]
        return picked


# --------------------------------------------------------------------------
# Per-day AS-level sampling state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DayMix:
    """One day's AS-level guard/exit sampling state.

    ``guard_reg``/``exit_reg`` index into the run's global guard and exit
    AS registries (ascending-ASN order within the day); ``*_cum`` are the
    matching cumulative position-weight distributions.
    """

    guard_reg: Tuple[int, ...]
    guard_cum: Tuple[float, ...]
    exit_reg: Tuple[int, ...]
    exit_cum: Tuple[float, ...]


def _as_position_weights(
    consensus: Consensus,
    relay_asn: Callable[[str], int],
    position: str,
    asns: Dict[str, Optional[int]],
) -> Dict[int, float]:
    """Total consensus position weight per origin AS, summed in relay order.

    Relays whose fingerprint has no AS assignment (churn-born relays
    outside the static topology mapping) carry no AS-level exposure and
    are skipped.  ``asns`` memoises ``relay_asn`` per fingerprint across
    calls, ``None`` for the unassigned ones.
    """
    weights: Dict[int, float] = {}
    for relay, weight in zip(consensus.relays, relay_index(consensus).weights(position)):
        if weight <= 0.0:
            continue
        fingerprint = relay.fingerprint
        if fingerprint in asns:
            asn = asns[fingerprint]
        else:
            try:
                asn = relay_asn(fingerprint)
            except KeyError:
                asn = None
            asns[fingerprint] = asn
        if asn is None:
            continue
        weights[asn] = weights.get(asn, 0.0) + weight
    return weights


def _build_day_mixes(
    series: Sequence[Consensus],
    relay_asn: Callable[[str], int],
    days: int,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[DayMix, ...]]:
    """Day mixes plus the global guard/exit AS registries they index.

    Registries grow in day order (then ascending ASN within a day), a
    function of the consensus series alone — never of the users — so
    registry indices are identical across shards.
    """
    guard_registry: Dict[int, int] = {}
    exit_registry: Dict[int, int] = {}
    relay_asns: Dict[str, Optional[int]] = {}
    mixes: List[DayMix] = []
    prev_consensus: Optional[Consensus] = None
    prev_mix: Optional[DayMix] = None
    for day in range(days):
        consensus = series[min(day, len(series) - 1)]
        if consensus is prev_consensus and prev_mix is not None:
            mixes.append(prev_mix)
            continue
        guard_weights = _as_position_weights(
            consensus, relay_asn, Position.GUARD, relay_asns
        )
        exit_weights = _as_position_weights(
            consensus, relay_asn, Position.EXIT, relay_asns
        )
        if not guard_weights or not exit_weights:
            raise ValueError(
                f"day {day + 1}'s consensus has no guard or exit capacity"
            )
        guard_items = sorted(guard_weights.items())
        exit_items = sorted(exit_weights.items())
        for asn, _ in guard_items:
            guard_registry.setdefault(asn, len(guard_registry))
        for asn, _ in exit_items:
            exit_registry.setdefault(asn, len(exit_registry))
        mix = DayMix(
            guard_reg=tuple(guard_registry[asn] for asn, _ in guard_items),
            guard_cum=_cumulative([w for _, w in guard_items]),
            exit_reg=tuple(exit_registry[asn] for asn, _ in exit_items),
            exit_cum=_cumulative([w for _, w in exit_items]),
        )
        mixes.append(mix)
        prev_consensus, prev_mix = consensus, mix
    return tuple(guard_registry), tuple(exit_registry), tuple(mixes)


# --------------------------------------------------------------------------
# Results: per-user rows (optional) and streaming aggregates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UserOutcome:
    """One user's month: when (if ever) a circuit was first compromised."""

    client_asn: int
    circuits_built: int
    compromised_circuits: int
    #: day (1-based) of the first compromised circuit; None = survived
    first_compromise_day: Optional[int]

    @property
    def compromised(self) -> bool:
        return self.first_compromise_day is not None


@dataclass(frozen=True)
class PopulationAggregate:
    """Streaming per-shard aggregate: histograms only, never user rows.

    ``first_day_hist[0]`` counts never-compromised users and
    ``first_day_hist[d]`` users first compromised on day ``d``;
    ``comp_count_hist[k]`` counts users with exactly ``k`` compromised
    circuits.  Aggregates merge associatively, so shards of any size
    reduce to the same totals.
    """

    users: int
    circuits_built: int
    compromised_circuits: int
    first_day_hist: Tuple[int, ...]
    comp_count_hist: Tuple[int, ...]

    @property
    def compromised_users(self) -> int:
        return self.users - self.first_day_hist[0]

    @staticmethod
    def merge(parts: Iterable["PopulationAggregate"]) -> "PopulationAggregate":
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to merge")
        first_len = max(len(p.first_day_hist) for p in parts)
        count_len = max(len(p.comp_count_hist) for p in parts)
        first_hist = [0] * first_len
        count_hist = [0] * count_len
        users = built = hit = 0
        for part in parts:
            users += part.users
            built += part.circuits_built
            hit += part.compromised_circuits
            for i, v in enumerate(part.first_day_hist):
                first_hist[i] += v
            for i, v in enumerate(part.comp_count_hist):
                count_hist[i] += v
        return PopulationAggregate(
            users=users,
            circuits_built=built,
            compromised_circuits=hit,
            first_day_hist=tuple(first_hist),
            comp_count_hist=tuple(count_hist),
        )


def _aggregate_outcomes(
    outcomes: Sequence[UserOutcome], days: int
) -> PopulationAggregate:
    """Fold per-user rows into the histogram aggregate."""
    first_hist = [0] * (days + 1)
    max_hits = max((o.compromised_circuits for o in outcomes), default=0)
    count_hist = [0] * (max_hits + 1)
    built = hit = 0
    for outcome in outcomes:
        built += outcome.circuits_built
        hit += outcome.compromised_circuits
        first_hist[outcome.first_compromise_day or 0] += 1
        count_hist[outcome.compromised_circuits] += 1
    return PopulationAggregate(
        users=len(outcomes),
        circuits_built=built,
        compromised_circuits=hit,
        first_day_hist=tuple(first_hist),
        comp_count_hist=tuple(count_hist),
    )


@dataclass(frozen=True)
class PopulationReport:
    """Aggregate view over the simulated user population.

    The report is backed by a :class:`PopulationAggregate`; ``outcomes``
    (per-user rows) is retained only when the run keeps them
    (``keep_outcomes``) and is None for population-scale runs.
    Constructing with ``outcomes`` alone (the legacy shape) derives the
    aggregate on the spot.
    """

    outcomes: Optional[Tuple[UserOutcome, ...]]
    days: int
    aggregate: Optional[PopulationAggregate] = None

    def __post_init__(self) -> None:
        if self.aggregate is None:
            if self.outcomes is None:
                raise ValueError("need outcomes or an aggregate")
            object.__setattr__(
                self, "aggregate", _aggregate_outcomes(self.outcomes, self.days)
            )

    @property
    def num_users(self) -> int:
        return self.aggregate.users

    @property
    def fraction_compromised(self) -> float:
        agg = self.aggregate
        if not agg.users:
            return 0.0
        return agg.compromised_users / agg.users

    def fraction_compromised_by_day(self) -> List[float]:
        """Cumulative fraction of users compromised by each day (index 0 =
        day 1) — the Johnson-style survival curve, inverted."""
        agg = self.aggregate
        curve: List[float] = []
        cum = 0
        for day in range(1, self.days + 1):
            if day < len(agg.first_day_hist):
                cum += agg.first_day_hist[day]
            curve.append(cum / agg.users if agg.users else 0.0)
        return curve

    def median_days_to_compromise(self) -> Optional[float]:
        """Median time-to-first-compromise (None if under half were hit)."""
        agg = self.aggregate
        if agg.compromised_users * 2 < agg.users:
            return None
        rank = (agg.users + 1) // 2
        cum = 0
        for day in range(1, len(agg.first_day_hist)):
            cum += agg.first_day_hist[day]
            if cum >= rank:
                return float(day)
        return None

    def time_to_compromise_percentile(self, q: float) -> Optional[int]:
        """Smallest day by which a ``q`` fraction of users is compromised.

        None when the window ends before the quantile is reached — the
        CDF answer for "how long until q of the population is hit".
        """
        agg = self.aggregate
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        rank = math.ceil(q * agg.users)
        cum = 0
        for day in range(1, len(agg.first_day_hist)):
            cum += agg.first_day_hist[day]
            if cum >= rank:
                return day
        return None

    def compromise_rate_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the per-user circuit-compromise rate.

        Rates are compromised circuits over the mean circuits built per
        user (uniform within a kernel run).
        """
        agg = self.aggregate
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if not agg.users or not agg.circuits_built:
            return 0.0
        built_per_user = agg.circuits_built / agg.users
        rank = math.ceil(q * agg.users)
        cum = 0
        for count, bucket in enumerate(agg.comp_count_hist):
            cum += bucket
            if cum >= rank:
                return count / built_per_user
        return (len(agg.comp_count_hist) - 1) / built_per_user

    @property
    def mean_circuit_compromise_rate(self) -> float:
        agg = self.aggregate
        if not agg.circuits_built:
            return 0.0
        return agg.compromised_circuits / agg.circuits_built


@dataclass(frozen=True)
class _BlockResult:
    """One user block's contribution: the aggregate, plus rows if kept."""

    aggregate: PopulationAggregate
    outcomes: Optional[Tuple[UserOutcome, ...]]


def _encode_block(result: _BlockResult) -> dict:
    encoded = {
        "aggregate": {
            "users": result.aggregate.users,
            "circuits_built": result.aggregate.circuits_built,
            "compromised_circuits": result.aggregate.compromised_circuits,
            "first_day_hist": list(result.aggregate.first_day_hist),
            "comp_count_hist": list(result.aggregate.comp_count_hist),
        },
        "outcomes": None,
    }
    if result.outcomes is not None:
        encoded["outcomes"] = [
            [
                o.client_asn,
                o.circuits_built,
                o.compromised_circuits,
                o.first_compromise_day,
            ]
            for o in result.outcomes
        ]
    return encoded


def _decode_block(encoded: dict) -> _BlockResult:
    agg = encoded["aggregate"]
    outcomes = None
    if encoded.get("outcomes") is not None:
        outcomes = tuple(
            UserOutcome(
                client_asn=row[0],
                circuits_built=row[1],
                compromised_circuits=row[2],
                first_compromise_day=row[3],
            )
            for row in encoded["outcomes"]
        )
    return _BlockResult(
        aggregate=PopulationAggregate(
            users=agg["users"],
            circuits_built=agg["circuits_built"],
            compromised_circuits=agg["compromised_circuits"],
            first_day_hist=tuple(agg["first_day_hist"]),
            comp_count_hist=tuple(agg["comp_count_hist"]),
        ),
        outcomes=outcomes,
    )


# --------------------------------------------------------------------------
# The kernel: one user block
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _PopulationContext(TransientFields):
    """Shared world for user-block trials.

    Day mixes, registries, and the client assignment are precomputed at
    spec-build time (so no live callables ship to workers); ``engine`` is
    process-local and rebuilt via :func:`shared_engine` in workers.
    Exactly one of ``client_index`` (explicit roster: per-user registry
    index) or ``client_cum``/``client_pick`` (weighted sampling) is set.
    """

    graph: object
    client_registry: Tuple[int, ...]
    client_index: Optional[Tuple[int, ...]]
    client_cum: Optional[Tuple[float, ...]]
    client_pick: Optional[Tuple[int, ...]]
    guard_registry: Tuple[int, ...]
    exit_registry: Tuple[int, ...]
    day_mixes: Tuple[DayMix, ...]
    destination_asns: Tuple[int, ...]
    adversaries: frozenset
    days: int
    circuits_per_day: int
    num_guards: int
    rotation_days: float
    mode: ObservationMode
    draw_seed: int
    keep_outcomes: bool
    engine: object = None

    _transient = ("engine",)


@dataclass(frozen=True)
class _ExposureTables:
    """Boolean segment tables: clients × guards and exits × destinations."""

    entry: np.ndarray
    exit: np.ndarray


# One-slot cache: every block of a run shares one context object, so the
# tables (the expensive routed part) are built once per worker process.
_TABLE_CACHE: List[Tuple[_PopulationContext, _ExposureTables]] = []


def _tables_for(ctx: _PopulationContext) -> _ExposureTables:
    if _TABLE_CACHE and _TABLE_CACHE[0][0] is ctx:
        return _TABLE_CACHE[0][1]
    model = SurveillanceModel(ctx.graph, engine=ctx.engine)
    tables = _ExposureTables(
        entry=np.asarray(
            model.exposure_table(
                ctx.adversaries, ctx.client_registry, ctx.guard_registry, ctx.mode
            ),
            dtype=bool,
        ),
        exit=np.asarray(
            model.exposure_table(
                ctx.adversaries, ctx.exit_registry, ctx.destination_asns, ctx.mode
            ),
            dtype=bool,
        ),
    )
    _TABLE_CACHE[:] = [(ctx, tables)]
    return tables


def _day_samplers(
    mix: DayMix, num_guard_ases: int
) -> Tuple[_Sampler, _Sampler, np.ndarray]:
    """One day mix's guard and exit samplers and its live-guard mask."""
    alive = np.zeros(num_guard_ases, dtype=bool)
    alive[list(mix.guard_reg)] = True
    return (
        _Sampler(mix.guard_cum, mix.guard_reg),
        _Sampler(mix.exit_cum, mix.exit_reg),
        alive,
    )


def _simulate_block(
    ctx: _PopulationContext, tables: _ExposureTables, start: int, end: int
) -> _BlockResult:
    days, per_day, num_guards = ctx.days, ctx.circuits_per_day, ctx.num_guards
    seed, rotation = ctx.draw_seed, ctx.rotation_days
    num_dests = len(ctx.destination_asns)
    num_guard_ases = len(ctx.guard_registry)
    n = end - start
    users = np.arange(start, end, dtype=np.uint64)
    rows = np.arange(n)
    entry, exit_table = tables.entry.ravel(), tables.exit.ravel()

    if ctx.client_index is not None:
        clients = np.asarray(ctx.client_index[start:end], dtype=np.int64)
    else:
        u = _draws_vector(_draw_base(seed, 0, 0, _STREAM_CLIENT), users)
        clients = _Sampler(ctx.client_cum, ctx.client_pick).draw(u)
    # Each user's row offset into the flattened entry table.
    entry_rows = clients.astype(np.int64) * num_guard_ases

    # Samplers for one day mix at a time: under churn every day has its own.
    mix = ctx.day_mixes[0]
    guards, exits, alive = _day_samplers(mix, num_guard_ases)
    slots = np.empty((num_guards, n), dtype=np.int64)
    expiry = np.empty((num_guards, n), dtype=np.float64)
    for s in range(num_guards):
        u = _draws_vector(_draw_base(seed, 0, s, _STREAM_GUARD), users)
        slots[s] = guards.draw(u)
        u = _draws_vector(_draw_base(seed, 0, s, _STREAM_LIFETIME), users)
        expiry[s] = rotation * (1.0 + u)

    hits = np.zeros(n, dtype=np.int64)
    first = np.zeros(n, dtype=np.int64)
    for day in range(1, days + 1):
        if ctx.day_mixes[day - 1] is not mix:
            mix = ctx.day_mixes[day - 1]
            guards, exits, alive = _day_samplers(mix, num_guard_ases)
        now = float(day - 1)
        for s in range(num_guards):
            stale = (expiry[s] <= now) | ~alive[slots[s]]
            if stale.any():
                stale_users = users[stale]
                u = _draws_vector(
                    _draw_base(seed, day, s, _STREAM_GUARD), stale_users
                )
                slots[s][stale] = guards.draw(u)
                u = _draws_vector(
                    _draw_base(seed, day, s, _STREAM_LIFETIME), stale_users
                )
                expiry[s][stale] = now + rotation * (1.0 + u)
        # Guard slots only change between days, so each slot's entry
        # verdict is read once a day; slot s of user i sits at s * n + i.
        slot_hits = entry.take(entry_rows + slots).ravel()
        day_hit = np.zeros(n, dtype=bool)
        for c in range(per_day):
            u = _draws_vector(_draw_base(seed, day, c, _STREAM_SLOT), users)
            pick = np.minimum((u * num_guards).astype(np.int64), num_guards - 1)
            pick *= n
            pick += rows
            u = _draws_vector(_draw_base(seed, day, c, _STREAM_EXIT), users)
            exit_row = exits.draw(u) * np.int64(num_dests)
            u = _draws_vector(_draw_base(seed, day, c, _STREAM_DEST), users)
            dest = np.minimum((u * num_dests).astype(np.int64), num_dests - 1)
            dest += exit_row
            compromised = slot_hits.take(pick) & exit_table.take(dest)
            hits += compromised
            day_hit |= compromised
        first[day_hit & (first == 0)] = day

    first_hist = np.bincount(first, minlength=days + 1)
    count_hist = np.bincount(hits, minlength=days * per_day + 1)
    outcomes = None
    if ctx.keep_outcomes:
        registry = ctx.client_registry
        outcomes = tuple(
            UserOutcome(
                client_asn=registry[int(clients[i])],
                circuits_built=days * per_day,
                compromised_circuits=int(hits[i]),
                first_compromise_day=int(first[i]) or None,
            )
            for i in range(n)
        )
    aggregate = PopulationAggregate(
        users=n,
        circuits_built=n * days * per_day,
        compromised_circuits=int(hits.sum()),
        first_day_hist=tuple(int(v) for v in first_hist),
        comp_count_hist=tuple(int(v) for v in count_hist),
    )
    return _BlockResult(aggregate=aggregate, outcomes=outcomes)


def _population_block_trial(
    ctx: _PopulationContext, trial: Trial
) -> _BlockResult:
    start, end = trial.params
    return _simulate_block(ctx, _tables_for(ctx), start, end)


# --------------------------------------------------------------------------
# Spec and entry point
# --------------------------------------------------------------------------

#: Per-user rows are kept by default up to this population size.
KEEP_OUTCOMES_MAX = 100_000
_DEFAULT_BLOCK = 65_536

Clients = Union[Sequence[int], ClientASDistribution]


def population_spec(
    graph,
    consensus: Union[Consensus, Sequence[Consensus]],
    relay_asn: Callable[[str], int],
    clients: Clients,
    destination_asns: Sequence[int],
    adversaries: Iterable[int],
    *,
    num_users: Optional[int] = None,
    days: int = 30,
    circuits_per_day: int = 6,
    num_guards: int = 3,
    rotation_days: float = 30.0,
    mode: ObservationMode = ObservationMode.EITHER,
    seed: int = 0,
    keep_outcomes: Optional[bool] = None,
    block_size: Optional[int] = None,
    engine=None,
) -> ExperimentSpec:
    """The population sweep as a runner experiment: one trial per user block.

    ``consensus`` is a single consensus or a day series (e.g. from
    :func:`repro.tor.churn.evolve_consensus`; shorter series repeat their
    last day).  ``clients`` is an explicit per-user AS roster or a
    :class:`~repro.tor.clientdist.ClientASDistribution` with
    ``num_users``.  Day mixes and registries are precomputed here so the
    shipped context carries plain data, never callables.
    """
    if days < 1 or circuits_per_day < 1:
        raise ValueError("days and circuits_per_day must be positive")
    if num_guards < 1:
        raise ValueError("need at least one guard slot")
    if rotation_days <= 0.0:
        raise ValueError("rotation_days must be positive")
    if isinstance(consensus, Consensus):
        series: Sequence[Consensus] = (consensus,)
    else:
        series = tuple(consensus)
    if not series:
        raise ValueError("need at least one consensus day")
    destinations = tuple(destination_asns)
    adversary_set = frozenset(adversaries)
    if not destinations:
        raise ValueError("need clients and destinations")
    if not adversary_set:
        raise ValueError("need at least one adversary AS")

    client_index = client_cum = client_pick = None
    if isinstance(clients, ClientASDistribution):
        if num_users is None or num_users < 1:
            raise ValueError(
                "sampling from a ClientASDistribution needs num_users >= 1"
            )
        client_registry = tuple(sorted(clients.ases))
        registry_index = {asn: i for i, asn in enumerate(client_registry)}
        client_cum = clients.cumulative()
        client_pick = tuple(registry_index[asn] for asn in clients.ases)
    else:
        roster = tuple(clients)
        if not roster:
            raise ValueError("need clients and destinations")
        if num_users is not None and num_users != len(roster):
            raise ValueError(
                "num_users disagrees with the explicit client roster"
            )
        num_users = len(roster)
        client_registry = tuple(sorted(set(roster)))
        registry_index = {asn: i for i, asn in enumerate(client_registry)}
        client_index = tuple(registry_index[asn] for asn in roster)

    guard_registry, exit_registry, day_mixes = _build_day_mixes(
        series, relay_asn, days
    )
    if keep_outcomes is None:
        keep_outcomes = num_users <= KEEP_OUTCOMES_MAX
    if block_size is None:
        block_size = min(num_users, _DEFAULT_BLOCK)
    if block_size < 1:
        raise ValueError("block_size must be positive")

    trials = []
    for block, start in enumerate(range(0, num_users, block_size)):
        end = min(start + block_size, num_users)
        trials.append((f"block-{block}-{start}-{end}", (start, end)))

    return ExperimentSpec(
        name="population",
        seed=seed,
        trial_fn=_population_block_trial,
        trials=tuple(trials),
        context=_PopulationContext(
            graph=graph,
            client_registry=client_registry,
            client_index=client_index,
            client_cum=client_cum,
            client_pick=client_pick,
            guard_registry=guard_registry,
            exit_registry=exit_registry,
            day_mixes=day_mixes,
            destination_asns=destinations,
            adversaries=adversary_set,
            days=days,
            circuits_per_day=circuits_per_day,
            num_guards=num_guards,
            rotation_days=float(rotation_days),
            mode=mode,
            draw_seed=_population_seed(seed),
            keep_outcomes=keep_outcomes,
            engine=engine,
        ),
        params={
            "users": num_users,
            "days": days,
            "circuits_per_day": circuits_per_day,
            "mode": mode.value,
            "block_size": block_size,
        },
        encode_result=_encode_block,
        decode_result=_decode_block,
    )


def simulate_population(
    graph,
    consensus: Union[Consensus, Sequence[Consensus]],
    relay_asn: Callable[[str], int],
    clients: Clients,
    destination_asns: Sequence[int],
    adversaries: Iterable[int],
    *,
    num_users: Optional[int] = None,
    days: int = 30,
    circuits_per_day: int = 6,
    num_guards: int = 3,
    rotation_days: float = 30.0,
    mode: ObservationMode = ObservationMode.EITHER,
    seed: int = 0,
    keep_outcomes: Optional[bool] = None,
    block_size: Optional[int] = None,
    engine=None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> PopulationReport:
    """Simulate the whole population's month; returns the report.

    Each user keeps ``num_guards`` persistent guard slots (rotating on a
    staggered ``rotation_days`` schedule, and immediately when the
    slot's AS loses all guard capacity to churn) and builds
    ``circuits_per_day`` circuits a day to random monitored
    destinations; a circuit is compromised when some colluding adversary
    AS observes both of its end segments under ``mode``.

    The population shards over ``jobs`` processes in user blocks with
    streaming aggregate merges; draws are keyed by absolute user index,
    so any ``block_size`` / ``jobs`` combination produces bit-identical
    results.
    """
    spec = population_spec(
        graph,
        consensus,
        relay_asn,
        clients,
        destination_asns,
        adversaries,
        num_users=num_users,
        days=days,
        circuits_per_day=circuits_per_day,
        num_guards=num_guards,
        rotation_days=rotation_days,
        mode=mode,
        seed=seed,
        keep_outcomes=keep_outcomes,
        block_size=block_size,
        engine=engine,
    )
    with obs.span(
        "population.simulate",
        users=spec.params["users"],
        days=days,
        circuits_per_day=circuits_per_day,
    ) as sim_span:
        started = time.perf_counter()
        report = run_experiment(
            spec, jobs=jobs, checkpoint=checkpoint, resume=resume
        )
        blocks = list(report.results())
        elapsed = time.perf_counter() - started
        aggregate = PopulationAggregate.merge(b.aggregate for b in blocks)
        outcomes = None
        if all(b.outcomes is not None for b in blocks):
            outcomes = tuple(o for b in blocks for o in b.outcomes)
        user_days = aggregate.users * days
        rate = user_days / elapsed if elapsed > 0 else 0.0
        sim_span.set(
            circuits_built=aggregate.circuits_built,
            compromised=aggregate.compromised_circuits,
            user_days=user_days,
        )
        obs.add("population.users", aggregate.users)
        obs.add("population.user_days", user_days)
        obs.add("population.circuits_built", aggregate.circuits_built)
        obs.add(
            "population.circuits_compromised", aggregate.compromised_circuits
        )
        obs.gauge("population.user_days_per_sec", rate)
    return PopulationReport(outcomes=outcomes, days=days, aggregate=aggregate)
