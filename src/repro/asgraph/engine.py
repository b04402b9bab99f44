"""Shared memoizing facade over :func:`~repro.asgraph.fastpath.compute_routes_fast`.

Every experiment in this reproduction — temporal exposure (§3.1),
hijack/interception capture sets (§3.2), asymmetric correlation endpoints
(§3.3) — bottoms out in the same three-stage Gao-Rexford computation, and
the workloads repeat themselves relentlessly: a guard sweep hijacks the
same victim origins against the same attacker, a resilience table re-runs
the same (origin, attacker) pairs for every client, a countermeasure
ablation replays the same scenario with one knob changed.  The
:class:`RoutingEngine` sits between those callers and the pure kernel:

- **memoisation** — outcomes are cached under
  ``(graph fingerprint, normalised origins, excluded links, export
  scopes)``, with *targets-superset* matching: an outcome computed for
  the full topology (``targets=None``) or for a superset of the requested
  target ASes answers the narrower query, because the staged computation
  finalises every target exactly;
- **batching** — :meth:`paths_many` groups (src, dst) path queries by
  destination and computes one
  :class:`~repro.asgraph.fastpath.CompactOutcome` per origin with a merged
  target set;
- **instrumentation** — hit/miss/eviction counters and per-stage kernel
  timings, surfaced through :meth:`stats` (and ``repro --obs-summary``).

Underneath sit the flat-array kernel
(:func:`~repro.asgraph.fastpath.compute_routes_fast`) and its multi-origin
batch (:func:`~repro.asgraph.batch.compute_routes_many`).  The engine
never changes what a route *is*, only how often and how fast it is
computed.  The graph fingerprint is
taken once per :class:`~repro.asgraph.topology.ASGraph` object — callers
that mutate a graph after routing through the engine must call
:meth:`invalidate` (the codebase convention is to express what-ifs via
``excluded_links`` instead of mutation, which needs no invalidation).
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.asgraph.batch import compute_routes_many
from repro.asgraph.fastpath import CompactOutcome, compute_routes_fast
from repro.asgraph.routing import _normalise_origins, _OriginsArg
from repro.asgraph.topology import ASGraph

if TYPE_CHECKING:
    from repro.serve.api import (
        OutcomeBatch,
        OutcomeBatchResult,
        PathBatch,
        PathBatchResult,
    )

__all__ = [
    "EngineStats",
    "RoutingEngine",
    "shared_engine",
    "set_shared_engine",
]

_Link = FrozenSet[int]
#: (fingerprint, origins, excluded links, export scopes)
_BaseKey = Tuple[str, Tuple[Tuple[int, Tuple[int, ...]], ...], FrozenSet[_Link], Tuple]


@dataclass(frozen=True)
class EngineStats:
    """A snapshot of one engine's counters."""

    queries: int
    hits: int
    misses: int
    evictions: int
    entries: int
    #: wall seconds spent inside the kernel (cache misses only)
    compute_seconds: float
    #: kernel seconds per propagation stage ("customer"/"peer"/"provider")
    stage_seconds: Mapping[str, float]
    #: outcomes_many calls with at least one row (paths_many makes one)
    batches: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    def format(self) -> str:
        stages = " ".join(
            f"{name}={secs:.3f}s" for name, secs in sorted(self.stage_seconds.items())
        )
        return (
            f"routing engine: {self.queries} queries, {self.hits} hits "
            f"({self.hit_rate:.1%}), {self.misses} misses, "
            f"{self.evictions} evictions, {self.entries} cached outcomes; "
            f"kernel {self.compute_seconds:.3f}s [{stages}]; "
            f"{self.batches} batches"
        )


class RoutingEngine:
    """Process-wide memoizing route oracle (thread-safe)."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: base key -> [(targets or None, outcome), ...], LRU over base keys
        self._cache: "OrderedDict[_BaseKey, List[Tuple[Optional[FrozenSet[int]], CompactOutcome]]]" = OrderedDict()
        self._num_outcomes = 0
        self._fingerprints: "weakref.WeakKeyDictionary[ASGraph, str]" = (
            weakref.WeakKeyDictionary()
        )
        self._queries = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compute_seconds = 0.0
        self._stage_seconds: Dict[str, float] = {}
        self._batches = 0

    # -- cache plumbing ------------------------------------------------------

    def fingerprint(self, graph: ASGraph) -> str:
        """Content hash of the topology, computed once per graph object."""
        fp = self._fingerprints.get(graph)
        if fp is None:
            fp = hashlib.blake2b(
                graph.to_as_rel().encode(), digest_size=16
            ).hexdigest()
            self._fingerprints[graph] = fp
        return fp

    def invalidate(self, graph: ASGraph) -> None:
        """Forget the graph's fingerprint and every outcome computed for it.

        Required after mutating a graph (``add_*``/``remove_link``) that was
        previously routed through this engine.
        """
        with self._lock:
            fp = self._fingerprints.pop(graph, None)
            if fp is None:
                return
            stale = [key for key in self._cache if key[0] == fp]
            for key in stale:
                self._num_outcomes -= len(self._cache.pop(key))

    def clear(self) -> None:
        """Drop every cached outcome (counters are kept)."""
        with self._lock:
            self._cache.clear()
            self._num_outcomes = 0

    @staticmethod
    def _base_key(
        fp: str,
        seeds: Mapping[int, Tuple[int, ...]],
        excluded: FrozenSet[_Link],
        scopes: Mapping[int, FrozenSet[int]],
    ) -> _BaseKey:
        return (
            fp,
            tuple(sorted(seeds.items())),
            excluded,
            tuple(sorted((asn, scope) for asn, scope in scopes.items())),
        )

    def _lookup(
        self, key: _BaseKey, targets: Optional[FrozenSet[int]]
    ) -> Optional[CompactOutcome]:
        """Find a cached outcome valid for ``targets`` (lock held)."""
        entries = self._cache.get(key)
        if entries is None:
            return None
        for cached_targets, outcome in entries:
            if cached_targets is None or (
                targets is not None and targets <= cached_targets
            ):
                self._cache.move_to_end(key)
                return outcome
        return None

    def _store(
        self,
        key: _BaseKey,
        targets: Optional[FrozenSet[int]],
        outcome: CompactOutcome,
    ) -> None:
        """Insert an outcome and evict the LRU base key if over capacity
        (lock held)."""
        entries = self._cache.setdefault(key, [])
        if targets is None:
            # A full outcome subsumes every targeted entry under this key.
            self._num_outcomes -= len(entries)
            entries.clear()
        entries.append((targets, outcome))
        self._num_outcomes += 1
        self._cache.move_to_end(key)
        while self._num_outcomes > self.max_entries and len(self._cache) > 1:
            _key, evicted = self._cache.popitem(last=False)
            self._num_outcomes -= len(evicted)
            self._evictions += len(evicted)

    # -- queries -------------------------------------------------------------

    def outcome(
        self,
        graph: ASGraph,
        origins: _OriginsArg,
        excluded_links: Optional[Iterable[_Link]] = None,
        origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
        targets: Optional[FrozenSet[int]] = None,
    ) -> CompactOutcome:
        """Memoized :func:`~repro.asgraph.fastpath.compute_routes_fast`
        (same signature and semantics)."""
        seeds = _normalise_origins(origins)
        excluded = frozenset(excluded_links) if excluded_links else frozenset()
        scopes = dict(origin_export_scopes) if origin_export_scopes else {}
        key = self._base_key(self.fingerprint(graph), seeds, excluded, scopes)
        with self._lock:
            self._queries += 1
            cached = self._lookup(key, targets)
            if cached is not None:
                self._hits += 1
                return cached
            self._misses += 1
        # Accumulate stage timings into a local dict and merge under the
        # lock: handing the kernel the shared dict would mutate it outside
        # the lock, racing concurrent outcome() calls.
        timings: Dict[str, float] = {}
        started = time.perf_counter()
        outcome = compute_routes_fast(
            graph,
            seeds,
            excluded_links=excluded,
            origin_export_scopes=scopes,
            targets=targets,
            stage_timings=timings,
        )
        elapsed = time.perf_counter() - started
        with self._lock:
            self._compute_seconds += elapsed
            self._merge_stage_seconds(timings)
            self._store(key, targets, outcome)
        return outcome

    def outcomes_many(
        self, graph: ASGraph, batch: "OutcomeBatch"
    ) -> "OutcomeBatchResult":
        """A batch of :meth:`outcome` calls answered in one kernel pass.

        Takes an :class:`~repro.serve.api.OutcomeBatch` (row specs plus
        the batch-wide excluded links / export scopes / targets) and
        returns an :class:`~repro.serve.api.OutcomeBatchResult`, input
        order preserved.

        Warm rows are answered from the LRU; the misses are routed
        together through
        :func:`~repro.asgraph.batch.compute_routes_many` (one shared
        propagation) and stored back under their
        ordinary per-origin keys — a batch warms the cache exactly like
        the equivalent loop of :meth:`outcome` calls, and vice versa.
        """
        from repro.serve.api import OutcomeBatchResult

        seeds_list = [_normalise_origins(spec) for spec in batch.rows]
        excluded = frozenset(batch.excluded_links or ())
        all_scopes = dict(batch.origin_export_scopes or ())
        targets = batch.targets
        if targets is None:
            tlist: List[Optional[FrozenSet[int]]] = [None] * len(seeds_list)
        elif isinstance(targets, (frozenset, set)):
            shared = frozenset(targets)
            tlist = [shared] * len(seeds_list)
        else:
            tlist = [frozenset(t) if t is not None else None for t in targets]
            if len(tlist) != len(seeds_list):
                raise ValueError(
                    f"targets sequence has {len(tlist)} entries for "
                    f"{len(seeds_list)} origin rows"
                )
        if not seeds_list:
            return OutcomeBatchResult(outcomes=())
        fp = self.fingerprint(graph)
        keys = [
            self._base_key(
                fp,
                seeds,
                excluded,
                {a: all_scopes[a] for a in seeds if a in all_scopes},
            )
            for seeds in seeds_list
        ]
        results: List[Optional[CompactOutcome]] = [None] * len(seeds_list)
        miss_rows: List[int] = []
        with self._lock:
            self._batches += 1
            for row, key in enumerate(keys):
                self._queries += 1
                cached = self._lookup(key, tlist[row])
                if cached is not None:
                    self._hits += 1
                    results[row] = cached
                else:
                    self._misses += 1
                    miss_rows.append(row)
        if miss_rows:
            timings: Dict[str, float] = {}
            started = time.perf_counter()
            outs = self._compute_many_raw(
                graph,
                [seeds_list[r] for r in miss_rows],
                excluded,
                all_scopes,
                [tlist[r] for r in miss_rows],
                timings,
            )
            elapsed = time.perf_counter() - started
            with self._lock:
                self._compute_seconds += elapsed
                self._merge_stage_seconds(timings)
                for row, out in zip(miss_rows, outs):
                    self._store(keys[row], tlist[row], out)
            for row, out in zip(miss_rows, outs):
                results[row] = out
        return OutcomeBatchResult(outcomes=tuple(results))

    def _compute_many_raw(
        self,
        graph: ASGraph,
        seeds_list: Sequence[Mapping[int, Tuple[int, ...]]],
        excluded: FrozenSet[_Link],
        scopes: Mapping[int, FrozenSet[int]],
        targets_list: Sequence[Optional[FrozenSet[int]]],
        timings: Dict[str, float],
    ) -> List[CompactOutcome]:
        """Compute every row, no cache involvement.

        Rows whose announcements are all plain (every seed announces its
        own one-hop path) go through one :func:`compute_routes_many`
        propagation; forged-path rows get one kernel run each.
        """
        results: List[Optional[CompactOutcome]] = [None] * len(seeds_list)
        batchable = [
            i
            for i, seeds in enumerate(seeds_list)
            if all(path == (asn,) for asn, path in seeds.items())
        ]
        if batchable:
            specs = [tuple(sorted(seeds_list[i])) for i in batchable]
            present = {asn for spec in specs for asn in spec}
            batch = compute_routes_many(
                graph,
                specs,
                targets=[targets_list[i] for i in batchable],
                excluded_links=excluded or None,
                origin_export_scopes={
                    a: s for a, s in scopes.items() if a in present
                }
                or None,
                stage_timings=timings,
            )
            for row, i in enumerate(batchable):
                results[i] = batch.outcome(row)
        for i, seeds in enumerate(seeds_list):
            if results[i] is None:
                results[i] = compute_routes_fast(
                    graph,
                    seeds,
                    excluded_links=excluded,
                    origin_export_scopes={
                        a: scopes[a] for a in seeds if a in scopes
                    },
                    targets=targets_list[i],
                    stage_timings=timings,
                )
        return results  # type: ignore[return-value]

    def _merge_stage_seconds(self, timings: Mapping[str, float]) -> None:
        """Fold one kernel run's stage timings into the counters (lock held)."""
        for stage, seconds in timings.items():
            self._stage_seconds[stage] = self._stage_seconds.get(stage, 0.0) + seconds

    def path(self, graph: ASGraph, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        """Memoized, early-exiting equivalent of
        :func:`repro.asgraph.routing.as_path`."""
        return self.outcome(graph, (dst,), targets=frozenset((src,))).path(src)

    def paths_many(self, graph: ASGraph, batch: "PathBatch") -> "PathBatchResult":
        """Batch path queries through one grouped kernel pass.

        Takes a :class:`~repro.serve.api.PathBatch` and returns a
        :class:`~repro.serve.api.PathBatchResult` — per-query
        :class:`~repro.serve.api.PathResult` rows, input order preserved
        (duplicates included), with ``.mapping()`` for the
        ``{(src, dst): path}`` view.

        Queries are grouped by destination into one :meth:`outcomes_many`
        batch: one row per destination, in ascending order, with the merged
        source set as its early-exit targets.  The misses are therefore
        computed in ascending destination order, so cache-store order does
        not depend on the order of the queries.
        """
        from repro.serve.api import OutcomeBatch, PathBatchResult, PathResult

        by_dst: Dict[int, set] = {}
        for q in batch.queries:
            by_dst.setdefault(q.dst, set()).add(q.src)
        dsts = sorted(by_dst)
        rows = OutcomeBatch.of(
            [(dst,) for dst in dsts],
            targets=[frozenset(by_dst[dst]) for dst in dsts],
        )
        outcomes = dict(zip(dsts, self.outcomes_many(graph, rows)))
        return PathBatchResult(
            results=tuple(
                PathResult(src=q.src, dst=q.dst, path=outcomes[q.dst].path(q.src))
                for q in batch.queries
            )
        )

    # -- instrumentation -----------------------------------------------------

    def stats(self) -> EngineStats:
        with self._lock:
            return EngineStats(
                queries=self._queries,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=self._num_outcomes,
                compute_seconds=self._compute_seconds,
                stage_seconds=dict(self._stage_seconds),
                batches=self._batches,
            )


_shared_lock = threading.Lock()
_shared: Optional[RoutingEngine] = None


def shared_engine() -> RoutingEngine:
    """The process-wide engine every migrated caller defaults to."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = RoutingEngine()
        return _shared


def set_shared_engine(engine: Optional[RoutingEngine]) -> None:
    """Replace (or, with ``None``, reset) the process-wide engine."""
    global _shared
    with _shared_lock:
        _shared = engine
