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
  destination, computes one :class:`~repro.asgraph.routing.RoutingOutcome`
  per origin with a merged target set, and can fan destinations out across
  a ``concurrent.futures`` process pool;
- **instrumentation** — hit/miss/eviction counters and per-stage kernel
  timings, surfaced through :meth:`stats` (and ``repro.cli
  --engine-stats``).

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
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
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
from repro.asgraph.fastpath import compute_routes_fast
from repro.asgraph.incremental import DynamicRoutingSession
from repro.asgraph.index import graph_index
from repro.asgraph.routing import RoutingOutcome, _normalise_origins, _OriginsArg
from repro.asgraph.topology import ASGraph

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
    #: paths_many calls, and how many of them used the process pool
    batches: int
    parallel_batches: int
    #: routing sessions handed out via :meth:`RoutingEngine.session`
    sessions: int = 0

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
            f"{self.batches} batches ({self.parallel_batches} parallel); "
            f"{self.sessions} sessions"
        )


class RoutingEngine:
    """Process-wide memoizing route oracle (thread-safe)."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: base key -> [(targets or None, outcome), ...], LRU over base keys
        self._cache: "OrderedDict[_BaseKey, List[Tuple[Optional[FrozenSet[int]], RoutingOutcome]]]" = OrderedDict()
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
        self._parallel_batches = 0
        self._sessions = 0

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
    ) -> Optional[RoutingOutcome]:
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
        outcome: RoutingOutcome,
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
    ) -> RoutingOutcome:
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
        self,
        graph: ASGraph,
        origins: object,
        excluded_links: Optional[Iterable[_Link]] = None,
        origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
        targets: Optional[object] = None,
    ):
        """A batch of :meth:`outcome` calls answered in one kernel pass.

        The typed form takes an :class:`~repro.serve.api.OutcomeBatch`
        (row specs plus the batch-wide excluded links / export scopes /
        targets) and returns an
        :class:`~repro.serve.api.OutcomeBatchResult`, input order
        preserved.  The legacy form — a raw sequence of announcement
        specs with loose keyword arguments — still works but emits a
        ``DeprecationWarning``; build an ``OutcomeBatch`` instead.

        Warm rows are answered from the LRU; the misses are routed
        together through
        :func:`~repro.asgraph.batch.compute_routes_many` (one shared
        propagation) and stored back under their
        ordinary per-origin keys — a batch warms the cache exactly like
        the equivalent loop of :meth:`outcome` calls, and vice versa.
        """
        from repro.serve.api import OutcomeBatch, OutcomeBatchResult

        if isinstance(origins, OutcomeBatch):
            batch = origins
            outs = self._outcomes_many_rows(
                graph,
                batch.rows,
                excluded_links=batch.excluded_links,
                origin_export_scopes=(
                    dict(batch.origin_export_scopes)
                    if batch.origin_export_scopes is not None
                    else None
                ),
                targets=batch.targets,
            )
            return OutcomeBatchResult(outcomes=tuple(outs))
        warnings.warn(
            "outcomes_many(graph, [specs...]) with loose arguments is "
            "deprecated; pass a repro.serve.api.OutcomeBatch",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._outcomes_many_rows(
            graph,
            origins,  # type: ignore[arg-type]
            excluded_links=excluded_links,
            origin_export_scopes=origin_export_scopes,
            targets=targets,
        )

    def _outcomes_many_rows(
        self,
        graph: ASGraph,
        origins: Sequence[_OriginsArg],
        excluded_links: Optional[Iterable[_Link]] = None,
        origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
        targets: Optional[object] = None,
    ) -> List[RoutingOutcome]:
        seeds_list = [_normalise_origins(spec) for spec in origins]
        excluded = frozenset(excluded_links) if excluded_links else frozenset()
        all_scopes = dict(origin_export_scopes) if origin_export_scopes else {}
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
            return []
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
        results: List[Optional[RoutingOutcome]] = [None] * len(seeds_list)
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
        return results  # type: ignore[return-value]

    def _compute_many_raw(
        self,
        graph: ASGraph,
        seeds_list: Sequence[Mapping[int, Tuple[int, ...]]],
        excluded: FrozenSet[_Link],
        scopes: Mapping[int, FrozenSet[int]],
        targets_list: Sequence[Optional[FrozenSet[int]]],
        timings: Dict[str, float],
    ) -> List[RoutingOutcome]:
        """Compute every row, no cache involvement.

        Rows whose announcements are all plain (every seed announces its
        own one-hop path) go through one :func:`compute_routes_many`
        propagation; forged-path rows get one kernel run each.
        """
        results: List[Optional[RoutingOutcome]] = [None] * len(seeds_list)
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

    def paths_many(
        self,
        graph: ASGraph,
        pairs: object,
        workers: Optional[int] = None,
        chunk_size: int = 8,
    ):
        """Batch path queries through one grouped kernel pass.

        The typed form takes a :class:`~repro.serve.api.PathBatch`
        (queries plus the pool fan-out knobs) and returns a
        :class:`~repro.serve.api.PathBatchResult` — per-query
        :class:`~repro.serve.api.PathResult` rows, input order preserved,
        with ``.mapping()`` recovering the legacy dict view.  The legacy
        form — an iterable of ``(src, dst)`` tuples returning
        ``{(src, dst): path or None}`` — still works but emits a
        ``DeprecationWarning``; build a ``PathBatch`` instead.

        Queries are grouped by destination — one kernel run per origin with
        the merged source set as its early-exit targets — and answered from
        (and stored into) the cache.  With ``workers`` set, destinations
        that miss the cache are chunked and fanned out across a
        ``ProcessPoolExecutor``; the inputs are plain picklable values and
        the returned outcomes are folded back into the cache, so a parallel
        batch warms the cache exactly like a serial one.
        """
        from repro.serve.api import PathBatch, PathBatchResult, PathResult

        if isinstance(pairs, PathBatch):
            batch = pairs
            mapping = self._paths_many_pairs(
                graph,
                [(q.src, q.dst) for q in batch.queries],
                workers=workers if workers is not None else batch.workers,
                chunk_size=batch.chunk_size if chunk_size == 8 else chunk_size,
            )
            return PathBatchResult(
                results=tuple(
                    PathResult(src=q.src, dst=q.dst, path=mapping[(q.src, q.dst)])
                    for q in batch.queries
                )
            )
        warnings.warn(
            "paths_many(graph, pairs) with raw tuples is deprecated; "
            "pass a repro.serve.api.PathBatch",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._paths_many_pairs(
            graph, pairs, workers=workers, chunk_size=chunk_size
        )

    def _paths_many_pairs(
        self,
        graph: ASGraph,
        pairs: Iterable[Tuple[int, int]],
        workers: Optional[int] = None,
        chunk_size: int = 8,
    ) -> Dict[Tuple[int, int], Optional[Tuple[int, ...]]]:
        by_dst: Dict[int, set] = {}
        order: List[Tuple[int, int]] = []
        for src, dst in pairs:
            by_dst.setdefault(dst, set()).add(src)
            order.append((src, dst))
        with self._lock:
            self._batches += 1

        outcomes: Dict[int, RoutingOutcome] = {}
        misses: List[int] = []
        fp = self.fingerprint(graph)
        for dst, srcs in by_dst.items():
            key = self._base_key(fp, {dst: (dst,)}, frozenset(), {})
            with self._lock:
                self._queries += 1
                cached = self._lookup(key, frozenset(srcs))
                if cached is not None:
                    self._hits += 1
                    outcomes[dst] = cached
                else:
                    self._misses += 1
                    misses.append(dst)

        if workers is not None and workers > 1 and len(misses) > 1:
            with self._lock:
                self._parallel_batches += 1
            jobs = [
                (dst, tuple(sorted(by_dst[dst]))) for dst in sorted(misses)
            ]
            chunks = [
                jobs[i : i + chunk_size] for i in range(0, len(jobs), chunk_size)
            ]
            from concurrent.futures import ProcessPoolExecutor

            # The graph ships to each worker exactly once, via the pool
            # initializer (not re-pickled per chunk); workers compile their
            # GraphIndex once and reuse it across chunks.
            shared_index = graph_index(graph)
            started = time.perf_counter()
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_pool_worker,
                initargs=(graph,),
            ) as pool:
                for chunk_result in pool.map(_compute_chunk, chunks):
                    for dst, targets, outcome, timings in chunk_result:
                        # Drop the worker's unpickled index copy in favour
                        # of the parent's shared snapshot.
                        outcome.rebind_index(shared_index)
                        outcomes[dst] = outcome
                        key = self._base_key(fp, {dst: (dst,)}, frozenset(), {})
                        with self._lock:
                            # Workers ship their kernel stage timings home
                            # so --engine-stats breakdowns cover parallel
                            # batches too, not just the wall-clock total.
                            self._merge_stage_seconds(timings)
                            self._store(key, frozenset(targets), outcome)
            with self._lock:
                self._compute_seconds += time.perf_counter() - started
        elif misses:
            # Sorted like the parallel branch, so cache-store order and
            # obs span/counter streams are stable across ``workers``.
            miss_order = sorted(misses)
            tgt_list = [frozenset(by_dst[dst]) for dst in miss_order]
            timings: Dict[str, float] = {}
            started = time.perf_counter()
            outs = self._compute_many_raw(
                graph,
                [{dst: (dst,)} for dst in miss_order],
                frozenset(),
                {},
                tgt_list,
                timings,
            )
            elapsed = time.perf_counter() - started
            with self._lock:
                self._compute_seconds += elapsed
                self._merge_stage_seconds(timings)
                for dst, tgts, outcome in zip(miss_order, tgt_list, outs):
                    key = self._base_key(fp, {dst: (dst,)}, frozenset(), {})
                    self._store(key, tgts, outcome)
            outcomes.update(zip(miss_order, outs))

        # ``order`` replays the caller's pairs (duplicates included) so the
        # result dict is built in input order regardless of batching.
        return {(src, dst): outcomes[dst].path(src) for src, dst in order}

    def session(
        self,
        graph: ASGraph,
        origins: _OriginsArg,
        excluded_links: Optional[Iterable[_Link]] = None,
        origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
    ) -> DynamicRoutingSession:
        """A stateful routing session over one announcement set: a
        :class:`~repro.asgraph.incremental.DynamicRoutingSession`, which
        maintains its routes by delta on churn events.

        Sessions are live views, not cache entries: they share nothing with
        the outcome cache and are not invalidated by :meth:`invalidate`
        (they watch ``graph.version`` themselves).
        """
        with self._lock:
            self._sessions += 1
        return DynamicRoutingSession(
            graph,
            origins,
            excluded_links=excluded_links,
            origin_export_scopes=origin_export_scopes,
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
                parallel_batches=self._parallel_batches,
                sessions=self._sessions,
            )


#: Per-worker state installed by the pool initializer: the one graph this
#: pool routes over.
_worker_graph: Optional[ASGraph] = None


def _init_pool_worker(graph: ASGraph) -> None:
    """Pool initializer: receive the graph once and pre-compile its index."""
    global _worker_graph
    _worker_graph = graph
    graph_index(graph)  # compile once; every chunk in this worker reuses it


def _compute_chunk(
    chunk: Sequence[Tuple[int, Tuple[int, ...]]]
) -> List[Tuple[int, Tuple[int, ...], RoutingOutcome, Dict[str, float]]]:
    """Process-pool worker: compute one chunk of per-destination outcomes,
    each paired with its kernel stage timings for the parent to merge."""
    graph = _worker_graph
    assert graph is not None, "_init_pool_worker did not run"
    results = []
    for dst, targets in chunk:
        timings: Dict[str, float] = {}
        outcome = compute_routes_fast(
            graph, (dst,), targets=frozenset(targets), stage_timings=timings
        )
        results.append((dst, targets, outcome, timings))
    return results


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
