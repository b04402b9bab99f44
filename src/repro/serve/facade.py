"""Query execution behind the unified API, shared by all callers.

:class:`QueryFacade` is *the* implementation of the typed query surface in
:mod:`repro.serve.api`: the daemon deserialises wire queries into it, and
in-process callers construct one directly.  Either way the answers are
bit-identical because there is exactly one execution path.

Path, exposure and same-prefix hijack queries read their route outcomes
from one source, picked per facade:

- **live** (``live=`` a :class:`~repro.asgraph.routecache.LiveRoutes`):
  full route trees from the live route cache, which ``apply-events``
  keeps in sync with the current exclusion set.  Batches run under the
  live reader gate, so an epoch bump never tears a batch;
- otherwise one :meth:`~repro.asgraph.engine.RoutingEngine.outcomes_many`
  batch per query kind under ``excluded_links`` (empty on a fresh
  graph).  A static exclusion set makes the facade the cold reference for
  a churned topology: live answers at any epoch are bit-identical to a
  facade built with that epoch's exclusion set.

Other attack kinds go through the engine under the current exclusion set.

:class:`ResultCache` is the serving tier's memo: completed wire results
keyed by the query's canonical wire form, LRU-bounded, stamped with the
announcement sets each answer depends on, and versioned by the topology
epoch — churn invalidates exactly the entries whose dependencies could
not be proven unchanged, instead of flushing the cache.  Snapshots carry the
epoch alongside the graph fingerprint and refuse to restore into a
daemon whose epoch differs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.fastpath import CompactOutcome
from repro.asgraph.routecache import ChurnReport, LiveRoutes
from repro.asgraph.topology import ASGraph
from repro.core.surveillance import ObservationMode, circuit_sides
from repro.persist import CheckpointWriter, read_checkpoint
from repro.serve.api import (
    API_SCHEMA_VERSION,
    BatchRequest,
    BatchResponse,
    ExposureQuery,
    ExposureResult,
    HijackQuery,
    HijackQueryResult,
    OutcomeBatch,
    PathQuery,
    PathResult,
    QueryError,
    decode,
    encode,
    query_key,
)

__all__ = ["QueryFacade", "ResultCache"]

#: experiment name recorded in cache snapshot headers
_SNAPSHOT_EXPERIMENT = "serve-cache"

_Link = FrozenSet[int]
#: a cache entry's dependency: one announcement set (a live route key)
_Dep = Tuple[int, ...]


class ResultCache:
    """Thread-safe LRU of wire-form query results, versioned by epoch.

    Entries map :func:`repro.serve.api.query_key` strings to wire result
    documents plus the announcement sets the answer depends on.
    :meth:`advance_epoch` drops exactly the entries whose dependencies
    were not proven unchanged by the churn bump.  Snapshots
    reuse the :mod:`repro.persist` checkpoint format (versioned header +
    one record per entry), tagged with the graph fingerprint *and* the
    topology epoch so a snapshot can never be restored against a
    different topology or a daemon whose epoch has moved.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._deps: Dict[str, Tuple[_Dep, ...]] = {}
        #: reverse index: announcement set -> cache keys depending on it
        self._by_dep: Dict[_Dep, Set[str]] = {}
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            doc = self._entries.get(key)
            if doc is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return doc

    def put(self, key: str, doc: dict, deps: Tuple[_Dep, ...] = ()) -> None:
        with self._lock:
            if key in self._entries:
                self._drop_deps(key)
            self._entries[key] = doc
            self._entries.move_to_end(key)
            self._deps[key] = deps
            for dep in deps:
                self._by_dep.setdefault(dep, set()).add(key)
            while len(self._entries) > self.max_entries:
                old_key, _ = self._entries.popitem(last=False)
                self._drop_deps(old_key)

    def _drop_deps(self, key: str) -> None:
        """Remove ``key`` from the reverse index (lock held)."""
        for dep in self._deps.pop(key, ()):
            holders = self._by_dep.get(dep)
            if holders is not None:
                holders.discard(key)
                if not holders:
                    del self._by_dep[dep]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- epoch versioning ----------------------------------------------------

    def advance_epoch(
        self,
        epoch: int,
        proven: Iterable[_Dep] = (),
        *,
        keep_all: bool = False,
    ) -> int:
        """Move the cache to ``epoch``; returns entries invalidated.

        ``proven`` are the announcement sets whose routes the churn bump
        provably left unchanged (``LiveRoutes.apply_events``'s
        ``proven_keys``).  An entry survives only when *every* one of its
        dependencies is proven — anything else could have a different
        answer at the new epoch and is dropped.  ``keep_all=True`` is the
        no-op-bump fast path (the event batch did not change the exclusion
        set at all), where every entry stays valid.
        """
        with self._lock:
            if epoch < self._epoch:
                raise ValueError(
                    f"epoch moved backwards: cache at {self._epoch}, got {epoch}"
                )
            self._epoch = epoch
            if keep_all:
                return 0
            proven_set = set(proven)
            doomed = [
                key
                for key, deps in self._deps.items()
                if not deps or any(dep not in proven_set for dep in deps)
            ]
            for key in doomed:
                self._entries.pop(key, None)
                self._drop_deps(key)
            self.invalidations += len(doomed)
            return len(doomed)

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self, path: str, graph_fingerprint: str) -> int:
        """Write every entry to ``path``; returns the entry count."""
        with self._lock:
            entries = [
                (key, doc, self._deps.get(key, ()))
                for key, doc in self._entries.items()
            ]
            epoch = self._epoch
        with CheckpointWriter.create(
            path,
            {
                "experiment": _SNAPSHOT_EXPERIMENT,
                "seed": 0,
                "total_trials": len(entries),
                "params": {
                    "graph_fingerprint": graph_fingerprint,
                    "api_schema_version": API_SCHEMA_VERSION,
                    "topology_epoch": epoch,
                },
            },
        ) as writer:
            for index, (key, doc, deps) in enumerate(entries):
                writer.append(
                    {
                        "type": "trial",
                        "id": key,
                        "index": index,
                        "result": doc,
                        "deps": [list(dep) for dep in deps],
                    }
                )
        return len(entries)

    def restore(self, path: str, graph_fingerprint: str) -> int:
        """Load a snapshot written by :meth:`snapshot`; returns entries added.

        Raises ``ValueError`` when the snapshot belongs to a different
        topology or API schema version, or when its topology epoch does
        not match this cache's — a snapshot taken before (or after) churn
        that this daemon has (or has not) seen would silently serve
        answers from the wrong topology state.
        """
        header, records = read_checkpoint(path)
        if header.get("experiment") != _SNAPSHOT_EXPERIMENT:
            raise ValueError(
                f"{path} is not a serve-cache snapshot "
                f"(experiment {header.get('experiment')!r})"
            )
        params = header.get("params") or {}
        snap_fp = params.get("graph_fingerprint")
        if snap_fp != graph_fingerprint:
            raise ValueError(
                f"snapshot {path} was taken over graph {snap_fp!r}, "
                f"this daemon serves {graph_fingerprint!r}"
            )
        if params.get("api_schema_version") != API_SCHEMA_VERSION:
            raise ValueError(
                f"snapshot {path} speaks api schema "
                f"{params.get('api_schema_version')!r}, "
                f"this build speaks {API_SCHEMA_VERSION}"
            )
        snap_epoch = int(params.get("topology_epoch", 0))
        if snap_epoch != self._epoch:
            raise ValueError(
                f"snapshot {path} was taken at topology epoch {snap_epoch}, "
                f"this daemon's epoch has advanced to {self._epoch}"
                if snap_epoch < self._epoch
                else f"snapshot {path} was taken at topology epoch "
                f"{snap_epoch}, ahead of this daemon's epoch {self._epoch}"
            )
        count = 0
        for record in records:
            key, doc = record.get("id"), record.get("result")
            if isinstance(key, str) and isinstance(doc, dict):
                decode(doc)  # refuse to cache entries this build can't speak
                deps = tuple(
                    tuple(int(a) for a in dep)
                    for dep in record.get("deps") or ()
                )
                self.put(key, doc, deps)
                count += 1
        return count


class QueryFacade:
    """Execute typed queries against one graph through one engine.

    ``cache`` (optional) is a :class:`ResultCache` consulted before — and
    populated after — execution; the daemon wires one in, in-process
    callers usually don't (the engine's outcome LRU already memoises the
    expensive part).  ``live`` (optional) is the
    :class:`~repro.asgraph.routecache.LiveRoutes` that answers path,
    exposure and same-prefix hijack queries under the live exclusion set;
    ``excluded_links`` (optional, exclusive with ``live``) pins a static
    exclusion set for cold recomputes over a churned topology.
    """

    def __init__(
        self,
        graph: ASGraph,
        *,
        engine: Optional[RoutingEngine] = None,
        cache: Optional[ResultCache] = None,
        live: Optional[LiveRoutes] = None,
        excluded_links: Optional[Iterable[Iterable[int]]] = None,
    ) -> None:
        self.graph = graph
        self.engine = engine if engine is not None else shared_engine()
        self.cache = cache
        self.live = live
        if live is not None and excluded_links:
            raise ValueError(
                "pass excluded_links or live, not both: live routes own "
                "their exclusion state (feed it through apply_events)"
            )
        self.excluded_links: FrozenSet[_Link] = (
            frozenset(frozenset(link) for link in excluded_links)
            if excluded_links
            else frozenset()
        )

    # -- churn ---------------------------------------------------------------

    def apply_events(self, events: Iterable[object]) -> ChurnReport:
        """Feed link up/down deltas into the live routes and version the cache.

        The live routes bump their epoch and re-sync their resolved trees;
        the cache (when present) advances to the same epoch, dropping
        exactly the entries whose dependencies were not proven unchanged.
        Returns the :class:`~repro.asgraph.routecache.ChurnReport` with
        ``invalidated`` filled in.
        """
        import dataclasses

        if self.live is None:
            raise RuntimeError("facade has no live routes to apply events to")
        report = self.live.apply_events(events)
        invalidated = 0
        if self.cache is not None:
            invalidated = self.cache.advance_epoch(
                report.epoch,
                report.proven_keys,
                keep_all=report.unchanged,
            )
        return dataclasses.replace(report, invalidated=invalidated)

    # -- single queries ------------------------------------------------------

    def execute(self, query: object) -> object:
        """Answer one query; returns the matching typed result."""
        response = self.execute_batch(BatchRequest(queries=(query,)))
        return response.results[0]

    # -- batches -------------------------------------------------------------

    def execute_batch(self, request: BatchRequest) -> BatchResponse:
        """Answer every query in the batch, slot-for-slot.

        A query that fails (unknown AS, etc.) yields a
        :class:`~repro.serve.api.QueryError` in its slot; the rest of the
        batch is unaffected.  With live routes attached the whole batch
        runs under their reader gate, so every answer (and every cache
        write) belongs to one epoch — a concurrent ``apply-events``
        waits, it never tears the batch.
        """
        if self.live is not None:
            with self.live.reader():
                return self._execute_batch(request)
        return self._execute_batch(request)

    def _execute_batch(self, request: BatchRequest) -> BatchResponse:
        results: List[Optional[object]] = [None] * len(request.queries)
        todo: List[int] = []
        keys: List[Optional[str]] = [None] * len(request.queries)
        if self.cache is not None:
            for i, query in enumerate(request.queries):
                key = query_key(query)
                keys[i] = key
                doc = self.cache.get(key)
                if doc is not None:
                    results[i] = decode(doc)
                else:
                    todo.append(i)
        else:
            todo = list(range(len(request.queries)))

        path_rows = [i for i in todo if isinstance(request.queries[i], PathQuery)]
        hijack_rows = [i for i in todo if isinstance(request.queries[i], HijackQuery)]
        exposure_rows = [
            i for i in todo if isinstance(request.queries[i], ExposureQuery)
        ]
        if path_rows:
            self._execute_paths(request, path_rows, results)
        if hijack_rows:
            self._execute_hijacks(request, hijack_rows, results)
        if exposure_rows:
            self._execute_exposures(request, exposure_rows, results)

        if self.cache is not None:
            for i in todo:
                if not isinstance(results[i], QueryError):
                    self.cache.put(
                        keys[i],
                        encode(results[i]),
                        self._query_deps(request.queries[i]),
                    )
        return BatchResponse(results=tuple(results), id=request.id)

    # -- per-kind executors --------------------------------------------------

    def _outcomes(
        self, rows: List[Tuple[int, ...]], targets: object = None
    ) -> Sequence[CompactOutcome]:
        """One route outcome per announcement set in ``rows``.

        Live trees when the facade follows churn; otherwise one engine
        batch under the facade's exclusion set (empty on a fresh graph).
        ``targets`` are per-row early-exit targets for that batch; a live
        tree is always complete.
        """
        if self.live is not None:
            return [self.live.tree(row) for row in rows]
        return self.engine.outcomes_many(
            self.graph,
            OutcomeBatch.of(
                rows,
                excluded_links=self.excluded_links or None,
                targets=targets,
            ),
        )

    def _execute_paths(
        self,
        request: BatchRequest,
        rows: List[int],
        results: List[Optional[object]],
    ) -> None:
        # Grouped by destination in first-seen order: one outcome per
        # destination, with its sources as early-exit targets.
        by_dst: Dict[int, List[Tuple[int, PathQuery]]] = {}
        for i in rows:
            query: PathQuery = request.queries[i]
            if self._endpoints_ok(i, results, query.src, query.dst):
                by_dst.setdefault(query.dst, []).append((i, query))
        outcomes = self._outcomes(
            [(dst,) for dst in by_dst],
            targets=[
                frozenset(q.src for _, q in group) for group in by_dst.values()
            ],
        )
        for group, outcome in zip(by_dst.values(), outcomes):
            for i, query in group:
                results[i] = PathResult(
                    src=query.src, dst=query.dst, path=outcome.path(query.src)
                )

    def _execute_hijacks(
        self,
        request: BatchRequest,
        rows: List[int],
        results: List[Optional[object]],
    ) -> None:
        from repro.bgpsim.attacks import AttackKind, simulate_hijack

        excluded = self._current_excluded()
        same_prefix: List[Tuple[int, HijackQuery]] = []
        for i in rows:
            query: HijackQuery = request.queries[i]
            if not self._endpoints_ok(i, results, query.victim, query.attacker):
                continue
            if query.victim == query.attacker:
                results[i] = QueryError(
                    kind="ValueError",
                    message=f"victim and attacker are both AS{query.victim}",
                )
                continue
            if query.kind == AttackKind.SAME_PREFIX.value:
                same_prefix.append((i, query))
            else:
                try:
                    hijack = simulate_hijack(
                        self.graph,
                        victim=query.victim,
                        attacker=query.attacker,
                        kind=AttackKind(query.kind),
                        engine=self.engine,
                        excluded_links=excluded or None,
                    )
                except ValueError as exc:
                    results[i] = QueryError(kind="ValueError", message=str(exc))
                    continue
                captured = tuple(
                    c for c in query.clients if c in hijack.capture_set
                )
                results[i] = HijackQueryResult(
                    query=query,
                    capture_set=tuple(hijack.capture_set),
                    capture_fraction=hijack.capture_fraction,
                    interception_feasible=hijack.interception_feasible,
                    captured_clients=captured,
                )
        # Same-prefix rows are two-origin announcement sets: the same key
        # shape ``simulate_hijack`` uses, so the engine LRU is shared with
        # every other same-prefix caller.
        outcomes = self._outcomes([(q.victim, q.attacker) for _, q in same_prefix])
        total = len(self.graph)
        for (i, query), outcome in zip(same_prefix, outcomes):
            captured_set = outcome.capture_set(query.attacker)
            retained_set = outcome.capture_set(query.victim)
            results[i] = HijackQueryResult(
                query=query,
                capture_set=tuple(captured_set),
                capture_fraction=len(captured_set) / total,
                captured_clients=tuple(
                    c for c in query.clients if c in captured_set
                ),
                victim_retained_clients=tuple(
                    c for c in query.clients if c in retained_set
                ),
            )

    def _execute_exposures(
        self,
        request: BatchRequest,
        rows: List[int],
        results: List[Optional[object]],
    ) -> None:
        valid: List[Tuple[int, ExposureQuery]] = []
        origins: Dict[int, None] = {}
        for i in rows:
            query: ExposureQuery = request.queries[i]
            endpoints = (query.client, query.guard, query.exit, query.dest)
            if self._endpoints_ok(i, results, *endpoints):
                valid.append((i, query))
                origins.update(dict.fromkeys(endpoints))
        # One outcome per distinct endpoint, routed together.
        trees = dict(zip(origins, self._outcomes([(o,) for o in origins])))

        def path(src: int, dst: int) -> Optional[Tuple[int, ...]]:
            return trees[dst].path(src)

        for i, query in valid:
            entry, exit_side = circuit_sides(
                path,
                query.client,
                query.guard,
                query.exit,
                query.dest,
                ObservationMode(query.mode),
            )
            compromised: Optional[bool] = None
            if query.adversaries:
                adversary_set = set(query.adversaries)
                compromised = bool(adversary_set & entry) and bool(
                    adversary_set & exit_side
                )
            results[i] = ExposureResult(
                query=query,
                observers=tuple(entry & exit_side),
                compromised=compromised,
            )

    # -- helpers -------------------------------------------------------------

    def _current_excluded(self) -> FrozenSet[_Link]:
        if self.live is not None:
            return self.live.excluded_links
        return self.excluded_links

    @staticmethod
    def _query_deps(query: object) -> Tuple[Tuple[int, ...], ...]:
        """Announcement sets whose routes this query's answer depends on."""
        if isinstance(query, PathQuery):
            return ((query.dst,),)
        if isinstance(query, ExposureQuery):
            deps = {
                (asn,)
                for asn in (query.client, query.guard, query.exit, query.dest)
            }
            return tuple(sorted(deps))
        if isinstance(query, HijackQuery):
            from repro.bgpsim.attacks import AttackKind

            if query.kind == AttackKind.SAME_PREFIX.value:
                return (tuple(sorted((query.victim, query.attacker))),)
        # Other attack kinds are answered through the engine with
        # export-scoped announcements, outside the live trees, so no live
        # key proves them unchanged: no dependencies, dropped every epoch.
        return ()

    def _endpoints_ok(
        self, i: int, results: List[Optional[object]], *asns: int
    ) -> bool:
        for asn in asns:
            if asn not in self.graph:
                results[i] = QueryError(
                    kind="ValueError",
                    message=f"AS{asn} not in topology",
                )
                return False
        return True
