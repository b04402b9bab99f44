"""One route cache for every caller that asks for routes under churn.

The month trace (:class:`~repro.bgpsim.trace.TraceEngine`) and the live
serving tier (:class:`~repro.serve.facade.QueryFacade`) ask the same
question again and again: *what are the routes towards this announcement
while these links are down?*  Most of the links down at any moment are
irrelevant to most announcements, so a cache keyed on the whole
exclusion set would recompute every announcement on every churn event.
:class:`RouteCache` keys an entry on ``(announcement, relevant)``
instead, where ``relevant`` holds only the excluded links the routes
would otherwise cross, grown by a fixpoint (:meth:`RouteCache.resolve`,
or :meth:`RouteCache.resolve_many` for many keys in batched rounds).

Soundness of the fixpoint: a route set computed under ``E' ⊆ E`` whose
routes avoid *all* of ``E`` is feasible under ``E``, and optimal under
fewer constraints — hence optimal under ``E`` too.  Such a cache needs no
epoch invalidation: every key it answers is a subset of the exclusion set
in force, so an entry keyed on a link that has since been restored is
not consulted again until that link fails once more.

:class:`LiveRoutes` keeps the serving tier's live state beside the cache:
the exclusion set in force, its monotonic epoch, a reader/writer gate
that keeps query batches from straddling an epoch bump, and the resolved
key of every announcement asked about.  Its entries are full
:func:`~repro.asgraph.fastpath.compute_routes_fast` trees, whose crossed
links are read off their parent pointers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro import obs
from repro.asgraph.batch import compute_routes_many
from repro.asgraph.fastpath import CompactOutcome, compute_routes_fast
from repro.asgraph.topology import ASGraph

__all__ = [
    "ChurnReport",
    "LiveRoutes",
    "LiveStats",
    "RouteCache",
    "normalize_events",
]

_Link = FrozenSet[int]
_Links = FrozenSet[_Link]
#: a churn delta: ("down" | "up", (a, b))
_Event = Tuple[str, Tuple[int, int]]
#: a live announcement set: sorted, distinct origin ASNs
_Origins = Tuple[int, ...]
_Entry = TypeVar("_Entry")


class RouteCache(Generic[_Entry]):
    """Thread-safe LRU of route entries keyed on their relevant exclusions.

    ``compute(announcement, relevant)`` builds the entry for a key;
    ``compute_many(keys)`` (optional) builds the entries of a list of
    ``(announcement, relevant)`` keys at once, in key order;
    ``crossed(entry, links)`` returns the links among ``links`` that the
    entry's routes traverse.  Every lookup counts into the :mod:`repro.obs`
    counters ``<counters>.hits`` / ``.misses`` / ``.evictions``, and every
    store sets the ``<counters>.size`` gauge.
    """

    def __init__(
        self,
        compute: Callable[[Hashable, _Links], _Entry],
        crossed: Callable[[_Entry, _Links], _Links],
        *,
        cap: int,
        counters: str,
        compute_many: Optional[
            Callable[[List[Tuple[Hashable, _Links]]], List[_Entry]]
        ] = None,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.cap = cap
        self._compute = compute
        self._compute_many = compute_many
        self._crossed = crossed
        self._counters = counters
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Hashable, _Links], _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def resolve(
        self,
        announcement: Hashable,
        excluded: _Links,
        relevant: _Links = frozenset(),
    ) -> Tuple[_Entry, _Links]:
        """The entry valid under ``excluded``, and the key it was found under.

        ``relevant`` (a subset of ``excluded``) seeds the fixpoint: the key
        grows by every excluded link the current entry's routes cross until
        they cross none, computing each missing entry on the way.
        """
        return self.resolve_many([(announcement, excluded, relevant)])[0]

    def resolve_many(
        self, requests: Sequence[Tuple[Hashable, _Links, _Links]]
    ) -> List[Tuple[_Entry, _Links]]:
        """:meth:`resolve` for every ``(announcement, excluded, relevant)``.

        The fixpoints advance in rounds.  A round looks up each distinct
        key once (one hit or miss each), then builds the missing entries
        together: with ``compute`` when one is missing, else with one
        ``compute_many`` call (or ``compute`` per key without it).
        Returns ``(entry, key)`` pairs in request order.
        """
        results: List[Optional[Tuple[_Entry, _Links]]] = [None] * len(requests)
        keys = [(announcement, relevant) for announcement, _, relevant in requests]
        todo = range(len(requests))
        while todo:
            entries: Dict[Tuple[Hashable, _Links], Optional[_Entry]] = {}
            missing = []
            for i in todo:
                key = keys[i]
                if key not in entries:
                    entries[key] = entry = self.get(key)
                    if entry is None:
                        missing.append(key)
            if missing:
                if len(missing) > 1 and self._compute_many is not None:
                    built = self._compute_many(missing)
                else:
                    built = [self._compute(*key) for key in missing]
                for key, entry in zip(missing, built):
                    entries[key] = entry
                    self.put(key, entry)
            later = []
            for i in todo:
                announcement, relevant = key = keys[i]
                entry = entries[key]
                violated = self._crossed(entry, requests[i][1] - relevant)
                if violated:
                    keys[i] = (announcement, relevant | violated)
                    later.append(i)
                else:
                    results[i] = (entry, relevant)
            todo = later
        return results  # type: ignore[return-value]

    def get(self, key: Tuple[Hashable, _Links]) -> Optional[_Entry]:
        """Look ``key`` up, counting a hit or a miss; a hit becomes most recent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
        obs.add(f"{self._counters}.{'misses' if entry is None else 'hits'}")
        return entry

    def peek(self, key: Tuple[Hashable, _Links]) -> Optional[_Entry]:
        """Look ``key`` up without counting it or refreshing its recency."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Tuple[Hashable, _Links], entry: _Entry) -> None:
        """Store ``entry`` as most recent, evicting the oldest over the cap."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.cap:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            size = len(self._entries)
        if evicted:
            obs.add(f"{self._counters}.evictions", evicted)
        obs.gauge(f"{self._counters}.size", size)


def normalize_events(
    events: Iterable[object], graph: Optional[ASGraph] = None
) -> List[_Event]:
    """Canonicalise a churn-event batch.

    Accepts ``("down", (a, b))`` tuples or wire-form
    ``{"op": "down", "link": [a, b]}`` dicts; returns ``(op, (lo, hi))``
    tuples.  With ``graph`` given, refuses events naming ASes or links the
    topology does not have — a failed link that never existed is a caller
    bug, not a routing no-op.
    """
    out: List[_Event] = []
    for event in events:
        if isinstance(event, dict):
            op, link = event.get("op"), event.get("link")
        else:
            op, link = event  # type: ignore[misc]
        if op not in ("down", "up"):
            raise ValueError(f"churn event op must be 'down' or 'up', got {op!r}")
        try:
            a, b = (int(x) for x in link)  # type: ignore[union-attr]
        except (TypeError, ValueError):
            raise ValueError(f"churn event link must be an (a, b) pair, got {link!r}")
        if a == b:
            raise ValueError(f"churn event link endpoints are equal: {a}")
        if graph is not None:
            for asn in (a, b):
                if asn not in graph:
                    raise ValueError(f"AS{asn} not in topology")
            if b not in graph.neighbours(a):
                raise ValueError(f"no link {a}-{b} in topology")
        out.append((op, (min(a, b), max(a, b))))
    return out


@dataclass(frozen=True)
class ChurnReport:
    """What one :meth:`LiveRoutes.apply_events` call did."""

    #: the epoch after the bump (monotonic, one per apply call)
    epoch: int
    #: events applied (after normalisation)
    events: int
    #: exclusion set now in force
    excluded_links: _Links
    #: resolved keys recomputed for the new epoch (routes may have changed)
    repaired_keys: Tuple[_Origins, ...]
    #: resolved keys whose routes provably did not change
    proven_keys: Tuple[_Origins, ...]
    #: True when the event batch left the exclusion set exactly as it was
    unchanged: bool
    #: result-cache entries invalidated by this bump (filled by the facade)
    invalidated: int = 0


@dataclass(frozen=True)
class LiveStats:
    """Counter snapshot of a :class:`LiveRoutes`."""

    trees: int
    hits: int
    misses: int
    evictions: int
    repairs: int
    epoch: int


class _RWGate:
    """A tiny reader-writer gate: many batches, one epoch bump.

    Readers (query batches) may overlap; the writer (``apply_events``)
    excludes new readers, drains the in-flight ones, and runs alone.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._writer = True
            while self._readers:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class LiveRoutes:
    """Full route trees under one live exclusion set fed by link events.

    :meth:`tree` answers an announcement set from a :class:`RouteCache` of
    ``cap`` trees, counted into ``serve.pool.*``.  :meth:`apply_events` is
    the only writer of the exclusion set; each call bumps the epoch by
    one and re-syncs every resolved key eagerly, so the next batch finds
    its trees already in place.  Query batches run inside :meth:`reader`.
    """

    def __init__(self, graph: ASGraph, *, cap: int = 1024) -> None:
        self.graph = graph
        self._cache: RouteCache[CompactOutcome] = RouteCache(
            self._compute,
            CompactOutcome.links_crossed,
            cap=cap,
            counters="serve.pool",
            compute_many=self._compute_many,
        )
        self._gate = _RWGate()
        self._lock = threading.Lock()
        self._excluded: _Links = frozenset()
        self._epoch = 0
        #: announcement set -> the key its current tree is cached under;
        #: keys only, so an evicted tree is never pinned here
        self._resolved: Dict[_Origins, _Links] = {}
        self.repairs = 0

    def _compute(self, origins: _Origins, relevant: _Links) -> CompactOutcome:
        return compute_routes_fast(self.graph, origins, excluded_links=relevant)

    def _compute_many(
        self, keys: List[Tuple[_Origins, _Links]]
    ) -> List[CompactOutcome]:
        """One ``compute_routes_many`` call per relevant-link set, its rows
        kept as list-backed trees."""
        groups: Dict[_Links, List[int]] = {}
        for i, (_origins, relevant) in enumerate(keys):
            groups.setdefault(relevant, []).append(i)
        trees: List[Optional[CompactOutcome]] = [None] * len(keys)
        for relevant, rows in groups.items():
            batch = compute_routes_many(
                self.graph, [keys[i][0] for i in rows], excluded_links=relevant
            )
            for row, i in enumerate(rows):
                trees[i] = batch.outcome(row).detached()
        return trees  # type: ignore[return-value]

    # -- introspection -------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def excluded_links(self) -> _Links:
        return self._excluded

    def stats(self) -> LiveStats:
        cache = self._cache
        return LiveStats(
            trees=len(cache),
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            repairs=self.repairs,
            epoch=self._epoch,
        )

    @staticmethod
    def key_for(origins: Union[int, Iterable[int]]) -> _Origins:
        """Canonical key for an announcement set."""
        if isinstance(origins, int):
            return (origins,)
        return tuple(sorted(set(int(o) for o in origins)))

    # -- queries -------------------------------------------------------------

    @contextmanager
    def reader(self) -> Iterator[None]:
        """Shared-side gate for query batches.

        Everything executed inside sees one consistent epoch:
        :meth:`apply_events` waits for open readers and blocks new ones.
        """
        with self._gate.read():
            yield

    def tree(self, origins: Union[int, Iterable[int]]) -> CompactOutcome:
        """The full route tree towards ``origins`` at the current epoch.

        Call it inside :meth:`reader` when another thread may apply events.
        """
        key = self.key_for(origins)
        with self._lock:
            start = self._resolved.get(key, frozenset())
        tree, relevant = self._cache.resolve(key, self._excluded, start)
        with self._lock:
            self._resolved[key] = relevant
        return tree

    # -- churn feed ----------------------------------------------------------

    def apply_events(self, events: Iterable[object]) -> ChurnReport:
        """Apply a batch of link ``down``/``up`` deltas; one epoch bump.

        Takes the writer side of the batch gate.  A resolved key whose
        relevant links are all still down, and whose tree has no newly
        failed link as a parent edge, keeps its tree: it comes back in
        ``proven_keys``, so cached results that depend only on such keys
        survive the epoch.  Every other resolved key is recomputed now
        (``repaired_keys``); a key whose tree the cache has evicted is
        forgotten.
        """
        parsed = normalize_events(events, self.graph)
        with self._gate.write():
            excluded = set(self._excluded)
            for op, (a, b) in parsed:
                link = frozenset((a, b))
                if op == "down":
                    excluded.add(link)
                else:
                    excluded.discard(link)
            new = frozenset(excluded)
            failed = new - self._excluded
            unchanged = new == self._excluded
            self._excluded = new
            self._epoch += 1
            epoch = self._epoch
            proven: List[_Origins] = []
            todo: Dict[_Origins, _Links] = {}
            for key, relevant in list(self._resolved.items()):
                tree = self._cache.peek((key, relevant))
                if tree is None:
                    del self._resolved[key]
                    continue
                crossed = tree.links_crossed(failed)
                if relevant <= new and not crossed:
                    proven.append(key)
                else:
                    todo[key] = (relevant & new) | crossed
            repaired = tuple(todo)
            self._resync(todo, new)
            self.repairs += len(repaired)
        if repaired:
            obs.add("serve.pool.repairs", len(repaired))
        obs.add("serve.pool.events", len(parsed))
        obs.gauge("serve.pool.epoch", epoch)
        return ChurnReport(
            epoch=epoch,
            events=len(parsed),
            excluded_links=new,
            repaired_keys=repaired,
            proven_keys=tuple(proven),
            unchanged=unchanged,
        )

    def _resync(self, todo: Dict[_Origins, _Links], excluded: _Links) -> None:
        """Resolve every key in ``todo`` under ``excluded`` (writer side),
        all at once through :meth:`RouteCache.resolve_many`."""
        keys = list(todo)
        resolved = self._cache.resolve_many(
            [(key, excluded, todo[key]) for key in keys]
        )
        for key, (_tree, relevant) in zip(keys, resolved):
            self._resolved[key] = relevant
