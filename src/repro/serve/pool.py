"""Warm routing-session pool with an epoch-stamped churn feed.

:class:`SessionPool` is an LRU-bounded pool of live
:class:`~repro.asgraph.incremental.DynamicRoutingSession` objects keyed
by their announcement set, plus the *current* link-exclusion state those
sessions are kept in sync with.

The pool serves live queries (:class:`~repro.serve.facade.QueryFacade`,
:class:`~repro.serve.daemon.RoutingDaemon`): it owns one global exclusion
set fed by :meth:`apply_events` deltas (link ``down``/``up``), and every
borrow diffs the session onto that state via ``set_excluded``, so a churn
event costs a subtree repair instead of a fresh propagation.

Epoch semantics: :meth:`apply_events` is the only writer.  Each call —
even an empty one — advances the monotonic ``epoch`` by exactly one and
eagerly re-syncs every pooled session, returning which keys *provably*
kept their routes (every per-link diff was a routing-neutral ``noop`` in
the session's stats) so the result cache can invalidate exactly the
affected origins' documents.  Readers
(batches) enter :meth:`reader`; ``apply_events`` takes the writer side of
the same gate, so a query batch always executes entirely at epoch N or
entirely at epoch N+1 — never a torn mix.

Eviction releases a session exactly once: over-cap entries are popped
from the LRU and ``release()``d so their undo logs and label arrays
cannot be pinned alive by lingering references.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.topology import ASGraph

__all__ = ["ChurnReport", "PoolStats", "SessionPool", "normalize_events"]

_Link = FrozenSet[int]
#: a churn delta: ("down" | "up", (a, b))
_Event = Tuple[str, Tuple[int, int]]


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
    """What one :meth:`SessionPool.apply_events` call did."""

    #: the epoch after the bump (monotonic, one per apply call)
    epoch: int
    #: events applied (after normalisation)
    events: int
    #: exclusion set now in force
    excluded_links: FrozenSet[_Link]
    #: pooled keys whose routes changed (subtree repairs happened)
    repaired_keys: Tuple[Tuple[int, ...], ...]
    #: pooled keys whose routes provably did not change
    proven_keys: Tuple[Tuple[int, ...], ...]
    #: True when the event batch left the exclusion set exactly as it was
    unchanged: bool
    #: result-cache entries invalidated by this bump (filled by the facade)
    invalidated: int = 0


@dataclass(frozen=True)
class PoolStats:
    """Counter snapshot for the pool."""

    sessions: int
    hits: int
    misses: int
    created: int
    evictions: int
    repairs: int
    epoch: int
    excluded_links: int


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


class SessionPool:
    """LRU-bounded pool of warm routing sessions keyed by announcement set.

    Counts into the :mod:`repro.obs` counters ``serve.pool.created`` /
    ``.hits`` / ``.misses`` / ``.evictions`` / ``.repairs`` / ``.events``
    and the ``serve.pool.epoch`` gauge.
    """

    def __init__(
        self,
        graph: ASGraph,
        *,
        engine: Optional[RoutingEngine] = None,
        cap: int = 256,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.graph = graph
        self.engine = engine if engine is not None else shared_engine()
        self.cap = cap
        self._lock = threading.Lock()
        self._gate = _RWGate()
        self._sessions: "OrderedDict[Tuple[int, ...], object]" = OrderedDict()
        self._excluded: FrozenSet[_Link] = frozenset()
        self._epoch = 0
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.created = 0
        self.evictions = 0
        self.repairs = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def keys(self) -> List[Tuple[int, ...]]:
        """The pooled announcement-set keys, LRU order (oldest first)."""
        with self._lock:
            return list(self._sessions)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def excluded_links(self) -> FrozenSet[_Link]:
        return self._excluded

    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                sessions=len(self._sessions),
                hits=self.hits,
                misses=self.misses,
                created=self.created,
                evictions=self.evictions,
                repairs=self.repairs,
                epoch=self._epoch,
                excluded_links=len(self._excluded),
            )

    # -- borrow / return -----------------------------------------------------

    @staticmethod
    def key_for(origins: Union[int, Iterable[int]]) -> Tuple[int, ...]:
        """Canonical pool key for an announcement set."""
        if isinstance(origins, int):
            return (origins,)
        return tuple(sorted(set(int(o) for o in origins)))

    @staticmethod
    def _sync(session: object, target: FrozenSet[_Link]) -> bool:
        """Diff ``session`` onto ``target``; True if routes may have changed.

        ``set_excluded`` reports whether the *exclusion set* moved, which
        overstates churn: failing a link no route crosses is recorded as a
        ``noop`` in the session's stats without touching any label.  The
        events-minus-noops delta is therefore the proof we need — zero
        non-noop operations means the routes are bit-identical to before
        the call.
        """
        stats = session.stats
        before = (stats.events, stats.noops)
        if not session.set_excluded(target):
            return False
        events = stats.events - before[0]
        noops = stats.noops - before[1]
        return events > noops

    @contextmanager
    def borrow(self, origins: Union[int, Iterable[int]]) -> Iterator[object]:
        """Borrow the warm session for ``origins``; returns it on exit.

        The session is taken *out* of the pool for the duration (two
        threads borrowing the same key get distinct sessions), synced to
        the pool's current exclusion set, and put back on exit even if the
        body raises, so an error path can never leak an unreleased
        session.
        """
        if self._closed:
            raise RuntimeError("session pool is closed")
        key = self.key_for(origins)
        with self._lock:
            session = self._sessions.pop(key, None)
            if session is not None:
                self.hits += 1
            else:
                self.misses += 1
            target = self._excluded
        if session is None:
            obs.add("serve.pool.misses")
            session = self.engine.session(
                self.graph, list(key), excluded_links=target
            )
            with self._lock:
                self.created += 1
            obs.add("serve.pool.created")
        else:
            obs.add("serve.pool.hits")
            if self._sync(session, target):
                with self._lock:
                    self.repairs += 1
                obs.add("serve.pool.repairs")
        try:
            yield session
        finally:
            self._return(key, session)

    def _return(self, key: Tuple[int, ...], session: object) -> None:
        to_release: List[object] = []
        with self._lock:
            if self._closed or getattr(session, "released", False):
                if not getattr(session, "released", True):
                    to_release.append(session)
            elif key in self._sessions:
                # A concurrent borrower of the same key already returned
                # its session; keep the resident one, retire this copy.
                to_release.append(session)
            else:
                self._sessions[key] = session
                self._sessions.move_to_end(key)
            while len(self._sessions) > self.cap:
                _k, evicted = self._sessions.popitem(last=False)
                to_release.append(evicted)
            evictions = len(to_release)
            self.evictions += evictions
        for evicted in to_release:
            # Release outside the lock: drops the undo log, children
            # index, and label arrays exactly once per evicted session.
            evicted.release()
            obs.add("serve.pool.evictions")

    # -- churn feed ----------------------------------------------------------

    @contextmanager
    def reader(self) -> Iterator[None]:
        """Shared-side gate for query batches.

        Everything executed inside sees one consistent epoch:
        :meth:`apply_events` waits for open readers and blocks new ones.
        """
        with self._gate.read():
            yield

    def apply_events(self, events: Iterable[object]) -> ChurnReport:
        """Apply a batch of link ``down``/``up`` deltas; one epoch bump.

        Takes the writer side of the batch gate, updates the exclusion
        set, and eagerly re-syncs every pooled session via per-link
        ``set_excluded`` diffing — the keys whose every diff op was a
        routing-neutral no-op come back as ``proven_keys`` so cached
        results that depend only on them can survive the epoch.
        """
        parsed = normalize_events(events, self.graph)
        with self._gate.write():
            with self._lock:
                if self._closed:
                    raise RuntimeError("session pool is closed")
                excluded = set(self._excluded)
                for op, (a, b) in parsed:
                    link = frozenset((a, b))
                    if op == "down":
                        excluded.add(link)
                    else:
                        excluded.discard(link)
                new = frozenset(excluded)
                unchanged = new == self._excluded
                self._excluded = new
                self._epoch += 1
                epoch = self._epoch
                sessions = list(self._sessions.items())
            repaired: List[Tuple[int, ...]] = []
            proven: List[Tuple[int, ...]] = []
            dropped: List[Tuple[int, ...]] = []
            for key, session in sessions:
                try:
                    changed = self._sync(session, new)
                except RuntimeError:
                    dropped.append(key)  # released out from under us
                    continue
                if changed:
                    repaired.append(key)
                else:
                    proven.append(key)
            with self._lock:
                self.repairs += len(repaired)
                for key in dropped:
                    self._sessions.pop(key, None)
        if repaired:
            obs.add("serve.pool.repairs", len(repaired))
        obs.add("serve.pool.events", len(parsed))
        obs.gauge("serve.pool.epoch", epoch)
        return ChurnReport(
            epoch=epoch,
            events=len(parsed),
            excluded_links=new,
            repaired_keys=tuple(repaired),
            proven_keys=tuple(proven),
            unchanged=unchanged,
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every pooled session; further borrows raise."""
        with self._lock:
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.release()
