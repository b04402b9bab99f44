"""Hierarchical spans and the recorder that collects them.

A **span** is one timed region of work — ``with span("trace.run"): ...`` —
carrying wall-time, free-form attributes, per-span counters, and a link to
its parent (the span enclosing it on the same thread).  Completed spans
are emitted as JSON-able records to the recorder's sinks, so a run with a
:class:`~repro.obs.sinks.JsonlSink` yields a queryable span *tree* of the
whole pipeline.

The **recorder** owns the span stack (thread-local), the process-wide
:class:`~repro.obs.metrics.MetricsRegistry`, and the sink list.  With no
sinks configured (the default), span records are dropped after updating
the per-name aggregate — instrumentation stays on unconditionally because
its cost is a couple of dict operations per span.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.sinks import Sink

__all__ = ["Span", "Recorder"]


class Span:
    """One timed region; use as a context manager via ``Recorder.span``."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "counters",
        "start_time",
        "duration",
        "status",
        "_recorder",
        "_t0",
    )

    def __init__(
        self,
        recorder: "Recorder",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        self.start_time = 0.0
        self.duration = 0.0
        self.status = "ok"
        self._recorder = recorder
        self._t0 = 0.0

    def add(self, key: str, delta: float = 1) -> None:
        """Increment a per-span counter (kept on this span's record only)."""
        self.counters[key] = self.counters.get(key, 0) + delta

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered after the span started."""
        self.attrs.update(attrs)

    def as_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start_time,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.counters:
            record["counters"] = self.counters
        return record

    def __enter__(self) -> "Span":
        self.start_time = time.time()
        self._t0 = time.perf_counter()
        self._recorder._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._recorder._pop(self)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class Recorder:
    """Span stack + metrics registry + sinks for one observed run."""

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks: List[Sink] = list(sinks)
        self.metrics = MetricsRegistry()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        #: span name -> [count, total seconds] (kept even with no sinks)
        self._span_totals: Dict[str, List[float]] = {}
        self._finished = False

    # -- span plumbing -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: object) -> Span:
        """Create (but not start) a child span of the current span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self.current_span()
        return Span(
            self,
            name,
            span_id,
            parent.span_id if parent is not None else None,
            dict(attrs),
        )

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misnested exit; drop without corrupting
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            entry = self._span_totals.get(span.name)
            if entry is None:
                self._span_totals[span.name] = [1, span.duration]
            else:
                entry[0] += 1
                entry[1] += span.duration
        if self.sinks:
            self.emit(span.as_record())

    # -- metrics shortcuts ---------------------------------------------------

    def add(self, name: str, delta: int = 1) -> None:
        self.metrics.add(name, delta)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregates: ``{name: {"count": n, "seconds": s}}``."""
        with self._lock:
            return {
                name: {"count": int(entry[0]), "seconds": entry[1]}
                for name, entry in self._span_totals.items()
            }

    # -- absorption of external stats ---------------------------------------

    def absorb_engine_stats(self, stats: object, prefix: str = "engine") -> None:
        """Fold a :class:`~repro.asgraph.engine.EngineStats` snapshot into
        the metrics as gauges (duck-typed; no import dependency on the
        engine).  This is what subsumes ``repro.cli --engine-stats``."""
        for attr in (
            "queries",
            "hits",
            "misses",
            "evictions",
            "entries",
            "compute_seconds",
            "batches",
        ):
            value = getattr(stats, attr, None)
            if value is not None:
                self.metrics.gauge(f"{prefix}.{attr}", value)
        hit_rate = getattr(stats, "hit_rate", None)
        if hit_rate is not None:
            self.metrics.gauge(f"{prefix}.hit_rate", hit_rate)
        stage_seconds = getattr(stats, "stage_seconds", None)
        if stage_seconds:
            for stage, seconds in stage_seconds.items():
                self.metrics.gauge(f"{prefix}.stage_seconds.{stage}", seconds)

    # -- emission ------------------------------------------------------------

    def emit(self, record: Mapping[str, object]) -> None:
        """Send one record to every sink."""
        for sink in self.sinks:
            sink.emit(record)

    def finish(self, manifest: Optional[object] = None) -> MetricsSnapshot:
        """Emit the final metrics snapshot (and manifest), close sinks.

        Idempotent: the second call returns a fresh snapshot but emits
        nothing.  ``manifest`` is anything with a ``to_record()`` method —
        in practice a :class:`~repro.obs.manifest.RunManifest`.
        """
        snapshot = self.metrics.snapshot()
        if self._finished:
            return snapshot
        self._finished = True
        if self.sinks:
            self.emit(snapshot.as_record())
            if manifest is not None:
                self.emit(manifest.to_record())
        for sink in self.sinks:
            sink.close()
        return snapshot
