"""Span tracer for the benchmark's traced pass.

Spans are opened around calls into the program's public entry points,
either by the benchmark itself (``with tracer.span("tor.guard_fill")``)
or by wrapping a class or module attribute (``tracer.wrap(...)``).  A
span stack gives every span its *self* time: its duration minus the part
its child spans cover.  The garbage collector is treated as a child of
whatever span it interrupts (``gc.callbacks``), so its pauses land in
the ``gc`` layer instead of the span that happened to allocate.

A span's layer is its name up to the first dot (``tor.pick`` belongs to
``tor``).  Time inside the root span that no other span covers is the
root's own self time, reported as ``span.other_s``.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter
_MISSING = object()


class Tracer:
    """Span stack plus per-name totals; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = _clock) -> None:
        self.clock = clock
        #: open spans: [name, start, time covered by children]
        self._stack: List[list] = []
        #: name -> [calls, total seconds, self seconds], timed phase only
        self.spans: Dict[str, List[float]] = {}
        #: the same, for spans closed before :meth:`start_run`
        self.setup_spans: Dict[str, List[float]] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started: Optional[float] = None
        self._patches: List[tuple] = []
        self.absent: List[str] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        row = self.spans.get(name)
        if row is None:
            row = self.spans[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered
        return duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- wrapping program entry points ---------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> bool:
        """Time every call of ``owner.attr`` as span ``name``.

        Returns False, and records ``name`` as absent, when the program no
        longer has that entry point.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return False
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

        traced.__wrapped__ = original
        raw = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self._patches.append((owner, attr, raw))
        return True

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- garbage collector -----------------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
            return
        if self._gc_started is None:
            return
        pause = self.clock() - self._gc_started
        self._gc_started = None
        self.gc_pause_s += pause
        self.gc_collections[info.get("generation", 0)] += 1
        if self._stack:
            self._stack[-1][2] += pause

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def unwatch_gc(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def start_run(self) -> None:
        """Set the spans closed so far aside as set-up spans."""
        self.setup_spans, self.spans = self.spans, {}

    # -- results -----------------------------------------------------------------

    def _field(self, name: str, index: int, setup: bool) -> float:
        row = (self.setup_spans if setup else self.spans).get(name)
        return row[index] if row else 0.0

    def total(self, name: str, setup: bool = False) -> float:
        """Seconds inside span ``name`` (in set-up with ``setup=True``)."""
        return self._field(name, 1, setup)

    def self_time(self, name: str) -> float:
        return self._field(name, 2, False)

    def calls(self, name: str) -> int:
        return int(self._field(name, 0, False))

    def layer_self(self, root: str) -> Dict[str, float]:
        """Self seconds per layer in the timed phase, with the root span's
        own time as ``other`` and collector pauses as ``gc``."""
        layers: Dict[str, float] = {"gc": self.gc_pause_s}
        for name, (_calls, _total, own) in self.spans.items():
            layer = "other" if name == root else name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


class _SpanContext:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *_exc: object) -> None:
        self.tracer.exit()


class NullTracer:
    """The untraced pass: spans cost one call and record nothing."""

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()
