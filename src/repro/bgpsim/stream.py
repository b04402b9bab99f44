"""Bounded-memory windowed replay over update-event streams.

The drive shaft of the streaming trace pipeline: an event source (a
:class:`~repro.bgpsim.trace.TraceStream`, a merged set of MRT readers, an
RFD-filtered transform — anything yielding time-ordered
:class:`~repro.bgpsim.collector.StreamEvent`) is chopped into consecutive
fixed-width time :class:`Window`\\ s, and a :class:`StreamConsumer` folds
each window into its running state.  Memory never exceeds one window of
events (plus the consumer's own aggregate), so a *year* of churn across
ten collectors replays in the same footprint as a day.

Replay positions are checkpointable through :mod:`repro.persist`'s JSONL
checkpoint format: after each completed window the consumer's serialized
state is appended, and :func:`replay` with ``resume=True`` restores the
last recorded state, fast-forwards the source past the completed span,
and continues — validated against a source fingerprint the same way
``repro.serve``'s cache snapshots refuse a mismatched topology.

Observability: ``trace.stream.records`` counts every event entering the
windower, ``trace.window.events`` gauges each window's size, and
``trace.window.peak_events`` tracks the high-water mark — the number the
bounded-memory benchmark gate asserts is flat in trace length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Protocol

from repro import obs
from repro.bgpsim.collector import StreamEvent

__all__ = [
    "DAY",
    "Window",
    "WindowOverflowError",
    "StreamConsumer",
    "ReplayReport",
    "iter_windows",
    "replay",
    "REPLAY_EXPERIMENT",
]

DAY = 86_400.0

#: experiment name stamped into replay checkpoint headers
REPLAY_EXPERIMENT = "stream-replay"


class WindowOverflowError(RuntimeError):
    """A single replay window exceeded the configured event cap.

    Raised *instead of* silently growing without bound: a mis-sized
    window (or a pathological burst) should fail loudly with the window
    boundaries and the cap, not OOM the host.
    """


@dataclass
class Window:
    """One contiguous time slice of the merged event stream.

    Half-open span ``[start, end)``; ``events`` are time-ordered and all
    fall inside the span.  Windows arrive consecutively (``index``
    increments by one, empty windows included) so consumers can reason
    about elapsed time even through quiet periods.
    """

    index: int
    start: float
    end: float
    events: List[StreamEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)


class StreamConsumer(Protocol):
    """A windowed consumer of the replay driver.

    ``consume`` folds one window into the consumer's running aggregate.
    ``state``/``restore`` round-trip that aggregate through JSON for
    checkpointable replay; consumers that cannot sensibly serialize
    (e.g. the materializing :class:`~repro.bgpsim.trace.MonthTraceBuilder`)
    should raise ``NotImplementedError`` from both, which simply makes
    them ineligible for ``checkpoint=``/``resume=`` replay.
    """

    def consume(self, window: Window) -> None: ...  # pragma: no cover

    def state(self) -> dict: ...  # pragma: no cover

    def restore(self, state: dict) -> None: ...  # pragma: no cover


def iter_windows(
    events: Iterable[StreamEvent],
    *,
    window_seconds: float = DAY,
    duration: Optional[float] = None,
    max_window_events: Optional[int] = None,
    start_index: int = 0,
) -> Iterator[Window]:
    """Chop a time-ordered event stream into consecutive windows.

    Yields every window from ``start_index`` on — including empty ones —
    up to ``duration`` when given (so a consumer sampling on window
    boundaries sees the full measured span even if the tail is quiet),
    or up to the last event otherwise.  No window starts at or after
    ``duration``: reading stops at the first event at or past it, outside
    the measured span.  Holds at most one window of events;
    ``max_window_events`` bounds that honestly with a
    :class:`WindowOverflowError` naming the offending window.

    ``start_index`` offsets the windowing for resumed replays: window
    ``i`` always covers ``[i * window_seconds, (i + 1) * window_seconds)``
    regardless of where iteration starts.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    if max_window_events is not None and max_window_events < 1:
        raise ValueError("max_window_events must be positive")

    index = start_index
    current = Window(
        index=index,
        start=index * window_seconds,
        end=(index + 1) * window_seconds,
    )
    peak = 0

    def finish(window: Window) -> Window:
        nonlocal peak
        obs.add("trace.stream.records", len(window.events))
        obs.gauge("trace.window.events", len(window.events))
        if len(window.events) > peak:
            peak = len(window.events)
            obs.gauge("trace.window.peak_events", peak)
        return window

    for event in events:
        time = event.time
        if time < current.start:
            raise ValueError(
                f"event at {time} precedes window {current.index} "
                f"[{current.start}, {current.end}) — stream not time-ordered "
                "or resume position wrong"
            )
        if duration is not None and time >= duration:
            break
        while time >= current.end:
            yield finish(current)
            index += 1
            current = Window(
                index=index,
                start=index * window_seconds,
                end=(index + 1) * window_seconds,
            )
        current.events.append(event)
        if max_window_events is not None and len(current.events) > max_window_events:
            raise WindowOverflowError(
                f"window {current.index} [{current.start}, {current.end}) "
                f"exceeds max_window_events={max_window_events}; widen the "
                "cap or shrink window_seconds"
            )
    # Tail: flush the in-progress window (unless it starts past the
    # measured span — a resume of a completed replay starts there), then
    # pad with empty windows to cover the full duration when one is known.
    if duration is None or current.start < duration:
        yield finish(current)
    if duration is not None:
        while current.end < duration:
            index += 1
            current = Window(
                index=index,
                start=index * window_seconds,
                end=(index + 1) * window_seconds,
            )
            yield finish(current)


@dataclass(frozen=True)
class ReplayReport:
    """What one :func:`replay` drive did."""

    windows: int
    records: int
    peak_window_events: int
    #: windows restored from the checkpoint instead of replayed
    resumed_windows: int
    #: end time of the last window processed
    end: float
    checkpoint: Optional[str] = None


def replay(
    source,
    consumer: StreamConsumer,
    *,
    window_seconds: float = DAY,
    duration: Optional[float] = None,
    max_window_events: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fingerprint: Optional[str] = None,
) -> ReplayReport:
    """Drive ``consumer`` over ``source`` one window at a time.

    ``source`` is any iterable of time-ordered
    :class:`~repro.bgpsim.collector.StreamEvent`; if it exposes
    ``duration`` / ``fingerprint`` attributes (as
    :class:`~repro.bgpsim.trace.TraceStream` does) they become the
    defaults for the matching keywords.

    With ``checkpoint=``, the consumer's serialized state is appended
    after every completed window (:mod:`repro.persist` JSONL checkpoint,
    flushed per record, torn-tail tolerant).  With ``resume=True``, the
    last recorded window's state is restored, the source is
    fast-forwarded past the completed span, and replay continues —
    refusing a checkpoint whose fingerprint does not match the source
    (same contract as ``repro.serve``'s snapshot restore).  A resumed
    replay is bit-identical to an uninterrupted one for any consumer
    whose ``state``/``restore`` round-trip is faithful.
    """
    from repro import persist  # lazy: persist imports bgpsim modules

    if duration is None:
        duration = getattr(source, "duration", None)
    if fingerprint is None:
        fingerprint = getattr(source, "fingerprint", None)

    header = {
        "experiment": REPLAY_EXPERIMENT,
        # The fingerprint rides in the seed slot: CheckpointWriter.resume
        # compares it exactly, refusing a mismatched source.
        "seed": fingerprint,
        "params": {
            "window_seconds": window_seconds,
            "duration": duration,
        },
    }

    writer: Optional[persist.CheckpointWriter] = None
    resumed_windows = 0
    start_index = 0
    skip_before: Optional[float] = None
    events: Iterable[StreamEvent] = iter(source)

    with obs.span(
        "trace.replay", window_seconds=window_seconds, resume=resume
    ) as replay_span:
        try:
            if checkpoint is not None:
                if resume:
                    writer, recorded = persist.CheckpointWriter.resume(
                        checkpoint, header
                    )
                    if recorded:
                        last = recorded[-1]
                        result = last["result"]
                        consumer.restore(result["state"])
                        skip_before = float(result["end"])
                        start_index = int(last["index"]) + 1
                        resumed_windows = len(recorded)
                else:
                    writer = persist.CheckpointWriter.create(checkpoint, header)

            if skip_before is not None:
                events = _skip_events(events, skip_before)

            windows = 0
            records = 0
            peak = 0
            end = float(start_index) * window_seconds
            for window in iter_windows(
                events,
                window_seconds=window_seconds,
                duration=duration,
                max_window_events=max_window_events,
                start_index=start_index,
            ):
                consumer.consume(window)
                windows += 1
                records += len(window.events)
                peak = max(peak, len(window.events))
                end = window.end
                if writer is not None:
                    writer.append(
                        {
                            "type": "trial",
                            "id": f"window-{window.index}",
                            "index": window.index,
                            "result": {
                                "start": window.start,
                                "end": window.end,
                                "records": len(window.events),
                                "state": consumer.state(),
                            },
                        }
                    )
        finally:
            if writer is not None:
                writer.close()
        replay_span.set(
            windows=windows,
            records=records,
            peak_window_events=peak,
            resumed_windows=resumed_windows,
        )

    return ReplayReport(
        windows=windows,
        records=records,
        peak_window_events=peak,
        resumed_windows=resumed_windows,
        end=end,
        checkpoint=checkpoint,
    )


def _skip_events(
    events: Iterable[StreamEvent], before: float
) -> Iterator[StreamEvent]:
    """Drop events with ``time < before`` (the resumed span's records)."""
    for event in events:
        if event.time >= before:
            yield event
            break
    for event in events:
        yield event
