"""Tests for the bounded-memory windowed replay driver."""

import pytest

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import IterSource, StreamEvent, UpdateRecord
from repro.bgpsim.stream import (
    DAY,
    Window,
    WindowOverflowError,
    iter_windows,
    replay,
)
from repro.persist import CheckpointError

P = Prefix.parse("10.0.0.0/24")
SESSION = ("rrc00", 42)


def ev(t, path=(42, 1)):
    return StreamEvent(SESSION, UpdateRecord(t, P, tuple(path) if path else None))


class CountingConsumer:
    """Records per-window event counts; trivially checkpointable."""

    def __init__(self):
        self.counts = []
        self.total = 0

    def consume(self, window):
        self.counts.append((window.index, window.start, window.end, len(window)))
        self.total += len(window)

    def state(self):
        return {"counts": [list(c) for c in self.counts], "total": self.total}

    def restore(self, state):
        self.counts = [tuple(c) for c in state["counts"]]
        self.total = int(state["total"])


class TestIterWindows:
    def test_chops_into_consecutive_windows(self):
        events = [ev(0.0), ev(5.0), ev(10.0), ev(25.0)]
        windows = list(iter_windows(events, window_seconds=10.0))
        assert [(w.index, w.start, w.end, len(w)) for w in windows] == [
            (0, 0.0, 10.0, 2),
            (1, 10.0, 20.0, 1),
            (2, 20.0, 30.0, 1),
        ]

    def test_empty_gaps_yield_empty_windows(self):
        events = [ev(5.0), ev(35.0)]
        windows = list(iter_windows(events, window_seconds=10.0))
        assert [len(w) for w in windows] == [1, 0, 0, 1]
        assert [w.index for w in windows] == [0, 1, 2, 3]

    def test_duration_pads_quiet_tail(self):
        events = [ev(5.0)]
        windows = list(iter_windows(events, window_seconds=10.0, duration=50.0))
        assert [len(w) for w in windows] == [1, 0, 0, 0, 0]
        assert windows[-1].end == 50.0

    def test_empty_stream_with_duration_covers_span(self):
        windows = list(iter_windows([], window_seconds=10.0, duration=30.0))
        assert [(w.index, len(w)) for w in windows] == [(0, 0), (1, 0), (2, 0)]

    def test_window_cap_raises_with_window_named(self):
        events = [ev(0.0), ev(1.0), ev(2.0)]
        with pytest.raises(WindowOverflowError, match=r"window 0 \[0\.0, 10\.0\)"):
            list(iter_windows(events, window_seconds=10.0, max_window_events=2))

    def test_out_of_order_event_rejected(self):
        events = [ev(15.0), ev(5.0)]
        with pytest.raises(ValueError, match="not time-ordered"):
            list(iter_windows(events, window_seconds=10.0))

    def test_start_index_keeps_absolute_alignment(self):
        events = [ev(25.0)]
        windows = list(iter_windows(events, window_seconds=10.0, start_index=2))
        assert [(w.index, w.start, w.end) for w in windows] == [(2, 20.0, 30.0)]

    def test_start_index_past_duration_yields_nothing(self):
        # Resuming a completed replay must not invent windows past the span.
        windows = list(
            iter_windows([], window_seconds=10.0, duration=30.0, start_index=3)
        )
        assert windows == []

    def test_stops_at_duration(self):
        read = []

        def source():
            for t in (5.0, 15.0, 30.0, 45.0, 55.0):
                read.append(t)
                yield ev(t)

        windows = list(iter_windows(source(), window_seconds=10.0, duration=30.0))
        assert [(w.index, len(w)) for w in windows] == [(0, 1), (1, 1), (2, 0)]
        # The first event past the span ends the read.
        assert read == [5.0, 15.0, 30.0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            list(iter_windows([], window_seconds=0.0))
        with pytest.raises(ValueError):
            list(iter_windows([], window_seconds=1.0, max_window_events=0))


def make_source(times):
    return IterSource(SESSION, (UpdateRecord(t, P, (42, 1, int(t))) for t in times))


class _Events:
    """Iterable-of-StreamEvent source with duration/fingerprint attrs."""

    def __init__(self, times, duration, fingerprint="fp"):
        self._times = times
        self.duration = duration
        self.fingerprint = fingerprint

    def __iter__(self):
        return (ev(t, (42, 1, i)) for i, t in enumerate(self._times))


class TestReplay:
    def test_report_counts(self):
        source = _Events([0.0, 5.0, 15.0], duration=30.0)
        consumer = CountingConsumer()
        report = replay(source, consumer, window_seconds=10.0)
        assert report.windows == 3
        assert report.records == 3
        assert report.peak_window_events == 2
        assert report.resumed_windows == 0
        assert report.end == 30.0
        assert consumer.total == 3

    def test_events_past_duration_are_not_replayed(self):
        source = _Events([0.0, 15.0, 25.0, 35.0], duration=20.0)
        consumer = CountingConsumer()
        report = replay(source, consumer, window_seconds=10.0)
        assert report.windows == 2
        assert report.records == 2
        assert report.end == 20.0
        assert consumer.counts == [(0, 0.0, 10.0, 1), (1, 10.0, 20.0, 1)]

    def test_source_attrs_become_defaults(self):
        source = _Events([0.0], duration=25.0)
        report = replay(source, CountingConsumer(), window_seconds=10.0)
        # duration 25 -> windows [0,10), [10,20), [20,30)
        assert report.windows == 3

    def test_checkpoint_then_resume_matches_uninterrupted(self, tmp_path):
        times = [0.0, 5.0, 12.0, 22.0, 27.0, 38.0]
        ckpt = str(tmp_path / "replay.ckpt")

        straight = CountingConsumer()
        replay(_Events(times, 40.0), straight, window_seconds=10.0)

        class Stop(Exception):
            pass

        class Interrupter:
            def __init__(self, inner, after):
                self.inner, self.after, self.done = inner, after, 0

            def consume(self, window):
                if self.done >= self.after:
                    raise Stop
                self.inner.consume(window)
                self.done += 1

            def state(self):
                return self.inner.state()

            def restore(self, state):
                self.inner.restore(state)

        partial = CountingConsumer()
        with pytest.raises(Stop):
            replay(
                _Events(times, 40.0),
                Interrupter(partial, 2),
                window_seconds=10.0,
                checkpoint=ckpt,
            )

        resumed = CountingConsumer()
        report = replay(
            _Events(times, 40.0),
            resumed,
            window_seconds=10.0,
            checkpoint=ckpt,
            resume=True,
        )
        assert report.resumed_windows == 2
        assert report.windows == 2
        assert resumed.state() == straight.state()

    def test_resume_of_complete_checkpoint_is_noop(self, tmp_path):
        ckpt = str(tmp_path / "replay.ckpt")
        first = CountingConsumer()
        replay(_Events([0.0, 15.0], 20.0), first, window_seconds=10.0, checkpoint=ckpt)

        again = CountingConsumer()
        report = replay(
            _Events([0.0, 15.0], 20.0),
            again,
            window_seconds=10.0,
            checkpoint=ckpt,
            resume=True,
        )
        assert report.windows == 0
        assert report.resumed_windows == 2
        assert again.state() == first.state()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        ckpt = str(tmp_path / "replay.ckpt")
        replay(
            _Events([0.0], 10.0, fingerprint="aaa"),
            CountingConsumer(),
            window_seconds=10.0,
            checkpoint=ckpt,
        )
        with pytest.raises(CheckpointError):
            replay(
                _Events([0.0], 10.0, fingerprint="bbb"),
                CountingConsumer(),
                window_seconds=10.0,
                checkpoint=ckpt,
                resume=True,
            )

    def test_window_len(self):
        w = Window(index=0, start=0.0, end=1.0, events=[ev(0.5)])
        assert len(w) == 1


class TestTraceReplay:
    def test_trace_stream_replays_bounded(self, small_scenario):
        stream = small_scenario.open_trace_stream()
        consumer = CountingConsumer()
        report = replay(stream, consumer, window_seconds=DAY)
        assert report.windows == round(stream.duration / DAY)
        assert report.records == consumer.total > 0
        assert report.peak_window_events <= consumer.total


class TestFollow:
    def test_applies_one_window_per_day_of_duration(self):
        from repro.serve.follow import LinkEvent, follow

        events = [
            LinkEvent(time=day * DAY + 60.0, op="down" if day % 2 == 0 else "up", link=(1, 2))
            for day in range(31)
        ]
        applied = []

        def apply(batch):
            applied.append(batch)
            return {"epoch": len(applied)}

        report, feed = follow(events, apply, window_seconds=DAY, duration=2 * DAY)
        assert report.windows == 2
        assert feed.windows == 2 and feed.epoch == 2
        assert applied == [
            [{"op": "down", "link": [1, 2]}],
            [{"op": "up", "link": [1, 2]}],
        ]
