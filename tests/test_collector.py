"""Tests for collector streams and the reset-artefact pipeline."""

from collections import Counter

import pytest

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import (
    Collector,
    IterSource,
    UpdateRecord,
    UpdateStream,
    merge_sources,
    merge_streams,
)
from repro.bgpsim.resets import (
    ResetDetectionConfig,
    detect_resets,
    remove_reset_artifacts,
)

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
P3 = Prefix.parse("10.0.2.0/24")
SESSION = ("rrc00", 42)


def rec(t, prefix, path, reset=False):
    return UpdateRecord(t, prefix, tuple(path) if path is not None else None, from_reset=reset)


class TestUpdateStream:
    def test_append_requires_order(self):
        s = UpdateStream(SESSION)
        s.append(rec(1.0, P1, (42, 1)))
        with pytest.raises(ValueError):
            s.append(rec(0.5, P1, (42, 1)))

    def test_constructor_sorts(self):
        s = UpdateStream(SESSION, [rec(2.0, P1, (42, 1)), rec(1.0, P1, (42, 9, 1))])
        assert [r.time for r in s] == [1.0, 2.0]

    def test_prefixes_and_records_for(self):
        s = UpdateStream(SESSION, [rec(1, P1, (42, 1)), rec(2, P2, (42, 2))])
        assert s.prefixes() == {P1, P2}
        assert len(s.records_for(P1)) == 1

    def test_path_timeline_collapses_duplicates(self):
        s = UpdateStream(
            SESSION,
            [
                rec(1, P1, (42, 1)),
                rec(2, P1, (42, 1)),  # re-announcement, same path
                rec(3, P1, (42, 9, 1)),
                rec(4, P1, None),  # withdrawal
                rec(5, P1, (42, 9, 1)),
            ],
        )
        timeline = s.path_timeline(P1)
        assert timeline == [
            (1, (42, 1)),
            (3, (42, 9, 1)),
            (4, None),
            (5, (42, 9, 1)),
        ]

    def test_filtered(self):
        s = UpdateStream(SESSION, [rec(1, P1, (42, 1)), rec(2, P2, (42, 2))])
        only_p1 = s.filtered(lambda r: r.prefix == P1)
        assert only_p1.prefixes() == {P1}
        assert only_p1.session == SESSION

    def test_collector_duplicate_peers_rejected(self):
        with pytest.raises(ValueError):
            Collector("rrc00", [1, 1])

    def test_merge_streams_rejects_duplicates(self):
        a = UpdateStream(SESSION)
        b = UpdateStream(SESSION)
        with pytest.raises(ValueError):
            merge_streams([a, b])


S_A = ("rrc00", 7)
S_B = ("rrc01", 9)


class TestMergeSources:
    def test_global_time_order(self):
        a = UpdateStream(S_A, [rec(1.0, P1, (7, 1)), rec(5.0, P1, (7, 9, 1))])
        b = UpdateStream(S_B, [rec(2.0, P2, (9, 2)), rec(4.0, P2, None)])
        merged = list(merge_sources([a, b]))
        assert [e.time for e in merged] == [1.0, 2.0, 4.0, 5.0]
        assert [e.session for e in merged] == [S_A, S_B, S_B, S_A]

    def test_tie_order_is_source_order(self):
        """Simultaneous updates across sessions merge in the order sources
        were passed in, then per-source record order — on every run."""
        a = UpdateStream(S_A, [rec(1.0, P1, (7, 1)), rec(1.0, P2, (7, 2))])
        b = UpdateStream(S_B, [rec(1.0, P1, (9, 1))])
        expected = [(S_A, P1), (S_A, P2), (S_B, P1)]
        for _ in range(5):
            merged = list(merge_sources([a, b]))
            assert [(e.session, e.prefix) for e in merged] == expected
        # reversing the source order reverses the tie order
        flipped = list(merge_sources([b, a]))
        assert [(e.session, e.prefix) for e in flipped] == [
            (S_B, P1),
            (S_A, P1),
            (S_A, P2),
        ]

    def test_accepts_generator_backed_sources(self):
        a = IterSource(S_A, (rec(t, P1, (7, 1, int(t))) for t in (1.0, 3.0)))
        b = IterSource(S_B, iter([rec(2.0, P2, (9, 2))]))
        merged = list(merge_sources([a, b]))
        assert [e.time for e in merged] == [1.0, 2.0, 3.0]

    def test_dedup_collapses_repeats_incrementally(self):
        a = UpdateStream(
            S_A,
            [
                rec(1.0, P1, (7, 1)),
                rec(2.0, P1, (7, 1)),  # same path: dropped
                rec(3.0, P1, (7, 9, 1)),
                rec(4.0, P1, None),
                rec(5.0, P1, None),  # repeated withdrawal: dropped
                rec(6.0, P1, (7, 9, 1)),
            ],
        )
        merged = list(merge_sources([a], dedup=True))
        assert [e.time for e in merged] == [1.0, 3.0, 4.0, 6.0]

    def test_dedup_is_per_session(self):
        a = UpdateStream(S_A, [rec(1.0, P1, (7, 1))])
        b = UpdateStream(S_B, [rec(2.0, P1, (7, 1))])  # same path, other session
        merged = list(merge_sources([a, b], dedup=True))
        assert len(merged) == 2

    def test_out_of_order_source_raises(self):
        bad = IterSource(S_A, iter([rec(5.0, P1, (7, 1)), rec(1.0, P1, (7, 1))]))
        with pytest.raises(ValueError, match="not time-ordered"):
            list(merge_sources([bad]))

    def test_merge_streams_materializes_sources(self):
        a = IterSource(S_A, iter([rec(1.0, P1, (7, 1))]))
        indexed = merge_streams([a])
        assert isinstance(indexed[S_A], UpdateStream)
        assert len(indexed[S_A]) == 1


def make_stream_with_reset(num_prefixes=20, reset_at=100.0):
    """Announcements at t~0, a genuine change at t=50, a table dump at
    ``reset_at`` re-announcing everything unchanged."""
    prefixes = [Prefix.parse(f"10.1.{i}.0/24") for i in range(num_prefixes)]
    records = []
    for i, p in enumerate(prefixes):
        records.append(rec(i * 0.01, p, (42, 7, i + 1000)))
    records.append(rec(50.0, prefixes[0], (42, 8, 1000)))  # genuine change
    for i, p in enumerate(prefixes):
        path = (42, 8, 1000) if i == 0 else (42, 7, i + 1000)
        records.append(rec(reset_at + i * 0.01, p, path, reset=True))
    return UpdateStream(SESSION, records), prefixes


class TestResetDetection:
    def test_detects_injected_dump(self):
        stream, _prefixes = make_stream_with_reset()
        resets = detect_resets(stream)
        assert len(resets) == 1
        assert resets[0].start >= 99.0

    def test_removes_only_unchanged_records(self):
        stream, prefixes = make_stream_with_reset()
        cleaned = remove_reset_artifacts(stream)
        # ground truth: every from_reset record was an unchanged repeat
        assert all(not r.from_reset for r in cleaned)
        # the genuine change at t=50 survives
        assert any(r.time == 50.0 for r in cleaned)
        # initial table survives
        assert len(cleaned) == len(prefixes) + 1

    def test_genuine_burst_of_changes_not_flagged(self):
        """A core-link failure rehoming many prefixes at once must NOT be
        classified as a session reset — the paths actually changed."""
        prefixes = [Prefix.parse(f"10.2.{i}.0/24") for i in range(20)]
        records = [rec(i * 0.01, p, (42, 7, i + 1000)) for i, p in enumerate(prefixes)]
        records += [
            rec(60.0 + i * 0.01, p, (42, 9, i + 1000)) for i, p in enumerate(prefixes)
        ]
        stream = UpdateStream(SESSION, records)
        assert detect_resets(stream) == []
        assert len(remove_reset_artifacts(stream)) == len(records)

    def test_small_bursts_ignored(self):
        records = [
            rec(0.0, P1, (42, 1)),
            rec(100.0, P1, (42, 1)),  # lone duplicate, not a table dump
        ]
        stream = UpdateStream(SESSION, records)
        assert detect_resets(stream) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResetDetectionConfig(burst_gap=0)
        with pytest.raises(ValueError):
            ResetDetectionConfig(min_table_fraction=0)
        with pytest.raises(ValueError):
            ResetDetectionConfig(min_unchanged_fraction=2)

    def test_trace_ground_truth_scoring(self, small_trace):
        """On the full synthetic trace, the detector must remove most
        reset artefacts while keeping nearly all genuine records.

        Records are values built on demand, so kept records are matched by
        value: a multiset of ``(time, prefix, as_path, from_reset)``."""
        trace, _observers = small_trace
        removed_reset = kept_reset = removed_genuine = kept_genuine = 0
        for session in trace.collector_sessions:
            stream = trace.streams[session]
            cleaned = remove_reset_artifacts(stream)
            survivors = Counter(
                (r.time, r.prefix, r.as_path, r.from_reset) for r in cleaned
            )
            for record in stream:
                key = (record.time, record.prefix, record.as_path, record.from_reset)
                kept = survivors[key] > 0
                survivors[key] -= kept
                if record.from_reset:
                    kept_reset += kept
                    removed_reset += not kept
                else:
                    kept_genuine += kept
                    removed_genuine += not kept
        total_reset = removed_reset + kept_reset
        total_genuine = removed_genuine + kept_genuine
        assert total_reset > 0, "trace should contain reset artefacts"
        assert removed_reset / total_reset > 0.8, "recall too low"
        assert removed_genuine / total_genuine < 0.05, "too many genuine drops"
