"""The column-stored UpdateStream against the list of records it replaced.

``tests/oracle/stream.py`` keeps the list-backed stream and the
record-at-a-time reset scan and path-change count; the store and the
analyses that read its columns must agree with them on every input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.pathchanges import count_path_changes, path_change_table
from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import UpdateRecord, UpdateStream
from repro.bgpsim.resets import (
    ResetDetectionConfig,
    detect_resets,
    remove_reset_artifacts,
)
from tests.oracle import stream as oracle

SESSION = ("rrc00", 42)
PREFIXES = [Prefix.parse(f"10.0.{i}.0/24") for i in range(5)]
#: few paths, so records repeat them: a prepend of (42, 7, 1), a
#: reordering of its AS set, a detour and a one-hop path
PATHS = [(42, 7, 1), (42, 7, 1, 1), (42, 1, 7), (42, 9, 1), (42, 9, 8, 1), (42,), None]

_records = st.lists(
    st.tuples(
        # half-second steps: ties, bursts and gaps at every burst_gap below
        st.integers(min_value=0, max_value=120).map(lambda k: k * 0.5),
        st.sampled_from(PREFIXES[:4]),  # PREFIXES[4] never appears
        st.sampled_from(PATHS),
        st.booleans(),
    ),
    max_size=60,
).map(lambda raw: [UpdateRecord(t, p, path, from_reset=r) for t, p, path, r in raw])

_configs = st.builds(
    ResetDetectionConfig,
    burst_gap=st.sampled_from([0.5, 2.0, 5.0]),
    min_table_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    min_prefixes=st.integers(min_value=1, max_value=4),
    min_unchanged_fraction=st.sampled_from([0.3, 0.8, 1.0]),
)


def values(records):
    return [(r.time, r.prefix, r.as_path, r.from_reset) for r in records]


def assert_same_stream(store, ref):
    assert len(store) == len(ref)
    assert values(store) == values(ref)
    assert values(store.records) == values(ref.records)
    assert store.prefixes() == ref.prefixes()
    for prefix in PREFIXES:
        assert values(store.records_for(prefix)) == values(ref.records_for(prefix))
        assert store.path_timeline(prefix) == ref.path_timeline(prefix)


class TestStoreMatchesListOracle:
    @settings(deadline=None, max_examples=60)
    @given(_records, st.data())
    def test_sequence_and_index_views(self, records, data):
        store = UpdateStream(SESSION, records)
        ref = oracle.ReferenceUpdateStream(SESSION, records)
        assert_same_stream(store, ref)
        n = len(ref)
        for i in range(-n, n):
            assert values([store.records[i]]) == values([ref.records[i]])
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                store.records[bad]
        cut = data.draw(st.slices(max(n, 1)))
        assert values(store.records[cut]) == values(ref.records[cut])
        keep = lambda r: r.as_path is not None and r.time % 2 == 0  # noqa: E731
        derived = store.filtered(keep)
        assert derived.tables is store.tables
        assert_same_stream(derived, ref.filtered(keep))

    @settings(deadline=None, max_examples=60)
    @given(_records, _records)
    def test_appends_keep_the_index_current(self, first, more):
        records = sorted(first, key=lambda r: r.time)
        store, ref = UpdateStream(SESSION), oracle.ReferenceUpdateStream(SESSION)
        for record in records:
            store.append(record)
            ref.append(record)
        assert_same_stream(store, ref)  # builds both per-prefix indices
        last = records[-1].time if records else 0.0
        for record in sorted(more, key=lambda r: r.time):
            shifted = UpdateRecord(last + record.time, record.prefix, record.as_path,
                                   record.from_reset)
            store.append(shifted)
            ref.append(shifted)
        assert_same_stream(store, ref)

    @settings(deadline=None, max_examples=30)
    @given(_records.filter(lambda records: any(r.time > 0 for r in records)))
    def test_out_of_order_append_raises_the_same_error(self, records):
        store = UpdateStream(SESSION, records)
        ref = oracle.ReferenceUpdateStream(SESSION, records)
        late = UpdateRecord(ref.records[-1].time / 2 - 0.25, PREFIXES[0], PATHS[0])
        with pytest.raises(ValueError) as ours:
            store.append(late)
        with pytest.raises(ValueError) as theirs:
            ref.append(late)
        assert str(ours.value) == str(theirs.value)
        assert len(store) == len(ref)

    def test_records_is_read_only(self):
        store = UpdateStream(SESSION, [UpdateRecord(1.0, PREFIXES[0], PATHS[0])])
        assert not hasattr(store.records, "append")
        assert store.records[0] == store.records[0]
        assert store.records[0] is not store.records[0]  # equal by value only


class TestAnalysesMatchRecordOracle:
    @settings(deadline=None, max_examples=80)
    @given(_records, _configs)
    def test_random_streams(self, records, config):
        store = UpdateStream(SESSION, records)
        ref = oracle.ReferenceUpdateStream(SESSION, records)
        assert detect_resets(store, config) == oracle.detect_resets(ref, config)
        cleaned = remove_reset_artifacts(store, config)
        assert cleaned.tables is store.tables
        assert_same_stream(cleaned, oracle.remove_reset_artifacts(ref, config))
        assert path_change_table(store) == oracle.path_change_table(ref)
        assert list(path_change_table(store)) == list(oracle.path_change_table(ref))
        for prefix in PREFIXES:
            assert count_path_changes(store, prefix) == oracle.count_path_changes(ref, prefix)

    def test_small_trace(self, small_trace):
        trace, _observers = small_trace
        resets_seen = 0
        for session in trace.collector_sessions:
            store = trace.streams[session]
            ref = oracle.ReferenceUpdateStream(session, list(store))
            resets = detect_resets(store)
            assert resets == oracle.detect_resets(ref)
            resets_seen += len(resets)
            cleaned = remove_reset_artifacts(store)
            ref_cleaned = oracle.remove_reset_artifacts(ref)
            assert values(cleaned) == values(ref_cleaned)
            table = path_change_table(cleaned)
            assert table == oracle.path_change_table(ref_cleaned)
            for prefix in sorted(table, key=str)[:5]:
                assert count_path_changes(cleaned, prefix) == oracle.count_path_changes(
                    ref_cleaned, prefix
                )
        assert resets_seen > 0
