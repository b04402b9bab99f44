"""Integration tests for the month-scale trace engine (§4 substrate)."""

import pytest

from repro import obs
from repro.analysis.pathchanges import session_stats, tor_ratio_samples
from repro.analysis.exposure import extra_as_samples
from repro.analysis.stats import Ccdf
from repro.bgpsim.resets import remove_reset_artifacts
from repro.bgpsim.trace import TraceConfig, TraceEngine
from repro.obs import Recorder
from tests.oracle.trace import ReferenceTraceEngine


class TestTraceStructure:
    def test_session_roster(self, small_trace, small_scenario):
        trace, observers = small_trace
        cfg = small_scenario.config.trace
        expected = len(cfg.collector_names) * cfg.sessions_per_collector
        assert len(trace.collector_sessions) == expected
        assert len(trace.observer_sessions) == len(observers)
        assert set(trace.sessions) == set(trace.collector_sessions) | set(
            trace.observer_sessions
        )

    def test_streams_time_ordered_and_bounded(self, small_trace):
        trace, _ = small_trace
        for stream in trace.streams.values():
            times = [r.time for r in stream]
            assert times == sorted(times)
            assert all(0 <= t <= trace.duration for t in times)

    def test_every_session_learns_a_tor_prefix(self, small_trace):
        trace, _ = small_trace
        assert trace.tor_streams_nonempty()

    def test_records_respect_visibility(self, small_trace):
        trace, _ = small_trace
        for session, stream in trace.streams.items():
            assert stream.prefixes() <= trace.session_prefixes[session]

    def test_as_paths_start_at_peer_and_end_at_origin(self, small_trace):
        trace, _ = small_trace
        for session in trace.collector_sessions:
            stream = trace.streams[session]
            for record in list(stream)[:200]:
                if record.as_path is None:
                    continue
                assert record.as_path[0] == session[1]
                if not record.from_reset:
                    origin = trace.prefix_origins[record.prefix]
                    # TE transients may carry alternate-tree paths, but the
                    # terminal AS must always be the true origin
                    assert record.as_path[-1] == origin

    def test_observer_sees_all_tor_prefixes_it_routes_to(self, small_trace):
        trace, observers = small_trace
        stream = trace.observer_stream(observers[0])
        seen = stream.prefixes()
        # full-visibility observer: nearly every Tor prefix shows up
        assert len(seen & trace.tor_prefixes) >= 0.9 * len(trace.tor_prefixes)

    def test_observer_stream_unknown_raises(self, small_trace):
        trace, _ = small_trace
        with pytest.raises(KeyError):
            trace.observer_stream(999999)

    def test_ground_truth_events_recorded(self, small_trace):
        trace, _ = small_trace
        kinds = {e.kind for e in trace.events}
        assert "te_switch" in kinds
        assert "reset" in kinds
        assert "core_fail" in kinds and "core_recover" in kinds
        assert "prepend" in kinds
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_prepend_churn_present_but_not_counted(self, small_trace):
        """Prepend events put AS-PATH-only changes on the wire; the §4
        path-change definition (AS *sets*) must ignore them."""
        from repro.analysis.pathchanges import count_path_changes

        trace, _ = small_trace
        prepended = 0
        for session in trace.collector_sessions:
            for record in trace.streams[session]:
                if record.as_path and len(record.as_path) != len(set(record.as_path)):
                    prepended += 1
        assert prepended > 0, "no prepended updates on the wire"

        # The counting rule ignores them: for any stream, counting with the
        # AS-set rule must match a manual count that first collapses
        # prepend-only transitions.
        session = trace.collector_sessions[0]
        stream = trace.streams[session]
        prefix = next(iter(stream.prefixes()))
        manual = 0
        last = None
        for record in stream.records_for(prefix):
            if record.as_path is None:
                continue
            as_set = frozenset(record.as_path)
            if last is not None and as_set != last:
                manual += 1
            last = as_set
        assert count_path_changes(stream, prefix) == manual

    def test_deterministic_for_seed(self, small_scenario):
        cfg = TraceConfig(
            sessions_per_collector=3,
            collector_names=("rrc00",),
            duration_days=3.0,
            seed=77,
        )
        def build():
            engine = TraceEngine(
                small_scenario.graph,
                small_scenario.prefix_origins,
                small_scenario.tor_prefixes,
                cfg,
            )
            trace = engine.run()
            return [
                (s, [(r.time, r.prefix, r.as_path) for r in trace.streams[s]])
                for s in trace.sessions
            ]
        assert build() == build()


class TestTraceStatisticsShape:
    """Loose-band checks that the synthetic trace has the paper's shape;
    the tight assertions live in the benchmark harness at full scale."""

    def test_prefix_visibility_band(self, small_trace):
        trace, _ = small_trace
        sessions = trace.collector_sessions
        counts = {}
        for s in sessions:
            for p in trace.session_prefixes[s]:
                counts[p] = counts.get(p, 0) + 1
        fractions = [c / len(sessions) for c in counts.values()]
        mean = sum(fractions) / len(fractions)
        assert 0.25 < mean < 0.55  # paper: ~40%

    def test_tor_prefixes_change_more_than_median(self, small_trace):
        trace, _ = small_trace
        streams = [
            remove_reset_artifacts(trace.streams[s]) for s in trace.collector_sessions
        ]
        ratios = tor_ratio_samples(streams, trace.tor_prefixes)
        assert len(ratios) > 50
        ccdf = Ccdf.from_samples(ratios)
        assert ccdf.fraction_greater(1.0) > 0.4  # paper: >50%
        assert max(ratios) > 50  # the extreme-flapper tail

    def test_extra_ases_grow_over_month(self, small_trace):
        trace, _ = small_trace
        streams = [
            remove_reset_artifacts(trace.streams[s]) for s in trace.collector_sessions
        ]
        extras = extra_as_samples(streams, trace.tor_prefixes, trace.duration)
        ccdf = Ccdf.from_samples(extras)
        assert ccdf.median() >= 1  # paper: median 2
        assert ccdf.fraction_at_least(2) > 0.3

    def test_session_median_changes_positive(self, small_trace):
        trace, _ = small_trace
        nonzero_medians = 0
        for s in trace.collector_sessions:
            stats = session_stats(remove_reset_artifacts(trace.streams[s]))
            if stats.median > 0:
                nonzero_medians += 1
        assert nonzero_medians >= len(trace.collector_sessions) // 2


class TestTraceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(duration_days=0)
        with pytest.raises(ValueError):
            TraceConfig(sessions_per_collector=0)
        with pytest.raises(ValueError):
            TraceConfig(transient_prob=2.0)

    def test_engine_rejects_unknown_origin(self, small_scenario):
        from repro.analysis.prefixes import Prefix

        with pytest.raises(ValueError):
            TraceEngine(
                small_scenario.graph,
                {Prefix.parse("9.9.9.0/24"): 10**9},
                [],
            )

    def test_engine_rejects_unknown_observer(self, small_scenario):
        with pytest.raises(ValueError):
            TraceEngine(
                small_scenario.graph,
                small_scenario.prefix_origins,
                small_scenario.tor_prefixes,
                observer_asns=[10**9],
            )

    def test_engine_rejects_tor_prefix_without_origin(self, small_scenario):
        from repro.analysis.prefixes import Prefix

        orphan = Prefix.parse("9.9.9.0/24")
        with pytest.raises(ValueError):
            TraceEngine(
                small_scenario.graph,
                small_scenario.prefix_origins,
                set(small_scenario.tor_prefixes) | {orphan},
            )

    def test_streaming_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(window_seconds=0)
        with pytest.raises(ValueError):
            TraceConfig(max_window_events=0)


def _short_engine(scenario, **overrides):
    overrides.setdefault("seed", 77)
    cfg = TraceConfig(
        sessions_per_collector=3,
        collector_names=("rrc00",),
        duration_days=3.0,
        **overrides,
    )
    return TraceEngine(
        scenario.graph, scenario.prefix_origins, scenario.tor_prefixes, cfg
    )


def _reference_engine(scenario, **overrides):
    engine = _short_engine(scenario, **overrides)
    return ReferenceTraceEngine(
        engine.graph, engine.prefix_origins, engine.tor_prefixes, engine.config
    )


def assert_same_trace(streamed, materialized):
    assert streamed.sessions == materialized.sessions
    assert streamed.duration == materialized.duration
    assert streamed.session_prefixes == materialized.session_prefixes
    assert streamed.events == materialized.events
    for session in streamed.sessions:
        a = [(r.time, r.prefix, r.as_path, r.from_reset)
             for r in streamed.streams[session]]
        b = [(r.time, r.prefix, r.as_path, r.from_reset)
             for r in materialized.streams[session]]
        assert a == b


class TestStreamingTrace:
    def test_streamed_equals_materialized(self, small_scenario):
        """The windowed replay with its batched look-ahead and the
        un-batched materialize-then-sort reference must produce
        bit-identical MonthTraces."""
        streamed = _short_engine(small_scenario).run()
        materialized = _reference_engine(small_scenario).run_materialized()
        assert_same_trace(streamed, materialized)

    def test_evicted_look_ahead_is_recomputed(self, small_scenario):
        """A cache far smaller than an epoch's look-ahead, under dense core
        outages: looked-ahead entries are evicted before the replay asks
        for them and are simply recomputed, record for record."""
        overrides = dict(
            route_cache_cap=8, core_outages_per_day=12.0, core_outage_mean_hours=4.0
        )
        engine = _short_engine(small_scenario, **overrides)
        cache = engine._route_cache
        ahead, rebuilt, state = set(), set(), {"ahead": False}
        look_ahead, put = engine._look_ahead, cache.put

        def looking_ahead(*args):
            state["ahead"] = True
            try:
                look_ahead(*args)
            finally:
                state["ahead"] = False

        def counted_put(key, entry):
            (ahead if state["ahead"] else rebuilt).add(key)
            put(key, entry)

        engine._look_ahead, cache.put = looking_ahead, counted_put
        recorder = Recorder()
        previous = obs.set_recorder(recorder)
        try:
            streamed = engine.run()
        finally:
            obs.set_recorder(previous)
        counters = recorder.snapshot().counters
        assert sum(e.kind == "core_fail" for e in streamed.events) >= 20
        assert ahead & rebuilt, "no looked-ahead entry was evicted and rebuilt"
        assert cache.evictions == counters["trace.route_cache.evictions"]
        materialized = _reference_engine(
            small_scenario, **overrides
        ).run_materialized()
        assert_same_trace(streamed, materialized)

    @pytest.mark.parametrize("cap", [8, 64])
    def test_look_ahead_stays_within_the_route_cache(self, small_scenario, monkeypatch, cap):
        """A look-ahead bounded by the cache leaves the streamed run with
        at most 15% more kernel rows than the un-batched reference, which
        computes each route when the replay asks for it."""
        import repro.bgpsim.trace as trace_module

        rows = [0]
        fast, many = trace_module.compute_routes_fast, trace_module.compute_routes_many

        def counted_fast(*args, **kwargs):
            rows[0] += 1
            return fast(*args, **kwargs)

        def counted_many(graph, origins, **kwargs):
            rows[0] += len(origins)
            return many(graph, origins, **kwargs)

        monkeypatch.setattr(trace_module, "compute_routes_fast", counted_fast)
        monkeypatch.setattr(trace_module, "compute_routes_many", counted_many)
        overrides = dict(
            route_cache_cap=cap, core_outages_per_day=12.0, core_outage_mean_hours=4.0
        )
        streamed = _short_engine(small_scenario, **overrides).run()
        streamed_rows, rows[0] = rows[0], 0
        materialized = _reference_engine(small_scenario, **overrides).run_materialized()
        assert_same_trace(streamed, materialized)
        assert streamed_rows <= 1.15 * rows[0], (streamed_rows, rows[0])

    def test_open_stream_is_one_shot(self, small_scenario):
        stream = _short_engine(small_scenario).open_stream()
        assert sum(1 for _ in stream) > 0
        with pytest.raises(RuntimeError, match="one-shot"):
            iter(stream)

    def test_stream_metadata_before_iteration(self, small_scenario):
        stream = _short_engine(small_scenario).open_stream()
        assert stream.duration == pytest.approx(3 * 86_400.0)
        assert len(stream.collector_sessions) == 3
        assert stream.fingerprint
        assert stream.events  # ground-truth schedule known up front

    def test_fingerprint_stable_and_config_sensitive(self, small_scenario):
        a = _short_engine(small_scenario).open_stream().fingerprint
        b = _short_engine(small_scenario).open_stream().fingerprint
        c = _short_engine(small_scenario, seed=78).open_stream().fingerprint
        assert a == b
        assert a != c

    def test_window_cap_overflows_loudly(self, small_scenario):
        from repro.bgpsim.stream import WindowOverflowError

        engine = _short_engine(small_scenario, max_window_events=10)
        with pytest.raises(WindowOverflowError, match="max_window_events=10"):
            engine.run()
