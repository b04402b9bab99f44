"""Tests for exposure and path-change analyses on crafted streams."""

import pytest

from repro.analysis.exposure import (
    ExposureConfig,
    as_dwell_times,
    extra_as_samples,
    prefix_exposure,
)
from repro.analysis.pathchanges import (
    count_path_changes,
    path_change_table,
    session_stats,
    tor_ratio_samples,
)
from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import UpdateRecord, UpdateStream

P = Prefix.parse("10.0.0.0/24")
Q = Prefix.parse("10.0.1.0/24")
SESSION = ("rrc00", 42)
HOUR = 3600.0


def stream(*records):
    return UpdateStream(SESSION, [UpdateRecord(t, p, tuple(path) if path else None) for t, p, path in records])


class TestPathChanges:
    def test_counts_as_set_changes(self):
        s = stream(
            (0, P, (42, 7, 1)),
            (10, P, (42, 8, 1)),  # change 1
            (20, P, (42, 8, 1)),  # same -> no change
            (30, P, (42, 7, 1)),  # change 2
        )
        assert count_path_changes(s, P) == 2

    def test_prepending_does_not_count(self):
        """AS-path (42,7,7,1) crosses the same AS *set* as (42,7,1)."""
        s = stream((0, P, (42, 7, 1)), (10, P, (42, 7, 7, 1)))
        assert count_path_changes(s, P) == 0

    def test_withdrawal_then_same_path_does_not_count(self):
        s = stream((0, P, (42, 7, 1)), (10, P, None), (20, P, (42, 7, 1)))
        assert count_path_changes(s, P) == 0

    def test_withdrawal_then_new_path_counts_once(self):
        s = stream((0, P, (42, 7, 1)), (10, P, None), (20, P, (42, 9, 1)))
        assert count_path_changes(s, P) == 1

    def test_first_announcement_is_not_a_change(self):
        assert count_path_changes(stream((0, P, (42, 1))), P) == 0

    def test_table_matches_per_prefix_counts(self):
        s = stream(
            (0, P, (42, 7, 1)),
            (1, Q, (42, 5, 2)),
            (2, P, (42, 8, 1)),
            (3, Q, (42, 5, 2)),
        )
        table = path_change_table(s)
        assert table == {P: 1, Q: 0}
        assert table[P] == count_path_changes(s, P)

    def test_session_stats_median_and_ratio(self):
        records = []
        # 5 background prefixes with 2 changes each; P with 10 changes
        for i in range(5):
            bg = Prefix.parse(f"20.0.{i}.0/24")
            records += [(j * 10 + i, bg, (42, 100 + j % 3, 1)) for j in range(3)]
        records += [(1000 + j, P, (42, 200 + j, 1)) for j in range(11)]
        s = UpdateStream(SESSION, [UpdateRecord(t, p, tuple(a)) for t, p, a in sorted(records)])
        stats = session_stats(s)
        assert stats.median == 2
        assert stats.ratio(P) == 5.0
        assert stats.ratio(Prefix.parse("30.0.0.0/24")) is None

    def test_tor_ratio_samples_skips_zero_median_sessions(self):
        quiet = stream((0, P, (42, 1)), (1, Q, (42, 2)))
        assert tor_ratio_samples([quiet], frozenset({P})) == []


class TestDwellTimes:
    def test_accumulates_per_as(self):
        s = stream(
            (0, P, (42, 7, 1)),
            (1 * HOUR, P, (42, 8, 1)),
            (3 * HOUR, P, (42, 7, 1)),
        )
        dwell = as_dwell_times(s, P, horizon=10 * HOUR)
        assert dwell[42] == pytest.approx(10 * HOUR)
        assert dwell[1] == pytest.approx(10 * HOUR)
        assert dwell[7] == pytest.approx(8 * HOUR)
        assert dwell[8] == pytest.approx(2 * HOUR)

    def test_withdrawn_time_counts_for_nobody(self):
        s = stream((0, P, (42, 1)), (HOUR, P, None), (2 * HOUR, P, (42, 1)))
        dwell = as_dwell_times(s, P, horizon=3 * HOUR)
        assert dwell[42] == pytest.approx(2 * HOUR)


class TestPrefixExposure:
    def test_baseline_excluded_from_extras(self):
        s = stream(
            (0, P, (42, 7, 1)),
            (HOUR, P, (42, 8, 9, 1)),
        )
        exposure = prefix_exposure(s, P, horizon=24 * HOUR)
        assert exposure.baseline_ases == {42, 7, 1}
        assert exposure.extra_ases == {8, 9}
        assert exposure.num_extra == 2
        assert exposure.total_ases == 5

    def test_dwell_filter_drops_transients(self):
        """An AS on-path for under 5 minutes is ignored — the paper's
        'to be fair' rule that excludes convergence transients."""
        s = stream(
            (0, P, (42, 7, 1)),
            (HOUR, P, (42, 99, 1)),       # transient detour
            (HOUR + 60, P, (42, 7, 1)),   # back after 60s < 5 min
        )
        exposure = prefix_exposure(s, P, horizon=24 * HOUR)
        assert 99 not in exposure.extra_ases
        assert 99 in exposure.extra_ases_unfiltered

    def test_dwell_filter_total_mode_accumulates(self):
        """Four 2-minute detours through AS99 total 8 min >= 5 min."""
        records = [(0, P, (42, 7, 1))]
        t = HOUR
        for _ in range(4):
            records.append((t, P, (42, 99, 1)))
            records.append((t + 120, P, (42, 7, 1)))
            t += HOUR
        exposure = prefix_exposure(stream(*records), P, horizon=24 * HOUR)
        assert 99 in exposure.extra_ases

    def test_dwell_filter_interval_mode_does_not(self):
        records = [(0, P, (42, 7, 1))]
        t = HOUR
        for _ in range(4):
            records.append((t, P, (42, 99, 1)))
            records.append((t + 120, P, (42, 7, 1)))
            t += HOUR
        exposure = prefix_exposure(
            stream(*records), P, horizon=24 * HOUR, config=ExposureConfig(mode="interval")
        )
        assert 99 not in exposure.extra_ases

    def test_interval_mode_keeps_long_single_interval(self):
        s = stream((0, P, (42, 7, 1)), (HOUR, P, (42, 99, 1)), (2 * HOUR, P, (42, 7, 1)))
        exposure = prefix_exposure(
            s, P, horizon=24 * HOUR, config=ExposureConfig(mode="interval")
        )
        assert 99 in exposure.extra_ases

    def test_never_announced_returns_none(self):
        s = stream((0, Q, (42, 1)))
        assert prefix_exposure(s, P, horizon=HOUR) is None

    def test_withdrawal_only_prefix_returns_none(self):
        s = stream((0, P, None))
        assert prefix_exposure(s, P, horizon=HOUR) is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExposureConfig(dwell_threshold=-1)
        with pytest.raises(ValueError):
            ExposureConfig(mode="weird")

    def test_extra_as_samples_only_counts_carried_prefixes(self):
        s = stream((0, P, (42, 7, 1)), (HOUR, P, (42, 8, 1)))
        samples = extra_as_samples([s], frozenset({P, Q}), horizon=24 * HOUR)
        assert samples == [1]


class TestOneTimelinePerPrefix:
    @pytest.mark.parametrize("mode", ["total", "interval"])
    def test_prefix_exposure_builds_each_timeline_once(self, mode, monkeypatch):
        calls = []
        build = UpdateStream.path_timeline

        def counted(self, prefix):
            calls.append((self.session, prefix))
            return build(self, prefix)

        monkeypatch.setattr(UpdateStream, "path_timeline", counted)
        s = stream(
            (0, P, (42, 7, 1)),
            (1, Q, (42, 5, 2)),
            (2 * HOUR, P, (42, 8, 1)),
            (3 * HOUR, Q, (42, 6, 2)),
        )
        samples = extra_as_samples([s], frozenset({P, Q}), 5 * HOUR, ExposureConfig(mode=mode))
        assert samples == [1, 1]
        assert sorted(calls) == sorted([(SESSION, P), (SESSION, Q)])


class TestHorizonClamping:
    """Regression: dwell past the measurement horizon must contribute
    nothing, in both accounting modes (the §4 window is the month)."""

    def test_interval_closing_past_horizon_is_clamped(self):
        """AS99 appears 100s before the horizon and leaves 400s after it:
        only 100s fall inside the window, under the 300s threshold.  The
        unclamped accounting credited the full 500s and qualified it."""
        horizon = 10 * HOUR
        s = stream(
            (0, P, (42, 7, 1)),
            (horizon - 100, P, (42, 99, 1)),
            (horizon + 400, P, (42, 7, 1)),
        )
        exposure = prefix_exposure(
            s, P, horizon=horizon, config=ExposureConfig(mode="interval")
        )
        assert 99 not in exposure.extra_ases

    def test_interval_mode_matches_total_mode_at_boundary(self):
        """With single-interval ASes the two modes must agree, including
        on a timeline whose last update falls after the horizon."""
        horizon = 10 * HOUR
        s = stream(
            (0, P, (42, 7, 1)),
            (horizon - 400, P, (42, 98, 1)),   # 400s in-window: qualifies
            (horizon + 50, P, (42, 99, 1)),    # entirely past horizon
            (horizon + 500, P, (42, 7, 1)),
        )
        for mode in ("total", "interval"):
            exposure = prefix_exposure(
                s, P, horizon=horizon, config=ExposureConfig(mode=mode)
            )
            assert 98 in exposure.extra_ases, mode
            assert 99 not in exposure.extra_ases, mode

    def test_open_interval_clamped_at_horizon(self):
        """An AS still on-path when the window ends gets horizon - since,
        not infinite credit."""
        horizon = HOUR
        s = stream((0, P, (42, 7, 1)), (horizon - 100, P, (42, 99, 1)))
        exposure = prefix_exposure(
            s, P, horizon=horizon, config=ExposureConfig(mode="interval")
        )
        assert 99 not in exposure.extra_ases

    def test_in_window_interval_still_qualifies(self):
        horizon = 10 * HOUR
        s = stream(
            (0, P, (42, 7, 1)),
            (HOUR, P, (42, 99, 1)),
            (2 * HOUR, P, (42, 7, 1)),
        )
        exposure = prefix_exposure(
            s, P, horizon=horizon, config=ExposureConfig(mode="interval")
        )
        assert 99 in exposure.extra_ases
