"""Tests for §3.1 temporal exposure on crafted streams and the real trace."""

import pytest

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import UpdateRecord, UpdateStream
from repro.core.temporal import (
    client_exposure,
    compromise_trajectory,
    exposure_over_time,
)

P = Prefix.parse("10.0.0.0/24")
Q = Prefix.parse("10.0.1.0/24")
HOUR = 3600.0
SESSION = ("observer", 42)


def stream(*records):
    return UpdateStream(
        SESSION,
        [UpdateRecord(t, p, tuple(path) if path else None) for t, p, path in records],
    )


class TestExposureOverTime:
    def test_monotone_growth(self):
        s = stream(
            (0, P, (42, 7, 1)),
            (2 * HOUR, P, (42, 8, 1)),
            (5 * HOUR, P, (42, 9, 6, 1)),
        )
        times = [HOUR * i for i in range(1, 10)]
        counts = exposure_over_time(s, P, times)
        assert counts == sorted(counts)
        assert counts[0] == 3  # 42, 7, 1 qualified after an hour
        assert counts[-1] == 6  # all of 42,7,8,9,6,1

    def test_dwell_threshold_delays_qualification(self):
        s = stream((0, P, (42, 7, 1)))
        counts = exposure_over_time(s, P, [60.0, 400.0], dwell_threshold=300.0)
        assert counts == [0, 3]

    def test_short_detour_never_qualifies(self):
        s = stream(
            (0, P, (42, 7, 1)),
            (HOUR, P, (42, 99, 1)),
            (HOUR + 60, P, (42, 7, 1)),
        )
        counts = exposure_over_time(s, P, [24 * HOUR])
        assert counts == [3]  # AS99's 60s never reach the 5-minute bar

    def test_unsorted_sample_times_handled(self):
        s = stream((0, P, (42, 1)))
        assert exposure_over_time(s, P, [2 * HOUR, HOUR]) == [2, 2]

    def test_negative_time_rejected(self):
        s = stream((0, P, (42, 1)))
        with pytest.raises(ValueError):
            exposure_over_time(s, P, [-1.0])

    def test_empty_timeline(self):
        s = stream((0, Q, (42, 1)))
        assert exposure_over_time(s, P, [HOUR]) == [0]


class TestClientExposure:
    def test_union_across_guard_prefixes(self, small_trace):
        trace, observers = small_trace
        client = observers[0]
        prefixes = sorted(trace.tor_prefixes, key=str)[:3]
        single = [
            client_exposure(trace, client, [p], num_samples=8).final_exposure
            for p in prefixes
        ]
        union = client_exposure(trace, client, prefixes, num_samples=8).final_exposure
        assert union <= sum(single)
        assert union >= max(single)

    def test_exposure_monotone_over_month(self, small_trace):
        trace, observers = small_trace
        client = observers[0]
        prefixes = sorted(trace.tor_prefixes, key=str)[:3]
        exposure = client_exposure(trace, client, prefixes, num_samples=16)
        xs = list(exposure.x_over_time)
        assert xs == sorted(xs)
        assert exposure.final_exposure >= 3  # at least one path's ASes

    def test_compromise_trajectory_matches_formula(self, small_trace):
        trace, observers = small_trace
        client = observers[0]
        prefixes = sorted(trace.tor_prefixes, key=str)[:2]
        exposure = client_exposure(trace, client, prefixes, num_samples=8)
        times, probs = compromise_trajectory(
            trace, client, prefixes, f=0.02, num_samples=8
        )
        assert list(times) == list(exposure.sample_times)
        for p, x in zip(probs, exposure.x_over_time):
            assert p == pytest.approx(1 - 0.98**x)

    def test_requires_guard_prefixes(self, small_trace):
        trace, observers = small_trace
        with pytest.raises(ValueError):
            client_exposure(trace, observers[0], [])

    def test_more_guards_mean_weakly_more_exposure(self, small_trace):
        """The paper's guard-amplification: more guard prefixes -> larger
        AS union -> higher compromise probability."""
        trace, observers = small_trace
        client = observers[0]
        prefixes = sorted(trace.tor_prefixes, key=str)[:6]
        one = client_exposure(trace, client, prefixes[:1], num_samples=4).final_exposure
        three = client_exposure(trace, client, prefixes[:3], num_samples=4).final_exposure
        six = client_exposure(trace, client, prefixes, num_samples=4).final_exposure
        assert one <= three <= six
