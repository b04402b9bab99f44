"""Tests for the real-time monitoring framework (the paper's future work)."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.core.countermeasures import MonitorConfig
from repro.core.secure_selection import (
    AttackEvent,
    AttackSchedule,
    MonitoringFramework,
    evaluate_secure_selection,
)


@pytest.fixture(scope="module")
def campaign(small_scenario):
    # module-scoped trace: this test file replays streams several times
    trace = small_scenario.run_trace()
    rng = random.Random(5)
    schedule = AttackSchedule.random_campaign(
        trace, attacker_asn=small_scenario.adversary_as(), num_attacks=8, rng=rng
    )
    return trace, schedule


class TestAttackSchedule:
    def test_random_campaign_structure(self, campaign):
        trace, schedule = campaign
        assert len(schedule.events) == 8
        for event in schedule.events:
            assert event.prefix in trace.tor_prefixes
            assert 0 < event.start < trace.duration
            assert event.end > event.start

    def test_active_prefixes_windows(self):
        from repro.analysis.prefixes import Prefix

        p = Prefix.parse("10.0.0.0/24")
        schedule = AttackSchedule([AttackEvent(start=100.0, prefix=p, attacker_asn=9, end=200.0)])
        assert schedule.active_prefixes(50.0) == frozenset()
        assert schedule.active_prefixes(150.0) == {p}
        assert schedule.active_prefixes(250.0) == frozenset()

    def test_bogus_records_reach_carrying_sessions(self, campaign):
        trace, schedule = campaign
        records = schedule.bogus_records(trace.collector_sessions, trace)
        assert records
        for session, record in records:
            assert record.prefix in trace.session_prefixes[session]
            assert record.as_path[0] == session[1]

    def test_bogus_records_ignore_the_string_hash_seed(self):
        """The injected records' delays are a function of the schedule
        alone, not of the interpreter's per-process string hashing."""
        script = textwrap.dedent(
            """
            from types import SimpleNamespace
            from repro.analysis.prefixes import Prefix
            from repro.core.secure_selection import AttackEvent, AttackSchedule

            a, b = Prefix.parse("10.1.0.0/16"), Prefix.parse("10.2.0.0/24")
            schedule = AttackSchedule([
                AttackEvent(start=1000.0, prefix=a, attacker_asn=66, end=9000.0),
                AttackEvent(start=4000.0, prefix=b, attacker_asn=66, end=9000.0),
            ])
            sessions = [("rrc00", 1), ("rrc00", 2), ("rrc01", 3)]
            trace = SimpleNamespace(session_prefixes={
                sessions[0]: {a, b}, sessions[1]: {a}, sessions[2]: {b},
            })
            for session, record in schedule.bogus_records(sessions, trace):
                print(session, repr(record.time), record.prefix, record.as_path)
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0].count("\n") == 4
        assert outputs[0] == outputs[1]

    def test_too_many_attacks_rejected(self, campaign):
        trace, _ = campaign
        with pytest.raises(ValueError):
            AttackSchedule.random_campaign(
                trace, 1, len(trace.tor_prefixes) + 1, random.Random(0)
            )


class TestMonitoringFramework:
    def test_replay_required(self, campaign):
        trace, _schedule = campaign
        framework = MonitoringFramework(trace)
        with pytest.raises(RuntimeError):
            framework.suspected_at(0.0)

    def test_detects_attacks_with_latency(self, campaign):
        trace, schedule = campaign
        framework = MonitoringFramework(trace)
        framework.replay(schedule)
        latency = framework.detection_latency(schedule)
        detected = [v for v in latency.values() if v is not None]
        assert len(detected) >= 0.7 * len(schedule.events)
        for value in detected:
            assert 0 <= value < 600  # bogus routes show up within minutes

    def test_suspected_set_is_monotone_in_time(self, campaign):
        trace, schedule = campaign
        framework = MonitoringFramework(trace)
        framework.replay(schedule)
        t1 = trace.duration * 0.3
        t2 = trace.duration * 0.9
        assert framework.suspected_at(t1) <= framework.suspected_at(t2)

    def test_no_attacks_no_origin_alerts(self, campaign):
        """Without injected hijacks the trace carries only legitimate
        origins, so new-origin alerts must be absent (TE churn keeps the
        true origin)."""
        trace, _schedule = campaign
        framework = MonitoringFramework(trace)
        framework.replay(schedule=None)
        kinds = {a.kind for a in framework.monitor.alerts}
        assert "new-origin" not in kinds


class TestDetectionAccounting:
    def test_preattack_false_positive_does_not_mask_detection(self, campaign):
        """Regression: a benign alert on a prefix *before* the attack must
        not hide the real detection that happens during the attack."""
        from repro.analysis.prefixes import Prefix
        from repro.bgpsim.collector import UpdateRecord

        trace, _ = campaign
        framework = MonitoringFramework(trace)
        prefix = sorted(trace.tor_prefixes, key=str)[0]
        origin = trace.prefix_origins[prefix]
        attack_start = trace.duration * 0.5
        schedule = AttackSchedule(
            [AttackEvent(start=attack_start, prefix=prefix, attacker_asn=424242)]
        )
        framework.replay(schedule=None)  # only benign traffic in first_alert
        # Manually inject a benign pre-attack alert and an in-attack alert.
        session = trace.collector_sessions[0]
        framework.monitor.observe(
            UpdateRecord(trace.duration * 0.9, prefix, (session[1], 424242)),
            session=session,
        )
        # first_alert may hold a pre-attack timestamp; the latency query
        # must still find the in-attack alert.
        latency = framework.detection_latency(schedule)
        assert latency[prefix] is not None
        assert latency[prefix] >= 0


class TestEvaluation:
    def test_protection_reduces_vulnerability(self, small_scenario, campaign):
        trace, schedule = campaign
        clients = small_scenario.client_ases(4)
        report = evaluate_secure_selection(
            small_scenario.tor,
            trace,
            schedule,
            clients,
            circuits_per_client=15,
            seed=3,
        )
        assert report.circuits_built > 0
        assert report.protected_rate <= report.baseline_rate
        assert report.detected_attacks >= 0.7 * report.total_attacks
        if report.mean_detection_latency is not None:
            assert report.mean_detection_latency < 600

    def test_report_rates_bounded(self, small_scenario, campaign):
        trace, schedule = campaign
        report = evaluate_secure_selection(
            small_scenario.tor,
            trace,
            schedule,
            small_scenario.client_ases(2),
            circuits_per_client=5,
            seed=4,
        )
        assert 0.0 <= report.protected_rate <= 1.0
        assert 0.0 <= report.baseline_rate <= 1.0
