"""Tests for bandwidth-weighted path selection and guard management."""

import random
from collections import Counter

import pytest

from repro.tor.circuit import Circuit
from repro.tor.consensus import Consensus, Position
from repro.tor.pathsel import GuardManager, PathConstraints, PathSelector
from repro.tor.relay import Flag, Relay

DAY = 86_400.0


def relay(fp, flags=(), bw=1000, address="10.0.0.1", family=()):
    return Relay(
        fingerprint=fp,
        nickname=f"nick{fp}",
        address=address,
        or_port=9001,
        bandwidth=bw,
        flags=frozenset(set(flags) | {Flag.RUNNING, Flag.VALID}),
        family=frozenset(family),
    )


def build_consensus(n_guards=6, n_exits=6, n_middle=8):
    relays = []
    for i in range(n_guards):
        relays.append(relay(f"G{i}", {Flag.GUARD}, bw=(i + 1) * 100, address=f"10.{i}.0.1"))
    for i in range(n_exits):
        relays.append(relay(f"E{i}", {Flag.EXIT}, bw=(i + 1) * 100, address=f"11.{i}.0.1"))
    for i in range(n_middle):
        relays.append(relay(f"M{i}", (), bw=(i + 1) * 100, address=f"12.{i}.0.1"))
    return Consensus(relays)


class FixedDrawRandom(random.Random):
    """Every ``uniform(a, b)`` draw lands at ``a + (b - a) * fraction``."""

    def __init__(self, fraction):
        super().__init__(0)
        self.fraction = fraction

    def random(self):
        return self.fraction


class TestWeightedChoice:
    def test_proportionality(self):
        consensus = Consensus([relay("A", bw=100), relay("B", bw=300, address="10.1.0.1")])
        selector = PathSelector(consensus, random.Random(0))
        counts = Counter()
        for _ in range(4000):
            counts[selector.pick(Position.MIDDLE).fingerprint] += 1
        ratio = counts["B"] / counts["A"]
        assert 2.4 < ratio < 3.7  # expect ~3.0

    def test_zero_weights_yield_none(self):
        rng = random.Random(0)
        state = rng.getstate()
        # No relay carries guard weight, so nothing qualifies and nothing
        # is drawn.
        no_guards = Consensus([relay("A"), relay("B", address="10.1.0.1")])
        assert PathSelector(no_guards, rng).pick(Position.GUARD) is None
        # Every candidate excluded.
        only = Consensus([relay("A")])
        assert PathSelector(only, rng).pick(Position.MIDDLE, exclude=[only.relay("A")]) is None
        assert rng.getstate() == state

    def test_zero_draw_never_picks_a_zero_weight_relay(self):
        # The middle-only relay comes first in consensus order: a draw of
        # exactly 0.0 must still land on a relay with guard weight.
        consensus = Consensus(
            [
                relay("M", bw=500, address="10.0.0.1"),
                relay("G", {Flag.GUARD}, bw=500, address="10.1.0.1"),
                relay("E", {Flag.EXIT}, bw=500, address="10.2.0.1"),
            ]
        )
        assert consensus.position_weight(consensus.relay("M"), Position.GUARD) == 0.0
        chosen = PathSelector(consensus, FixedDrawRandom(0.0)).pick(Position.GUARD)
        assert chosen.fingerprint == "G"
        manager = GuardManager(consensus, FixedDrawRandom(0.0), num_guards=1)
        assert [g.fingerprint for g in manager.guards] == ["G"]

    def test_draw_on_a_running_sum_picks_that_relay(self):
        # Equal weights and a draw of exactly half the total: the draw
        # reaches A's running sum, so A is chosen, not B.
        consensus = Consensus([relay("A", bw=100), relay("B", bw=100, address="10.1.0.1")])
        chosen = PathSelector(consensus, FixedDrawRandom(0.5)).pick(Position.MIDDLE)
        assert chosen.fingerprint == "A"


class TestCircuit:
    def test_requires_distinct_relays(self):
        g = relay("G", {Flag.GUARD})
        with pytest.raises(ValueError):
            Circuit(guard=g, middle=g, exit=relay("E", {Flag.EXIT}, address="10.2.0.1"))

    def test_constraints_slash16(self):
        c = Circuit(
            guard=relay("G", {Flag.GUARD}, address="10.0.1.1"),
            middle=relay("M", address="10.0.2.1"),  # same /16 as guard
            exit=relay("E", {Flag.EXIT}, address="11.0.0.1"),
        )
        assert not c.obeys_constraints()

    def test_constraints_family(self):
        c = Circuit(
            guard=relay("G", {Flag.GUARD}, address="10.0.0.1", family={"E"}),
            middle=relay("M", address="11.0.0.1"),
            exit=relay("E", {Flag.EXIT}, address="12.0.0.1"),
        )
        assert not c.obeys_constraints()

    def test_valid_circuit(self):
        c = Circuit(
            guard=relay("G", {Flag.GUARD}, address="10.0.0.1"),
            middle=relay("M", address="11.0.0.1"),
            exit=relay("E", {Flag.EXIT}, address="12.0.0.1"),
        )
        assert c.obeys_constraints()
        assert "nickG" in c.describe()


class TestPathSelector:
    def test_builds_valid_circuits(self):
        consensus = build_consensus()
        selector = PathSelector(consensus, random.Random(1))
        for _ in range(30):
            circuit = selector.build_circuit()
            assert circuit is not None
            assert circuit.guard.is_guard
            assert circuit.exit.is_exit
            assert circuit.obeys_constraints()

    def test_respects_pinned_guard(self):
        consensus = build_consensus()
        selector = PathSelector(consensus, random.Random(1))
        guard = consensus.relay("G3")
        for _ in range(10):
            circuit = selector.build_circuit(guard=guard)
            assert circuit.guard.fingerprint == "G3"

    def test_selection_probability_tracks_bandwidth(self):
        consensus = build_consensus()
        selector = PathSelector(consensus, random.Random(7))
        counts = Counter()
        for _ in range(3000):
            counts[selector.pick(Position.EXIT).fingerprint] += 1
        # E5 has 6x the bandwidth of E0
        assert counts["E5"] > 3 * counts["E0"]

    def test_pick_honours_exclusions(self):
        consensus = build_consensus()
        selector = PathSelector(consensus, random.Random(1))
        guard = consensus.relay("G0")
        for _ in range(20):
            chosen = selector.pick(Position.GUARD, exclude=[guard])
            assert chosen.fingerprint != "G0"

    def test_custom_circuit_filter(self):
        consensus = build_consensus()
        constraints = PathConstraints(circuit_filter=lambda c: c.exit.fingerprint == "E5")
        selector = PathSelector(consensus, random.Random(1), constraints)
        circuit = selector.build_circuit()
        assert circuit is not None and circuit.exit.fingerprint == "E5"

    def test_impossible_filter_returns_none(self):
        consensus = build_consensus()
        constraints = PathConstraints(circuit_filter=lambda c: False)
        selector = PathSelector(consensus, random.Random(1), constraints, max_attempts=5)
        assert selector.build_circuit() is None


class TestGuardManager:
    def test_fixed_guard_set(self):
        consensus = build_consensus()
        mgr = GuardManager(consensus, random.Random(3), num_guards=3)
        guards = mgr.guards
        assert len(guards) == 3
        assert all(g.is_guard for g in guards)
        # stable within the rotation period
        assert [g.fingerprint for g in mgr.current_guards(now=DAY)] == [
            g.fingerprint for g in guards
        ]

    def test_rotation_replaces_guards(self):
        consensus = build_consensus()
        mgr = GuardManager(consensus, random.Random(3), num_guards=3, rotation_days=30)
        before = {g.fingerprint for g in mgr.guards}
        after = {g.fingerprint for g in mgr.current_guards(now=61 * DAY)}
        assert len(after) == 3
        assert after != before  # every guard has expired by 2x rotation

    def test_nine_month_guards_survive_a_month(self):
        consensus = build_consensus()
        mgr = GuardManager(consensus, random.Random(3), num_guards=1, rotation_days=270)
        before = [g.fingerprint for g in mgr.guards]
        assert [g.fingerprint for g in mgr.current_guards(now=31 * DAY)] == before

    def test_pick_guard_round_robins_within_set(self):
        consensus = build_consensus()
        mgr = GuardManager(consensus, random.Random(3), num_guards=3)
        picks = {mgr.pick_guard(now=0.0).fingerprint for _ in range(60)}
        assert picks == {g.fingerprint for g in mgr.guards}

    def test_validation(self):
        consensus = build_consensus()
        with pytest.raises(ValueError):
            GuardManager(consensus, random.Random(0), num_guards=0)
        with pytest.raises(ValueError):
            GuardManager(consensus, random.Random(0), rotation_days=0)

    def test_guard_selection_is_bandwidth_biased(self):
        consensus = build_consensus()
        counts = Counter()
        for seed in range(300):
            mgr = GuardManager(consensus, random.Random(seed), num_guards=1)
            counts[mgr.guards[0].fingerprint] += 1
        assert counts["G5"] > counts["G0"]
