"""The compiled relay index against the reference full-scan selection.

``PathSelector.pick`` samples over a per-consensus
:class:`~repro.tor.index.RelayIndex`; :mod:`tests.oracle.pathsel` keeps
the scan it replaced.  Driven from cloned generators, both must return the
identical relay object (or None) and leave the generator in the identical
state, on consensuses built to hit every rule: missing flags, zero
bandwidth, shared /16s, one-sided families, family members absent from
the consensus, exit policies, and excluded relays taken from another
day's consensus.
"""

import gc
import random
from array import array
import weakref
from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tor.churn import ChurnConfig, evolve_consensus
from repro.tor.consensus import BandwidthWeights, Consensus, Position
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.index import relay_index
from repro.tor.pathsel import GuardManager, PathConstraints, PathSelector
from repro.tor.relay import Flag, Relay
from tests.oracle.pathsel import scan_pick, scan_selection

DAY = 86_400.0
POSITIONS = (Position.GUARD, Position.MIDDLE, Position.EXIT)
#: family members that never appear in a consensus
STRANGERS = ["X0", "X1"]
POLICIES = (
    None,
    ExitPolicy(["reject *:25", "accept *:*"]),
    ExitPolicy(["accept 10.0.0.0/8:80", "accept *:443", "reject *:*"]),
    ExitPolicy(["reject *:*"]),
)
DESTINATIONS = (("10.1.2.3", 80), ("93.184.216.34", 443), ("93.184.216.34", 25))

#: tier-1 runs a small profile of each property
PROFILE = settings(deadline=None, max_examples=60)


@st.composite
def relay_specs(draw, fingerprints):
    """Attributes of one relay per fingerprint, drawn independently."""
    specs = {}
    for fp in fingerprints:
        flags = {Flag.VALID}
        for flag in (Flag.GUARD, Flag.EXIT, Flag.BADEXIT):
            if draw(st.booleans()):
                flags.add(flag)
        if draw(st.integers(0, 5)):  # mostly running
            flags.add(Flag.RUNNING)
        family = draw(st.sets(st.sampled_from(fingerprints + STRANGERS), max_size=2))
        specs[fp] = dict(
            # four /16s for up to ten relays: shared networks are common
            address=f"10.{draw(st.integers(0, 3))}.{draw(st.integers(0, 255))}.1",
            bandwidth=draw(st.sampled_from((0, 1, 50, 300, 1000, 7777))),
            flags=frozenset(flags),
            family=frozenset(family - {fp}),
            exit_policy=draw(st.sampled_from(POLICIES)),
        )
    return specs


@st.composite
def consensuses(draw, fingerprints):
    relays = [
        Relay(fingerprint=fp, nickname=f"n{fp}", or_port=9001, **spec)
        for fp, spec in draw(relay_specs(fingerprints)).items()
    ]
    draw(st.randoms(use_true_random=False)).shuffle(relays)
    weights = None
    if draw(st.booleans()):
        weights = BandwidthWeights(*draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)))
    return Consensus(relays, weights=weights)


@st.composite
def two_days(draw):
    """Two consensuses over overlapping fingerprints: a relay of day two
    may share a fingerprint with a day-one relay but have another address
    or family."""
    n = draw(st.integers(1, 10))
    everyone = [f"R{i}" for i in range(n + 3)]
    day1 = draw(consensuses(everyone[:n]))
    day2 = draw(consensuses(everyone[3:]))
    return day1, day2


def predicates():
    allowed = st.frozensets(st.sampled_from([f"R{i}" for i in range(13)]))
    return st.one_of(
        st.none(),
        st.sampled_from(DESTINATIONS).map(lambda d: lambda r: r.supports_exit_to(*d)),
        allowed.map(lambda fps: lambda r: r.fingerprint in fps),
    )


def constraint_sets():
    return st.builds(PathConstraints, distinct_slash16=st.booleans(), distinct_family=st.booleans())


def zero_draw_days():
    """Day two's only guard weight is so small that ``uniform(0, total)``
    draws 0.0, and a running relay of zero weight comes before it."""
    up = frozenset({Flag.RUNNING, Flag.VALID})
    guard = up | {Flag.GUARD}
    day1 = Consensus([Relay("R0", "n0", "10.0.0.1", 9001, 1, guard)])
    day2 = Consensus(
        [
            Relay("R8", "n8", "10.1.0.1", 9001, 0, up),
            Relay("R4", "n4", "10.2.0.1", 9001, 1, guard),
        ],
        weights=BandwidthWeights(5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    )
    return day1, day2


class RecordingRandom(random.Random):
    """Records the bounds of every ``uniform`` draw: the total weight."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def uniform(self, a, b):
        self.bounds.append((a, b))
        return super().uniform(a, b)


def same_circuit(a, b):
    if a is None or b is None:
        return a is None and b is None
    return all(x is y for x, y in zip(a.relays, b.relays))


class TestIndexedPickMatchesScan:
    @PROFILE
    @given(
        days=two_days(),
        position=st.sampled_from(POSITIONS),
        choose_exclusions=st.randoms(use_true_random=False),
        predicate=predicates(),
        constraints=constraint_sets(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pick(self, days, position, choose_exclusions, predicate, constraints, seed):
        day1, day2 = days
        pool = list(day1.relays) + list(day2.relays)
        exclude = choose_exclusions.sample(pool, choose_exclusions.randrange(min(4, len(pool) + 1)))
        indexed_rng, scan_rng = RecordingRandom(seed), RecordingRandom(seed)
        for _ in range(3):
            got = PathSelector(day1, indexed_rng, constraints).pick(position, exclude, predicate)
            want = scan_pick(PathSelector(day1, scan_rng, constraints), position, exclude, predicate)
            assert got is want
            assert indexed_rng.getstate() == scan_rng.getstate()
            assert indexed_rng.bounds == scan_rng.bounds

    @PROFILE
    @given(
        days=two_days(),
        destination=st.one_of(st.none(), st.sampled_from(DESTINATIONS)),
        pin=st.booleans(),
        allowed=st.frozensets(st.sampled_from([f"R{i}" for i in range(13)])),
        constraints=constraint_sets(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_build_circuit_with_filter(self, days, destination, pin, allowed, constraints, seed):
        day1, day2 = days
        guard = day2.relays[seed % len(day2)] if pin else None
        constraints = PathConstraints(
            distinct_slash16=constraints.distinct_slash16,
            distinct_family=constraints.distinct_family,
            circuit_filter=lambda c: c.middle.fingerprint in allowed,
        )
        circuits = []
        states = []
        for reference in (False, True):
            rng = random.Random(seed)
            selector = PathSelector(day1, rng, constraints, max_attempts=4)
            with scan_selection() if reference else nullcontext():
                circuits.append(selector.build_circuit(guard, destination))
            states.append(rng.getstate())
        assert same_circuit(*circuits)
        assert states[0] == states[1]

    @PROFILE
    @given(
        days=two_days(),
        num_guards=st.integers(1, 3),
        rotation_days=st.sampled_from((1.0, 30.0)),
        constraints=constraint_sets(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        days=zero_draw_days(),
        num_guards=1,
        rotation_days=1.0,
        constraints=PathConstraints(distinct_slash16=False, distinct_family=False),
        seed=0,
    )
    def test_guard_fill_and_rotation(self, days, num_guards, rotation_days, constraints, seed):
        day1, day2 = days
        histories = []
        for reference in (False, True):
            rng = random.Random(seed)
            with scan_selection() if reference else nullcontext():
                manager = GuardManager(
                    day1, rng, num_guards=num_guards, rotation_days=rotation_days,
                    constraints=constraints,
                )
                history = [manager.guards]
                # Day two's directory: surviving guards come from day one
                # and are excluded while the set refills from day two.
                for now, consensus in ((DAY, day2), (3 * DAY, day2), (5 * DAY, day1)):
                    manager.consensus = consensus
                    history.append(manager.current_guards(now))
            histories.append((history, rng.getstate()))
        (got, got_state), (want, want_state) = histories
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert len(a) == len(b) and all(x is y for x, y in zip(a, b))
        assert got_state == want_state

    @PROFILE
    @given(days=two_days())
    def test_weights_equal_position_weight(self, days):
        for consensus in days:
            index = relay_index(consensus)
            for position in POSITIONS:
                weights = index.weights(position)
                assert len(weights) == len(consensus)
                for relay, weight in zip(consensus.relays, weights):
                    assert weight == consensus.position_weight(relay, position)
                assert [consensus.relays[i] for i in index.eligible(position)] == [
                    r for r, w in zip(consensus.relays, weights) if w > 0.0
                ]


class TestRelayIndex:
    def consensus(self):
        return Consensus(
            [
                Relay("A", "a", "10.0.0.1", 9001, 100, frozenset({Flag.RUNNING, Flag.GUARD})),
                Relay("B", "b", "10.0.9.9", 9001, 100, frozenset({Flag.RUNNING}), family=frozenset({"A"})),
                Relay("C", "c", "10.1.0.1", 9001, 100, frozenset({Flag.RUNNING, Flag.EXIT})),
                Relay("D", "d", "10.2.0.1", 9001, 100, frozenset({Flag.GUARD})),
            ]
        )

    def test_cached_per_consensus_object(self):
        consensus = self.consensus()
        assert relay_index(consensus) is relay_index(consensus)
        assert relay_index(self.consensus()) is not relay_index(consensus)

    def test_index_does_not_keep_its_consensus_alive(self):
        consensus = self.consensus()
        relay_index(consensus).conflicts([consensus.relay("A")])
        alive = weakref.ref(consensus)
        del consensus
        gc.collect()
        assert alive() is None

    def test_unknown_position_rejected(self):
        with pytest.raises(ValueError, match="unknown position"):
            relay_index(self.consensus()).weights("rendezvous")

    def test_non_running_relay_has_no_weight(self):
        index = relay_index(self.consensus())
        assert index.weights(Position.GUARD)[3] == 0.0
        assert index.eligible(Position.GUARD) == (0,)

    def test_churn_series_weights_equal_position_weight(self, small_scenario):
        """Churned days reuse their relays' flag objects, so the per-flag-set
        factors are shared keys; every weight still equals the relay's own."""
        series = evolve_consensus(small_scenario.consensus, 4, ChurnConfig(seed=2))
        relays = [r for consensus in series for r in consensus.relays]
        assert len({id(r.flags) for r in relays}) < len(relays)
        for consensus in series:
            index = relay_index(consensus)
            for position in POSITIONS:
                want = array("d", [consensus.position_weight(r, position) for r in consensus.relays])
                assert index.weights(position).tobytes() == want.tobytes()

    def test_weighting_builds_no_address_or_family_lookups(self):
        index = relay_index(self.consensus())
        index.weights(Position.GUARD)
        index.eligible(Position.EXIT)
        assert index._by_slash16 is None
        assert index._by_fingerprint is None
        assert index._family_listers is None

    def test_conflicts_read_the_excluded_relay_itself(self):
        consensus = self.consensus()
        index = relay_index(consensus)
        # Another day's "C": same fingerprint, A's /16, lists D as family.
        other_c = Relay(
            "C", "c", "10.0.5.5", 9001, 100, frozenset({Flag.RUNNING}), family=frozenset({"D"})
        )
        assert index.conflicts([other_c]) == {0, 1, 2, 3}
        assert index.conflicts([other_c], distinct_slash16=False) == {2, 3}
        assert index.conflicts([other_c], distinct_family=False) == {0, 1, 2}
        # Family in both directions: B lists A, so excluding A rules out B
        # and excluding B rules out A.
        assert index.conflicts([consensus.relay("A")], distinct_slash16=False) == {0, 1}
        assert index.conflicts([consensus.relay("B")], distinct_slash16=False) == {0, 1}
        assert index.conflicts([]) == set()

    def test_pick_skips_conflicting_relays(self):
        consensus = self.consensus()
        selector = PathSelector(consensus, random.Random(1))
        # A and B share a /16 and a family, so only C is left as exit
        # once A is the guard, and no middle remains.
        assert selector.pick(Position.EXIT, exclude=[consensus.relay("A")]).fingerprint == "C"
        assert selector.pick(
            Position.MIDDLE, exclude=[consensus.relay("A"), consensus.relay("C")]
        ) is None
