"""Property-based round-trip tests for every serialization format."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import UpdateRecord, UpdateStream
from repro.bgpsim.mrt import iter_records, write_records
from repro.tor.exitpolicy import ExitPolicy, PolicyRule

_prefixes = st.builds(
    Prefix,
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)

_paths = st.lists(
    st.integers(min_value=1, max_value=70_000), min_size=1, max_size=6, unique=True
).map(tuple)

_records = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        _prefixes,
        st.one_of(st.none(), _paths),
        st.booleans(),
    ),
    max_size=30,
)


class TestMrtRoundTripProperty:
    @settings(deadline=None, max_examples=40)
    @given(_records)
    def test_any_stream_roundtrips(self, raw):
        records = [
            UpdateRecord(t, p, path, from_reset=reset and path is not None)
            for t, p, path, reset in sorted(raw, key=lambda r: r[0])
        ]
        stream = UpdateStream(("rrc00", 7), records)
        buffer = io.StringIO()
        write_records(buffer, stream.session, stream)
        source = iter_records(io.StringIO(buffer.getvalue()))
        parsed = UpdateStream(source.session, list(source))
        assert parsed.session == stream.session
        assert len(parsed) == len(stream)
        for a, b in zip(parsed, stream):
            assert a.prefix == b.prefix
            assert a.as_path == b.as_path
            assert a.from_reset == b.from_reset
            assert a.time == pytest.approx(b.time, abs=1e-3)  # %.3f precision

    @settings(deadline=None, max_examples=40)
    @given(_records)
    def test_streaming_codec_roundtrips(self, raw):
        """iter_records(write_records(x)) == x for any record sequence."""
        records = [
            UpdateRecord(t, p, path, from_reset=reset and path is not None)
            for t, p, path, reset in sorted(raw, key=lambda r: r[0])
        ]
        buffer = io.StringIO()
        assert write_records(buffer, ("rrc00", 7), iter(records)) == len(records)
        buffer.seek(0)
        source = iter_records(buffer)
        assert source.session == ("rrc00", 7)
        parsed = list(source)
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            assert a.prefix == b.prefix
            assert a.as_path == b.as_path
            assert a.from_reset == b.from_reset
            assert a.time == pytest.approx(b.time, abs=1e-3)  # %.3f precision


_rule_tuples = st.tuples(
    st.booleans(),
    st.one_of(st.none(), _prefixes),
    st.integers(min_value=1, max_value=65535),
    st.integers(min_value=1, max_value=65535),
)


def _make_rules(raw_rules):
    return [
        PolicyRule(accept, prefix, min(lo, hi), max(lo, hi))
        for accept, prefix, lo, hi in raw_rules
    ]


class TestExitPolicyProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(_rule_tuples, min_size=1, max_size=8))
    def test_rule_roundtrip(self, raw_rules):
        policy = ExitPolicy(_make_rules(raw_rules))
        reparsed = ExitPolicy.parse(str(policy))
        assert reparsed == policy

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(_rule_tuples, min_size=1, max_size=6),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=1, max_value=65535),
    )
    def test_first_match_semantics(self, raw_rules, ip, port):
        rules = _make_rules(raw_rules)
        policy = ExitPolicy(rules)
        expected = False
        for rule in rules:
            if rule.matches(ip, port):
                expected = rule.accept
                break
        assert policy.allows(ip, port) is expected


class TestOnionProperties:
    @settings(deadline=None, max_examples=15)
    @given(
        st.binary(min_size=0, max_size=200),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    def test_outbound_roundtrip_any_payload(self, payload, hops, seed):
        from repro.tor.onion import circuit_handshake

        client, relays = circuit_handshake(
            random.Random(seed), [random.Random(seed + i + 1) for i in range(hops)]
        )
        cell = client.encrypt_outbound(payload)
        for i, relay in enumerate(relays):
            cell = relay.peel(cell)
            got = relay.recognise(cell)
            if i < len(relays) - 1:
                assert got is None
            else:
                assert got == payload

    @settings(deadline=None, max_examples=15)
    @given(st.binary(min_size=1, max_size=200), st.integers(min_value=0, max_value=500))
    def test_inbound_roundtrip_any_payload(self, payload, seed):
        from repro.tor.onion import circuit_handshake

        client, relays = circuit_handshake(
            random.Random(seed), [random.Random(seed + i + 9) for i in range(3)]
        )
        cell = relays[-1].seal(payload)
        for relay in reversed(relays):
            cell = relay.wrap(cell)
        assert client.decrypt_inbound(cell) == payload


class TestScenarioIxps:
    def test_deterministic_per_scenario(self, small_scenario):
        a = small_scenario.ixps(num_ixps=5)
        b = small_scenario.ixps(num_ixps=5)
        assert [(x.name, x.links) for x in a.ixps] == [(y.name, y.links) for y in b.ixps]
