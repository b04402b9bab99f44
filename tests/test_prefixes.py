"""Unit tests for IPv4 prefixes and the longest-prefix-match trie."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.analysis.prefixes import (
    Prefix,
    PrefixTrie,
    format_ip,
    map_relays_to_prefixes,
    parse_ip,
)


class TestParseFormat:
    def test_parse_roundtrip(self):
        for text in ("0.0.0.0", "255.255.255.255", "78.46.0.1", "10.0.0.1"):
            assert format_ip(parse_ip(text)) == text

    def test_parse_known_value(self):
        assert parse_ip("1.2.3.4") == (1 << 24) | (2 << 16) | (3 << 8) | 4

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", ""])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(1 << 32)
        with pytest.raises(ValueError):
            format_ip(-1)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        assert parse_ip(format_ip(value)) == value


class TestPrefix:
    def test_parse_and_str(self):
        p = Prefix.parse("78.46.0.0/15")
        assert str(p) == "78.46.0.0/15"
        assert p.length == 15

    def test_normalises_host_bits(self):
        a = Prefix.parse("10.1.2.3/24")
        b = Prefix.parse("10.1.2.0/24")
        assert a == b

    def test_mask_and_size(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.mask == 0xFFFFFF00
        assert p.num_addresses == 256
        assert Prefix.parse("0.0.0.0/0").num_addresses == 1 << 32

    def test_contains_ip(self):
        p = Prefix.parse("78.46.0.0/15")
        assert p.contains_ip(parse_ip("78.46.0.1"))
        assert p.contains_ip(parse_ip("78.47.255.255"))
        assert not p.contains_ip(parse_ip("78.48.0.0"))

    def test_contains_prefix(self):
        parent = Prefix.parse("10.0.0.0/8")
        child = Prefix.parse("10.5.0.0/16")
        assert parent.contains_prefix(child)
        assert not child.contains_prefix(parent)
        assert parent.contains_prefix(parent)

    def test_subprefix(self):
        p = Prefix.parse("10.0.0.0/16")
        assert p.subprefix(17, 0) == Prefix.parse("10.0.0.0/17")
        assert p.subprefix(17, 1) == Prefix.parse("10.0.128.0/17")
        with pytest.raises(ValueError):
            p.subprefix(15)
        with pytest.raises(ValueError):
            p.subprefix(17, 2)

    def test_nth_ip(self):
        p = Prefix.parse("10.0.0.0/30")
        assert format_ip(p.nth_ip(0)) == "10.0.0.0"
        assert format_ip(p.nth_ip(3)) == "10.0.0.3"
        with pytest.raises(ValueError):
            p.nth_ip(4)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0/-1")

    def test_ordering_is_total(self):
        prefixes = [Prefix.parse(s) for s in ("10.0.0.0/8", "9.0.0.0/8", "10.0.0.0/16")]
        assert sorted(prefixes) == sorted(prefixes, key=lambda p: (p.network, p.length))


class TestPrefixHash:
    """The hash is computed once but keeps the dataclass's value, so sets
    of prefixes iterate in the same order as before."""

    @given(
        network=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=0, max_value=32),
    )
    def test_hash_is_the_field_tuple_hash(self, network, length):
        prefix = Prefix(network, length)
        assert hash(prefix) == hash((prefix.network, prefix.length))

    def test_hash_follows_normalisation(self):
        prefix = Prefix(parse_ip("10.1.2.3"), 16)
        assert prefix == Prefix.parse("10.1.0.0/16")
        assert hash(prefix) == hash(Prefix.parse("10.1.0.0/16"))
        assert hash(prefix) == hash((parse_ip("10.1.0.0"), 16))

    def test_equality_and_ordering_read_the_fields_only(self):
        a, b = Prefix.parse("10.0.0.0/8"), Prefix.parse("10.0.0.0/16")
        assert a == Prefix.parse("10.0.0.0/8") and a != b
        assert a < b and sorted([b, a]) == [a, b]
        assert len({a, b, Prefix.parse("10.0.0.0/8")}) == 2

    def test_pickle_round_trip(self):
        prefixes = [Prefix.parse("78.46.0.0/15"), Prefix.parse("0.0.0.0/0")]
        for prefix in prefixes:
            back = pickle.loads(pickle.dumps(prefix))
            assert back == prefix and hash(back) == hash(prefix)
            assert back.network == prefix.network and back.length == prefix.length
        assert pickle.loads(pickle.dumps(set(prefixes))) == set(prefixes)


class TestPrefixTrie:
    def test_insert_get_remove(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "ten")
        assert len(trie) == 1
        assert p in trie
        assert trie.get(p) == "ten"
        assert trie.remove(p)
        assert p not in trie
        assert not trie.remove(p)
        assert len(trie) == 0

    def test_get_default(self):
        trie = PrefixTrie()
        assert trie.get(Prefix.parse("10.0.0.0/8"), default="missing") == "missing"

    def test_insert_replaces(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, 1)
        trie.insert(p, 2)
        assert trie.get(p) == 2
        assert len(trie) == 1

    def test_longest_match_prefers_most_specific(self):
        trie = PrefixTrie(
            {
                Prefix.parse("10.0.0.0/8"): "short",
                Prefix.parse("10.1.0.0/16"): "mid",
                Prefix.parse("10.1.2.0/24"): "long",
            }
        )
        match = trie.longest_match(parse_ip("10.1.2.3"))
        assert match is not None
        prefix, value = match
        assert value == "long"
        assert prefix == Prefix.parse("10.1.2.0/24")
        prefix, value = trie.longest_match(parse_ip("10.1.9.9"))
        assert value == "mid"
        prefix, value = trie.longest_match(parse_ip("10.9.9.9"))
        assert value == "short"

    def test_longest_match_miss(self):
        trie = PrefixTrie({Prefix.parse("10.0.0.0/8"): 1})
        assert trie.longest_match(parse_ip("11.0.0.1")) is None

    def test_default_route_matches_everything(self):
        trie = PrefixTrie({Prefix.parse("0.0.0.0/0"): "default"})
        assert trie.longest_match(parse_ip("200.1.2.3"))[1] == "default"

    def test_covering_prefixes_order(self):
        trie = PrefixTrie(
            {
                Prefix.parse("10.0.0.0/8"): 8,
                Prefix.parse("10.1.0.0/16"): 16,
                Prefix.parse("10.1.2.0/24"): 24,
            }
        )
        covering = trie.covering_prefixes(parse_ip("10.1.2.3"))
        assert [v for _p, v in covering] == [8, 16, 24]

    def test_items_roundtrip(self):
        mapping = {
            Prefix.parse("10.0.0.0/8"): 1,
            Prefix.parse("10.128.0.0/9"): 2,
            Prefix.parse("192.168.0.0/16"): 3,
        }
        trie = PrefixTrie(mapping)
        assert dict(trie.items()) == mapping

    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                st.integers(min_value=1, max_value=32),
            ).map(lambda t: Prefix(t[0], t[1])),
            st.integers(),
            max_size=40,
        ),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_longest_match_agrees_with_linear_scan(self, mapping, ip):
        trie = PrefixTrie(mapping)
        expected = None
        for prefix, value in mapping.items():
            if prefix.contains_ip(ip):
                if expected is None or prefix.length > expected[0].length:
                    expected = (prefix, value)
        got = trie.longest_match(ip)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == expected[0]
            # equal-length duplicates collapse in a dict, so values match too
            assert got[1] == expected[1]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                st.integers(min_value=0, max_value=32),
            ).map(lambda t: Prefix(t[0], t[1])),
            max_size=30,
        )
    )
    def test_size_tracks_distinct_prefixes(self, prefixes):
        trie = PrefixTrie()
        for p in prefixes:
            trie.insert(p)
        assert len(trie) == len(set(prefixes))


class TestRelayMapping:
    def test_maps_to_most_specific(self):
        announced = {
            Prefix.parse("78.46.0.0/15"): 100,
            Prefix.parse("78.46.1.0/24"): 200,
        }
        result = map_relays_to_prefixes(
            [("A", "78.46.1.5"), ("B", "78.47.0.1"), ("C", "9.9.9.9")], announced
        )
        assert result["A"] == (Prefix.parse("78.46.1.0/24"), 200)
        assert result["B"] == (Prefix.parse("78.46.0.0/15"), 100)
        assert "C" not in result  # uncovered relays dropped, as in the paper
