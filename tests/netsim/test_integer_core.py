"""The integer IPv4 core, held to the stdlib ``ipaddress`` module.

``repro.netsim.addressing`` parses and formats addresses itself, so
that ``ipaddress`` stays off the runtime path.  Here ``ipaddress`` is
the oracle: ``ip_to_int`` must accept exactly the strings
``IPv4Address(str)`` accepts, with the same value, and reject the rest
with ``AddressError``; ``int_to_ip`` must spell every 32-bit integer
as ``IPv4Address`` does; and ``is_bogon`` must agree with membership
in the ``ip_network`` of every prefix in ``BOGON_PREFIXES``.
"""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import int_to_ip, ip_to_int, is_bogon, is_valid_ip
from repro.netsim.addressing import BOGON_PREFIXES
from repro.netsim.errors import AddressError

#: Octets ``ipaddress`` rejects: leading zeros, out of range,
#: whitespace, signs, an underscore, non-ASCII digits, empty, hex, and
#: a prefix length riding on an octet.
ADVERSARIAL_OCTETS = ("00", "01", "010", "256", "999", "1000", " 1", "1 ",
                      "+1", "-1", "1_0", "١", "１", "", "0x1",
                      "4/24", "1/", "/8")

canonical_octets = st.integers(min_value=0, max_value=255).map(str)
octets = st.one_of(
    canonical_octets,
    canonical_octets,
    st.sampled_from(ADVERSARIAL_OCTETS),
    st.text(alphabet="0123456789 +-_x/.", max_size=4),
)
#: Mostly four octets, the shape that can parse; sometimes fewer or more.
dotted = st.one_of(
    st.lists(octets, min_size=4, max_size=4),
    st.lists(octets, max_size=6),
).map(".".join)

BOGON_NETWORKS = tuple(ipaddress.ip_network(p) for p in BOGON_PREFIXES)


def oracle_value(text):
    try:
        return int(ipaddress.IPv4Address(text))
    except ValueError:
        return None


def core_value(text):
    try:
        return ip_to_int(text)
    except AddressError:
        return None


def assert_core_matches_oracle(text):
    expected = oracle_value(text)
    assert core_value(text) == expected, repr(text)
    assert is_valid_ip(text) is (expected is not None), repr(text)


class TestParsing:
    @settings(max_examples=500)
    @given(st.text())
    def test_arbitrary_strings(self, text):
        assert_core_matches_oracle(text)

    @settings(max_examples=1000)
    @given(dotted)
    def test_quads_of_adversarial_octets(self, text):
        assert_core_matches_oracle(text)

    def test_each_adversarial_octet_in_each_position(self):
        for octet in ADVERSARIAL_OCTETS:
            for position in range(4):
                parts = ["10", "0", "0", "1"]
                parts[position] = octet
                text = ".".join(parts)
                assert_core_matches_oracle(text)
                assert not is_valid_ip(text), repr(text)

    def test_slash_rejected(self):
        for text in ("1.2.3.4/32", "1.2.3.4/", "/1.2.3.4", "0.0.0.0/0"):
            assert_core_matches_oracle(text)
            with pytest.raises(AddressError):
                ip_to_int(text)

    def test_only_strings_parse(self):
        for value in (None, 1, 3.0, b"1.2.3.4", ["1", "2", "3", "4"]):
            with pytest.raises(AddressError):
                ip_to_int(value)
            assert not is_valid_ip(value)


class TestFormatting:
    @settings(max_examples=1000)
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_full_32_bit_range(self, value):
        assert int_to_ip(value) == str(ipaddress.IPv4Address(value))

    def test_edges(self):
        for value in (0, 1, 255, 256, 0x7FFFFFFF, 0x80000000,
                      0xFFFFFFFE, 0xFFFFFFFF):
            assert int_to_ip(value) == str(ipaddress.IPv4Address(value))

    @given(st.one_of(st.integers(max_value=-1),
                     st.integers(min_value=1 << 32)))
    def test_out_of_range_rejected(self, value):
        with pytest.raises(AddressError):
            int_to_ip(value)


def in_bogon_network(value):
    address = ipaddress.IPv4Address(value)
    return any(address in network for network in BOGON_NETWORKS)


#: Addresses in and around each bogon prefix, where a wrong mask shows.
near_bogons = st.sampled_from(BOGON_NETWORKS).flatmap(
    lambda net: st.integers(
        min_value=max(int(net.network_address) - 2, 0),
        max_value=min(int(net.broadcast_address) + 2, 0xFFFFFFFF)))


class TestBogons:
    @settings(max_examples=1000)
    @given(st.one_of(st.integers(min_value=0, max_value=0xFFFFFFFF),
                     near_bogons))
    def test_matches_ip_network_membership(self, value):
        assert is_bogon(int_to_ip(value)) is in_bogon_network(value)

    def test_every_prefix_edge(self):
        for network in BOGON_NETWORKS:
            first = int(network.network_address)
            last = int(network.broadcast_address)
            for value in (first - 1, first, first + 1,
                          last - 1, last, last + 1):
                if 0 <= value <= 0xFFFFFFFF:
                    assert is_bogon(int_to_ip(value)) is \
                        in_bogon_network(value), (network, value)

    def test_rejects_what_it_cannot_parse(self):
        with pytest.raises(AddressError):
            is_bogon("010.0.0.1")
