"""Addressing utilities and packet capture."""

import pytest

from repro.netsim import (
    Capture,
    Network,
    Prefix,
    PrefixAllocator,
    TCPFlags,
    int_to_ip,
    ip_in_prefixes,
    ip_to_int,
    is_bogon,
    is_valid_ip,
    make_tcp_packet,
    make_udp_packet,
)
from repro.netsim.errors import AddressError


class TestAddressing:
    def test_known_conversions(self):
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("1.0.0.0") == 1 << 24
        assert int_to_ip(0xC0A80101) == "192.168.1.1"

    def test_invalid_ip_raises(self):
        for bad in ("256.1.1.1", "a.b.c.d", "1.2.3", ""):
            with pytest.raises(AddressError):
                ip_to_int(bad)
            assert not is_valid_ip(bad)

    def test_int_out_of_range(self):
        with pytest.raises(AddressError):
            int_to_ip(-1)
        with pytest.raises(AddressError):
            int_to_ip(1 << 32)

    def test_known_bogons(self):
        for bogon in ("10.1.2.3", "127.0.0.2", "192.168.9.9",
                      "169.254.1.1", "198.18.0.5", "240.0.0.1",
                      "100.64.0.1", "203.0.113.7"):
            assert is_bogon(bogon), bogon

    def test_known_non_bogons(self):
        for public in ("8.8.8.8", "182.64.0.1", "93.184.216.34",
                       "203.88.0.1", "198.160.0.10"):
            assert not is_bogon(public), public

    def test_prefix_parse_and_str(self):
        prefix = Prefix.parse("182.64.0.0/14")
        assert str(prefix) == "182.64.0.0/14"
        assert prefix.size == 1 << 18

    def test_prefix_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.1/24")

    def test_prefix_bad_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/33")

    def test_prefix_network_outside_ipv4_rejected(self):
        for network, length in ((-1, 32), (1 << 32, 0), (1 << 33, 8)):
            with pytest.raises(AddressError):
                Prefix(network, length)

    def test_prefix_contains_boundaries(self):
        prefix = Prefix.parse("10.1.0.0/24")
        assert prefix.contains("10.1.0.0")
        assert prefix.contains("10.1.0.255")
        assert not prefix.contains("10.1.1.0")
        assert not prefix.contains("10.0.255.255")

    def test_prefix_address_offset(self):
        prefix = Prefix.parse("10.1.0.0/30")
        assert prefix.address(3) == "10.1.0.3"
        with pytest.raises(AddressError):
            prefix.address(4)

    def test_prefix_subnets(self):
        prefix = Prefix.parse("10.0.0.0/24")
        subnets = prefix.subnets(26)
        assert len(subnets) == 4
        assert str(subnets[1]) == "10.0.0.64/26"
        with pytest.raises(AddressError):
            prefix.subnets(20)

    def test_ip_in_prefixes(self):
        prefixes = [Prefix.parse("10.0.0.0/8"), Prefix.parse("182.64.0.0/14")]
        assert ip_in_prefixes("182.65.3.4", prefixes)
        assert not ip_in_prefixes("9.9.9.9", prefixes)

    def test_allocator_exhaustion(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
        allocator.allocate(31)
        allocator.allocate(31)
        with pytest.raises(AddressError):
            allocator.allocate(32)

    def test_allocator_rejects_length_above_32(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(AddressError):
            allocator.allocate(33)
        # Nothing was claimed by the refusal.
        assert allocator.allocate_address() == "10.0.0.0"

    def test_allocator_alignment(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        allocator.allocate_address()          # 10.0.0.0/32
        aligned = allocator.allocate(24)      # must skip to 10.0.1.0
        assert str(aligned) == "10.0.1.0/24"


class TestCapture:
    @pytest.fixture
    def capture(self):
        capture = Capture()
        with capture.armed():
            capture.record(0.0, "h", "tx",
                           make_tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80,
                                           flags=TCPFlags.SYN))
            capture.record(0.1, "h", "rx",
                           make_tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000,
                                           flags=TCPFlags.SYN | TCPFlags.ACK))
            capture.record(0.2, "h", "rx",
                           make_udp_packet("3.3.3.3", "1.1.1.1", 53, 999,
                                           b"x"))
            capture.record(0.3, "h", "rx",
                           make_tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000,
                                           seq=7, flags=TCPFlags.RST))
            yield capture

    def test_direction_filter(self, capture):
        assert len(capture.filter(direction="tx")) == 1
        assert len(capture.filter(direction="rx")) == 3

    def test_flag_filter(self, capture):
        assert len(capture.filter(with_flag=TCPFlags.RST)) == 1
        assert len(capture.filter(with_flag=TCPFlags.SYN)) == 2

    def test_src_and_since_filters(self, capture):
        assert len(capture.filter(src="2.2.2.2")) == 2
        assert len(capture.filter(since=0.15)) == 2

    def test_tcp_only(self, capture):
        assert len(capture.filter(tcp_only=True)) == 3

    def test_disabled_capture_records_nothing(self):
        capture = Capture()  # disarmed until a reader opens a window
        capture.record(0.0, "h", "tx",
                       make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b""))
        assert capture.windows == 0
        assert len(capture) == 0

    def test_payload_stream_reassembly(self):
        capture = Capture()
        with capture.armed():
            for seq, chunk in [(100, b"hello "), (106, b"world"),
                               (100, b"hello ")]:  # duplicate ignored
                capture.record(0.0, "h", "rx",
                               make_tcp_packet("2.2.2.2", "1.1.1.1", 80,
                                               1000, seq=seq,
                                               flags=TCPFlags.ACK,
                                               payload=chunk))
            stream = capture.tcp_payload_stream("2.2.2.2", "1.1.1.1")
        assert stream == b"hello world"

    def test_describe_output(self, capture):
        text = capture.describe()
        assert "1.1.1.1" in text
        assert "SYN" in text

    def test_clear(self, capture):
        capture.clear()
        assert len(capture) == 0


class TestCaptureWindows:
    """A host records the packets it sends and receives only while a
    reader holds its capture open."""

    @pytest.fixture
    def pair(self):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.0.0.2")
        net.link("a", "b")

        def ping():
            a.send_packet(make_udp_packet(a.ip, b.ip, 1, 2, b"x"))
            net.run_until_idle()

        return a, b, ping

    def test_nothing_recorded_unarmed(self, pair):
        a, b, ping = pair
        ping()
        assert a.capture.windows == b.capture.windows == 0
        assert len(a.capture) == len(b.capture) == 0

    def test_armed_capture_records_tx_and_rx(self, pair):
        a, b, ping = pair
        with a.capture.armed(), b.capture.armed():
            ping()
            assert a.capture.filter(direction="tx", dst=b.ip)
            assert b.capture.filter(direction="rx", src=a.ip)

    def test_nested_windows_keep_entries_until_the_outermost_closes(
            self, pair):
        a, _, ping = pair
        with a.capture.armed():
            with a.capture.armed():
                ping()
            kept = len(a.capture)
            assert kept
            ping()
            assert len(a.capture) > kept
        assert a.capture.windows == 0
        assert len(a.capture) == 0

    def test_exception_disarms_and_empties(self, pair):
        a, _, ping = pair
        with pytest.raises(RuntimeError, match="reader failed"):
            with a.capture.armed():
                ping()
                assert len(a.capture)
                raise RuntimeError("reader failed")
        assert a.capture.windows == 0
        assert len(a.capture) == 0
        ping()
        assert len(a.capture) == 0
