"""Packet model unit tests."""

from repro.netsim import (
    IcmpType,
    Network,
    Packet,
    TCPFlags,
    TCPSegment,
    make_dest_unreachable,
    make_tcp_packet,
    make_time_exceeded,
    make_udp_packet,
)


class TestTCPSegment:
    def test_flag_helpers(self):
        segment = TCPSegment(1, 2, flags=TCPFlags.SYN | TCPFlags.ACK)
        assert segment.has(TCPFlags.SYN)
        assert segment.has(TCPFlags.ACK)
        assert not segment.has(TCPFlags.RST)

    def test_seg_len_counts_syn_and_fin(self):
        assert TCPSegment(1, 2, flags=TCPFlags.SYN).seg_len == 1
        assert TCPSegment(1, 2, flags=TCPFlags.FIN,
                          payload=b"abc").seg_len == 4
        assert TCPSegment(1, 2, payload=b"abc").seg_len == 3

    def test_describe(self):
        text = TCPSegment(1, 2, seq=10, ack=20,
                          flags=TCPFlags.SYN | TCPFlags.ACK).describe()
        assert "SYN" in text and "ACK" in text
        assert "seq=10" in text


class TestPacket:
    def test_protocol_properties(self):
        tcp = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        udp = make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"x")
        icmp = make_time_exceeded("3.3.3.3", tcp)
        assert tcp.is_tcp and not tcp.is_udp and not tcp.is_icmp
        assert udp.is_udp
        assert icmp.is_icmp

    def test_wrong_accessor_raises(self):
        packet = make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"x")
        try:
            packet.tcp
            assert False, "expected TypeError"
        except TypeError:
            pass

    def test_clone_is_independent(self):
        original = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2,
                                   payload=b"data", ttl=10)
        copy = original.clone()
        copy.ttl -= 1
        copy.tcp.seq = 999
        assert original.ttl == 10
        assert original.tcp.seq == 0
        assert copy.ip_id == original.ip_id

    def test_flow_key(self):
        tcp = make_tcp_packet("1.1.1.1", "2.2.2.2", 10, 80)
        assert tcp.flow_key() == ("tcp", "1.1.1.1", 10, "2.2.2.2", 80)
        udp = make_udp_packet("1.1.1.1", "2.2.2.2", 10, 53, b"")
        assert udp.flow_key()[0] == "udp"

    def test_ip_ids_distinct_by_default(self):
        """A packet is numbered as it enters a network, from that
        network's counter."""
        net = Network()
        host = net.add_host("h", "1.1.1.1")
        packets = [make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"")
                   for _ in range(50)]
        assert {packet.ip_id for packet in packets} == {None}
        for packet in packets:
            host.send_packet(packet)
        assert len({packet.ip_id for packet in packets}) == 50

    def test_explicit_ip_id(self):
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, ip_id=242)
        assert packet.ip_id == 242

    def test_describe_lines(self):
        tcp = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 80,
                              flags=TCPFlags.SYN)
        assert "1.1.1.1 > 2.2.2.2" in tcp.describe()
        assert "TCP 1->80" in tcp.describe()


class TestIcmpConstruction:
    def test_time_exceeded_embeds_original(self):
        probe = make_udp_packet("1.1.1.1", "2.2.2.2", 4000, 33434, b"p",
                                ttl=1)
        reply = make_time_exceeded("9.9.9.9", probe)
        assert reply.src == "9.9.9.9"
        assert reply.dst == "1.1.1.1"
        assert reply.icmp.icmp_type == IcmpType.TIME_EXCEEDED
        assert reply.icmp.original.udp.src_port == 4000

    def test_dest_unreachable_code(self):
        probe = make_udp_packet("1.1.1.1", "2.2.2.2", 4000, 9, b"p")
        reply = make_dest_unreachable("2.2.2.2", probe, code=3)
        assert reply.icmp.icmp_type == IcmpType.DEST_UNREACHABLE
        assert reply.icmp.code == 3
