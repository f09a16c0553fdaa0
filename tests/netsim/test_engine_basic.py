"""Basic forwarding, TTL and ICMP behaviour of the engine."""

import pytest

from repro.netsim import (
    Host,
    IcmpType,
    Network,
    Packet,
    Router,
    TCPFlags,
    make_udp_packet,
    traceroute,
)


def build_chain(n_routers=3, anonymize=()):
    """client -- r1 -- r2 -- ... -- rn -- server."""
    net = Network()
    client = net.add_host("client", "10.0.0.1")
    server = net.add_host("server", "10.9.0.1")
    prev = "client"
    for i in range(1, n_routers + 1):
        net.add_router(f"r{i}", f"10.1.0.{i}", anonymized=(i in anonymize))
        net.link(prev, f"r{i}")
        prev = f"r{i}"
    net.link(prev, "server")
    return net, client, server


class TestForwarding:
    def test_udp_packet_reaches_destination(self, armed):
        net, client, server = build_chain()
        armed(server)
        packet = make_udp_packet(client.ip, server.ip, 1234, 5678, b"hello")
        client.send_packet(packet)
        net.run_until_idle()
        received = server.capture.filter(direction="rx")
        assert any(
            e.packet.is_udp and e.packet.udp.payload == b"hello"
            for e in received
        )

    def test_ttl_decremented_per_router(self, armed):
        net, client, server = build_chain(n_routers=3)
        armed(server)
        packet = make_udp_packet(client.ip, server.ip, 1234, 5678, b"x", ttl=64)
        client.send_packet(packet)
        net.run_until_idle()
        rx = server.capture.filter(direction="rx")
        udp_rx = [e for e in rx if e.packet.is_udp]
        assert udp_rx[0].packet.ttl == 61

    def test_packet_to_unknown_ip_is_dropped(self):
        net, client, _ = build_chain()
        packet = make_udp_packet(client.ip, "203.0.113.99", 1, 2, b"x")
        client.send_packet(packet)
        net.run_until_idle()
        assert any(reason == "no-route" for _, reason, _ in net.drops)

    def test_loopback_delivery(self):
        net, client, _ = build_chain()
        got = []
        client.bind_udp(7, lambda host, pkt, now: got.append(pkt.udp.payload))
        packet = make_udp_packet(client.ip, client.ip, 9, 7, b"self")
        client.send_packet(packet)
        net.run_until_idle()
        assert got == [b"self"]


class TestTTLExpiry:
    def test_expiry_generates_time_exceeded(self, armed):
        net, client, server = build_chain(n_routers=3)
        armed(client)
        packet = make_udp_packet(client.ip, server.ip, 1234, 5678, b"x", ttl=2)
        client.send_packet(packet)
        net.run_until_idle()
        icmp_rx = [
            e for e in client.capture.filter(direction="rx")
            if e.packet.is_icmp
            and e.packet.icmp.icmp_type == IcmpType.TIME_EXCEEDED
        ]
        assert len(icmp_rx) == 1
        # TTL=2 expires at the second router.
        assert icmp_rx[0].packet.src == "10.1.0.2"

    def test_anonymized_router_stays_silent(self, armed):
        net, client, server = build_chain(n_routers=3, anonymize={2})
        armed(client)
        packet = make_udp_packet(client.ip, server.ip, 1234, 5678, b"x", ttl=2)
        client.send_packet(packet)
        net.run_until_idle()
        icmp_rx = [
            e for e in client.capture.filter(direction="rx") if e.packet.is_icmp
        ]
        assert icmp_rx == []
        assert client.capture.filter(direction="tx")

    def test_packet_with_ttl_longer_than_path_arrives(self, armed):
        net, client, server = build_chain(n_routers=3)
        armed(server)
        packet = make_udp_packet(client.ip, server.ip, 1, 2, b"x", ttl=4)
        client.send_packet(packet)
        net.run_until_idle()
        assert any(
            e.packet.is_udp for e in server.capture.filter(direction="rx")
        )


class TestTraceroute:
    def test_full_path_discovered(self):
        net, client, server = build_chain(n_routers=4)
        result = traceroute(net, client, server.ip)
        assert result.reached
        assert result.hop_count == 5
        assert result.hops == ["10.1.0.1", "10.1.0.2", "10.1.0.3", "10.1.0.4"]

    def test_anonymized_hops_are_none(self):
        net, client, server = build_chain(n_routers=4, anonymize={3})
        result = traceroute(net, client, server.ip)
        assert result.reached
        assert result.hops[2] is None
        assert result.asterisks == 1

    def test_tcp_traceroute_reaches_destination(self):
        net, client, server = build_chain(n_routers=2)
        result = traceroute(net, client, server.ip, proto="tcp")
        assert result.reached
        assert result.hop_count == 3


class TestECMP:
    def build_diamond(self):
        """client -- edge -- {a1, a2, a3} -- border -- many-IP server."""
        net = Network()
        client = net.add_host("client", "10.0.0.1")
        net.add_router("edge", "10.1.0.1")
        for i in (1, 2, 3):
            net.add_router(f"agg{i}", f"10.2.0.{i}")
        net.add_router("border", "10.3.0.1")
        farm = net.add_host("farm", "198.200.0.1")
        for i in range(2, 60):
            farm.add_ip(f"198.200.0.{i}")
        net.link("client", "edge")
        for i in (1, 2, 3):
            net.link("edge", f"agg{i}")
            net.link(f"agg{i}", "border")
        net.link("border", "farm")
        return net, client, farm

    def test_paths_vary_by_destination_ip(self):
        net, client, farm = self.build_diamond()
        used_aggs = set()
        for ip in farm.ips:
            path = net.path_to(client, ip)
            agg = path[2].name
            assert agg.startswith("agg")
            used_aggs.add(agg)
        assert used_aggs == {"agg1", "agg2", "agg3"}

    def test_path_is_deterministic(self):
        net, client, farm = self.build_diamond()
        first = [n.name for n in net.path_to(client, "198.200.0.17")]
        again = [n.name for n in net.path_to(client, "198.200.0.17")]
        assert first == again

    def test_forwarding_follows_computed_path(self, armed):
        net, client, farm = self.build_diamond()
        armed(farm)
        for ip in list(farm.ips)[:10]:
            expected_hops = len(net.path_to(client, ip)) - 1
            probe = make_udp_packet(client.ip, ip, 5, 6, b"x", ttl=64)
            client.send_packet(probe)
            net.run_until_idle()
            rx = [e for e in farm.capture.filter(direction="rx")
                  if e.packet.is_udp and e.packet.dst == ip]
            assert rx, f"probe to {ip} not delivered"
            # TTL decremented once per router on the computed path.
            assert rx[-1].packet.ttl == 64 - (expected_hops - 1)
            farm.capture.clear()


class TestEventQueue:
    def test_clock_advances_to_until_when_idle(self):
        net = Network()
        net.run(until=5.0)
        assert net.now == 5.0

    def test_call_later_ordering(self):
        net = Network()
        order = []
        net.call_later(0.2, lambda: order.append("b"))
        net.call_later(0.1, lambda: order.append("a"))
        net.call_later(0.3, lambda: order.append("c"))
        net.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        net = Network()
        with pytest.raises(Exception):
            net.call_later(-1.0, lambda: None)
