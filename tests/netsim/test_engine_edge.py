"""Engine edge cases: errors, loop protection, middlebox verdicts."""

import pytest

from repro.netsim import (
    CONSUMED,
    DROP,
    FORWARD,
    Network,
    Prefix,
    SimulationError,
    UnknownNodeError,
    make_udp_packet,
)
from repro.netsim.errors import RoutingError


class TestTopologyErrors:
    def test_duplicate_node_name(self):
        net = Network()
        net.add_host("a", "10.0.0.1")
        with pytest.raises(SimulationError):
            net.add_host("a", "10.0.0.2")

    def test_duplicate_ip(self):
        net = Network()
        net.add_host("a", "10.0.0.1")
        with pytest.raises(SimulationError):
            net.add_host("b", "10.0.0.1")

    def test_link_unknown_node(self):
        net = Network()
        net.add_host("a", "10.0.0.1")
        with pytest.raises(UnknownNodeError):
            net.link("a", "ghost")

    def test_node_lookup_unknown(self):
        with pytest.raises(UnknownNodeError):
            Network().node("ghost")

    def test_call_at_in_past(self):
        net = Network()
        net.run(until=5.0)
        with pytest.raises(SimulationError):
            net.call_at(1.0, lambda: None)


class TestRouting:
    def test_path_to_unknown_ip(self):
        net = Network()
        host = net.add_host("a", "10.0.0.1")
        with pytest.raises(RoutingError):
            net.path_to(host, "9.9.9.9")

    def test_path_to_disconnected(self):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        net.add_host("b", "10.0.0.2")  # no link
        with pytest.raises(RoutingError):
            net.path_to(a, "10.0.0.2")

    def test_path_to_self(self):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        assert net.path_to(a, "10.0.0.1") == [a]

    def test_hop_count(self):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        net.add_router("r", "10.0.0.254")
        b = net.add_host("b", "10.0.0.2")
        net.link("a", "r")
        net.link("r", "b")
        assert net.hop_count(a, b.ip) == 2

    def test_dist_cache_invalidated_on_new_link(self):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        net.add_router("r1", "10.0.1.1")
        net.add_router("r2", "10.0.1.2")
        b = net.add_host("b", "10.0.0.2")
        net.link("a", "r1")
        net.link("r1", "r2")
        net.link("r2", "b")
        assert net.hop_count(a, b.ip) == 3
        # A shortcut appears; the cached distances must be rebuilt.
        net.link("r1", "b", delay=0.001)
        assert net.hop_count(a, b.ip) == 2

    @staticmethod
    def _chain(n_routers):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.0.0.2")
        prev = "a"
        for i in range(n_routers):
            net.add_router(f"r{i}", f"10.1.{i}.1")
            net.link(prev, f"r{i}")
            prev = f"r{i}"
        net.link(prev, "b")
        return net, a, b

    def test_path_longer_than_64_hops_raises(self):
        net, a, b = self._chain(70)
        for _ in range(2):  # nothing cached by the failed walk
            with pytest.raises(RoutingError, match="exceeds 64 hops"):
                net.path_to(a, b.ip)

    def test_path_of_63_hops_is_the_longest_walked(self):
        net, a, b = self._chain(62)
        assert net.hop_count(a, b.ip) == 63
        net, a, b = self._chain(63)
        with pytest.raises(RoutingError, match="exceeds 64 hops"):
            net.hop_count(a, b.ip)


class TestEventBudget:
    def test_runaway_loop_detected(self):
        net = Network()

        def rearm():
            net.call_later(0.0, rearm)

        net.call_later(0.0, rearm)
        with pytest.raises(SimulationError):
            net.run_until_idle(max_events=1000)


class TestMiddleboxVerdicts:
    def build(self, verdict):
        net = Network()
        client = net.add_host("c", "10.0.0.1")
        server = net.add_host("s", "10.0.0.2")
        router = net.add_router("r", "10.0.0.254")
        net.link("c", "r")
        net.link("r", "s")

        class Box:
            def __init__(self):
                self.seen = 0

            def attach(self, router):
                self.router = router

            def process(self, packet, now, router):
                self.seen += 1
                return verdict

        box = Box()
        router.attach_inline(box)
        return net, client, server, box

    def test_forward(self):
        net, client, server, box = self.build(FORWARD)
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        # The probe plus the server's ICMP port-unreachable reply.
        assert box.seen >= 1
        assert server.capture.filter(direction="rx")

    def test_drop(self):
        net, client, server, box = self.build(DROP)
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        assert not server.capture.filter(direction="rx")
        assert any("inline-drop" in reason for _, reason, _ in net.drops)

    def test_consumed(self):
        net, client, server, box = self.build(CONSUMED)
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        assert not server.capture.filter(direction="rx")

    def test_bad_verdict_raises(self):
        net, client, server, box = self.build("maybe")
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        with pytest.raises(SimulationError):
            net.run_until_idle()

    def test_double_inline_attach_rejected(self):
        net, client, server, box = self.build(FORWARD)
        with pytest.raises(ValueError):
            net.node("r").attach_inline(box)


class TestSourceScopedEcmp:
    def test_flow_symmetry(self):
        """Forward and reverse paths of one flow traverse the same
        routers — the property middlebox flow-tracking needs."""
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.9.0.1")
        net.add_router("left", "10.1.0.1")
        for i in (1, 2, 3):
            net.add_router(f"mid{i}", f"10.2.0.{i}")
        net.add_router("right", "10.3.0.1")
        net.link("a", "left")
        for i in (1, 2, 3):
            net.link("left", f"mid{i}")
            net.link(f"mid{i}", "right")
        net.link("right", "b")
        forward = [n.name for n in net.path_to(a, b.ip, src_ip=a.ip)]
        reverse = [n.name for n in net.path_to(b, a.ip, src_ip=b.ip)]
        assert forward == list(reversed(reverse))
