"""Wiretap middlebox behaviour — Figure 4 end to end."""

from repro.httpsim import fetch_url
from repro.middlebox import (
    WiretapMiddlebox,
    looks_like_block_page,
    profile_for,
)
from repro.netsim import TCPFlags

from .conftest import ALLOWED, ALLOWED_BODY, BLOCKED, BLOCKED_BODY


def make_wm(spec, **kwargs):
    defaults = dict(miss_rate=0.0, seed=7)
    defaults.update(kwargs)
    return WiretapMiddlebox("wm-test", "airtel", spec,
                            profile_for("airtel"), **defaults)


class TestCensoredFetch:
    def test_client_receives_block_page(self, world, spec):
        world.attach_tap(make_wm(spec))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert result.ok
        assert result.first_response.status == 200
        assert looks_like_block_page(result.first_response.body)
        assert result.got_fin

    def test_block_page_carries_airtel_fingerprint(self, world, spec):
        world.attach_tap(make_wm(spec))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert b"www.airtel.in/dot" in result.first_response.body

    def test_request_still_reaches_origin(self, world, spec):
        """A wiretap only copies; the GET is not blocked (Figure 4)."""
        world.attach_tap(make_wm(spec))
        fetch_url(world.net, world.client, world.server_host.ip, BLOCKED)
        world.net.run_until_idle()
        assert any(req.host == BLOCKED
                   for _, _, req in world.server.request_log)

    def test_real_response_discarded_and_rst_sent(self, world, spec, armed):
        """The genuine response arrives after teardown; the client
        answers it with RST (section 4.2.1)."""
        world.attach_tap(make_wm(spec))
        armed(world.client)
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        world.net.run_until_idle()
        assert BLOCKED_BODY not in result.raw_stream
        client_rsts = world.client.capture.filter(
            direction="tx", dst=world.server_host.ip,
            with_flag=TCPFlags.RST)
        assert client_rsts, "client never reset the stale connection"

    def test_uncensored_fetch_unaffected(self, world, spec):
        world.attach_tap(make_wm(spec))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           ALLOWED)
        assert result.first_response.body == ALLOWED_BODY

    def test_trigger_logged(self, world, spec):
        box = world.attach_tap(make_wm(spec))
        fetch_url(world.net, world.client, world.server_host.ip, BLOCKED)
        assert box.stats.triggered == 1
        assert box.stats.by_domain == {BLOCKED: 1}


class TestAirtelIpIdQuirk:
    def test_injected_packets_carry_fixed_ip_id(self, world, spec, armed):
        world.attach_tap(make_wm(spec, fixed_ip_id=242))
        armed(world.client)
        fetch_url(world.net, world.client, world.server_host.ip, BLOCKED)
        injected = world.client.capture.filter(
            direction="rx", src=world.server_host.ip,
            predicate=lambda e: e.packet.ip_id == 242)
        # Notification (FIN) + follow-up RST, both with IP-ID 242.
        flags = [e.packet.tcp.flags for e in injected if e.packet.is_tcp]
        assert any(f & TCPFlags.FIN for f in flags)
        assert any(f & TCPFlags.RST for f in flags)

    def test_genuine_traffic_does_not_carry_242(self, world, spec, armed):
        world.attach_tap(make_wm(spec, fixed_ip_id=242))
        armed(world.client)
        fetch_url(world.net, world.client, world.server_host.ip, ALLOWED)
        data_packets = world.client.capture.filter(
            direction="rx", src=world.server_host.ip, tcp_only=True,
            predicate=lambda e: bool(e.packet.tcp.payload))
        assert data_packets
        assert all(e.packet.ip_id != 242 for e in data_packets)


class TestRace:
    def test_lost_race_renders_real_content(self, world, spec):
        """miss_rate=1: the box reacts too slowly, the page renders —
        the paper's '3 out of 10 attempts' behaviour at the limit."""
        world.attach_tap(make_wm(spec, miss_rate=1.0))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert result.first_response.body == BLOCKED_BODY
        world.net.run_until_idle()

    def test_miss_rate_fraction_roughly_holds(self, world, spec):
        box = world.attach_tap(make_wm(spec, miss_rate=0.3, seed=42))
        rendered = 0
        attempts = 30
        for _ in range(attempts):
            result = fetch_url(world.net, world.client,
                               world.server_host.ip, BLOCKED)
            if result.first_response is not None and \
                    result.first_response.body == BLOCKED_BODY:
                rendered += 1
            world.net.run_until_idle()
        assert 3 <= rendered <= 16, f"rendered {rendered}/{attempts}"
        assert box.stats.missed_race == rendered


class TestStatefulness:
    def test_get_without_handshake_ignored(self, world, spec):
        box = world.attach_tap(make_wm(spec))
        from repro.netsim import make_tcp_packet
        get = make_tcp_packet(
            world.client.ip, world.server_host.ip, 4242, 80,
            seq=1, ack=1, flags=TCPFlags.ACK | TCPFlags.PSH,
            payload=f"GET / HTTP/1.1\r\nHost: {BLOCKED}\r\n\r\n".encode(),
        )
        world.client.send_packet(get)
        world.net.run_until_idle()
        assert box.stats.triggered == 0
        assert box.stats.not_established >= 1

    def test_idle_flow_expires_and_request_passes(self, world, spec):
        """After 2-3 minutes idle the box forgets the flow; a GET on the
        old connection sails through to the origin."""
        box = world.attach_tap(make_wm(spec, flow_timeout=150.0))
        from repro.httpsim import GetRequestSpec
        from repro.netsim.tcp import TCPApp

        class Collector(TCPApp):
            def __init__(self):
                self.data = b""

            def on_data(self, conn, data):
                self.data += data

        app = Collector()
        conn = world.client.stack.connect(world.server_host.ip, 80, app)
        world.net.run_until_idle()
        assert conn.state == "ESTABLISHED"
        # Sit idle past the box's flow timeout.
        world.net.run(until=world.net.now + 200.0)
        conn.send(GetRequestSpec(domain=BLOCKED).to_bytes())
        world.net.run_until_idle()
        assert box.stats.triggered == 0
        assert BLOCKED_BODY in app.data


class TestSourceScoping:
    def test_out_of_scope_client_not_censored(self, world, spec):
        from repro.netsim import Prefix
        world.attach_tap(make_wm(
            spec, source_prefixes=[Prefix.parse("172.30.0.0/16")]))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert result.first_response.body == BLOCKED_BODY

    def test_in_scope_client_censored(self, world, spec):
        from repro.netsim import Prefix
        world.attach_tap(make_wm(
            spec, source_prefixes=[Prefix.parse("10.0.0.0/8")]))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert looks_like_block_page(result.first_response.body)
