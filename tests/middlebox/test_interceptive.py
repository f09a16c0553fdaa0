"""Interceptive middlebox behaviour — Figure 3 end to end."""

import pytest

from repro.httpsim import GetRequestSpec, fetch_url, http_fetch
from repro.middlebox import (
    COVERT,
    FORGED_RST_SEQ_OFFSET,
    InterceptiveMiddlebox,
    OVERT,
    looks_like_block_page,
    profile_for,
)
from repro.netsim import IcmpType, TCPFlags

from .conftest import ALLOWED, ALLOWED_BODY, BLOCKED, BLOCKED_BODY


def make_im(spec, mode=OVERT, isp="idea", **kwargs):
    notification = profile_for(isp) if mode == OVERT else None
    return InterceptiveMiddlebox(f"im-{isp}", isp, spec, mode=mode,
                                 notification=notification, **kwargs)


class TestOvertCensorship:
    def test_client_receives_notification(self, world, spec):
        world.attach_inline(make_im(spec))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert result.ok
        assert looks_like_block_page(result.first_response.body)

    def test_request_never_reaches_origin(self, world, spec):
        """An IM consumes the request instead of relaying it."""
        world.attach_inline(make_im(spec))
        fetch_url(world.net, world.client, world.server_host.ip, BLOCKED)
        world.net.run_until_idle()
        assert not any(req.host == BLOCKED
                       for _, _, req in world.server.request_log)

    def test_every_attempt_blocked(self, world, spec):
        """IMs win every race: no attempt ever renders (section 4.2.1)."""
        world.attach_inline(make_im(spec))
        for _ in range(10):
            result = fetch_url(world.net, world.client,
                               world.server_host.ip, BLOCKED)
            assert looks_like_block_page(result.first_response.body)
            world.net.run_until_idle()

    def test_server_receives_forged_rst_with_foreign_seq(self, world, spec,
                                                         armed):
        """The RST reaching the server was crafted by the box: its
        sequence number is one the client never used."""
        world.attach_inline(make_im(spec))
        armed(world.client, world.server_host)
        fetch_url(world.net, world.client, world.server_host.ip, BLOCKED)
        world.net.run_until_idle()
        server_rx_rsts = [
            e.packet for e in world.server_host.capture.filter(
                direction="rx", src=world.client.ip,
                with_flag=TCPFlags.RST)
        ]
        assert server_rx_rsts, "server never saw the forged RST"
        client_tx_seqs = {
            e.packet.tcp.seq
            for e in world.client.capture.filter(direction="tx",
                                                 tcp_only=True)
        }
        forged = [p for p in server_rx_rsts
                  if p.tcp.seq not in client_tx_seqs]
        assert forged, "no RST with a non-client sequence number"

    def test_client_teardown_times_out_then_rsts(self, world, spec):
        """Post-censor the box blackholes client->server packets, so the
        4-way close times out and the client emits its own RST."""
        world.attach_inline(make_im(spec))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        world.net.run_until_idle()
        assert any(kind == "teardown-timeout"
                   for _, kind, _ in result.conn_events)

    def test_server_only_ever_sees_handshake_and_forged_rst(self, world, spec,
                                                            armed):
        world.attach_inline(make_im(spec))
        armed(world.server_host)
        fetch_url(world.net, world.client, world.server_host.ip, BLOCKED)
        world.net.run_until_idle()
        from_client = [
            e.packet for e in world.server_host.capture.filter(
                direction="rx", src=world.client.ip, tcp_only=True)
        ]
        kinds = set()
        for packet in from_client:
            seg = packet.tcp
            if seg.has(TCPFlags.SYN):
                kinds.add("syn")
            elif seg.has(TCPFlags.RST):
                kinds.add("rst")
            elif seg.payload:
                kinds.add("data")
            else:
                kinds.add("ack")
        assert "data" not in kinds
        assert kinds <= {"syn", "ack", "rst"}
        assert {"syn", "rst"} <= kinds

    def test_uncensored_traffic_forwarded(self, world, spec):
        world.attach_inline(make_im(spec))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           ALLOWED)
        assert result.first_response.body == ALLOWED_BODY


class TestCovertCensorship:
    def test_client_gets_bare_rst_no_notification(self, world, spec):
        world.attach_inline(make_im(spec, mode=COVERT, isp="vodafone"))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           BLOCKED)
        assert not result.ok
        assert result.got_rst
        assert result.reset_without_data

    def test_covert_uncensored_traffic_unharmed(self, world, spec):
        world.attach_inline(make_im(spec, mode=COVERT, isp="vodafone"))
        result = fetch_url(world.net, world.client, world.server_host.ip,
                           ALLOWED)
        assert result.first_response.body == ALLOWED_BODY

    def test_covert_needs_no_notification_profile(self, spec):
        box = InterceptiveMiddlebox("im", "vodafone", spec, mode=COVERT)
        assert box.notification is None

    def test_overt_requires_notification(self, spec):
        with pytest.raises(ValueError):
            InterceptiveMiddlebox("im", "idea", spec, mode=OVERT)

    def test_unknown_mode_rejected(self, spec):
        with pytest.raises(ValueError):
            InterceptiveMiddlebox("im", "idea", spec, mode="loud")


class TestTTLSemantics:
    """Section 4.2.1: censored requests whose TTL dies at/after the box
    elicit notifications, never ICMP; uncensored ones elicit ICMP."""

    def _crafted_fetch(self, world, domain, ttl):
        request = GetRequestSpec(domain=domain).to_bytes()
        return http_fetch(world.net, world.client, world.server_host.ip,
                          request, ttl=ttl, timeout=4.0)

    def _connect_then_send_with_ttl(self, world, domain, ttl):
        """Full-TTL handshake, then a TTL-limited GET on the connection."""
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
        conn.send(GetRequestSpec(domain=domain).to_bytes(), ttl=ttl)
        world.net.run(until=world.net.now + 2.0)
        return app

    def test_censored_get_with_ttl_at_box_yields_notification(self, world, spec):
        # Box sits at r2 = forwarding hop 2 from the client.
        world.attach_inline(make_im(spec))
        app = self._connect_then_send_with_ttl(world, BLOCKED, ttl=2)
        assert b"blocked" in app.data.lower() or looks_like_block_page(app.data)

    def test_censored_get_beyond_box_still_notification_no_icmp(self, world,
                                                                spec, armed):
        world.attach_inline(make_im(spec))
        armed(world.client)
        before = len(world.client.capture.filter(
            predicate=lambda e: e.packet.is_icmp))
        app = self._connect_then_send_with_ttl(world, BLOCKED, ttl=3)
        icmp_after = [
            e for e in world.client.capture.filter(
                predicate=lambda e: e.packet.is_icmp)
        ]
        assert looks_like_block_page(app.data)
        assert len(icmp_after) == before
        assert world.client.capture.filter(direction="rx", tcp_only=True)

    def test_uncensored_get_expiring_past_box_yields_icmp(self, world, spec,
                                                          armed):
        world.attach_inline(make_im(spec))
        armed(world.client)
        self._connect_then_send_with_ttl(world, ALLOWED, ttl=3)
        icmp = [
            e for e in world.client.capture.filter(direction="rx")
            if e.packet.is_icmp
            and e.packet.icmp.icmp_type == IcmpType.TIME_EXCEEDED
        ]
        assert icmp, "expected ICMP Time-Exceeded for the uncensored probe"
        assert icmp[-1].packet.src == world.r3.ip

    def test_censored_get_expiring_before_box_yields_icmp(self, world, spec,
                                                          armed):
        """TTL dying *before* the middlebox hop behaves normally."""
        world.attach_inline(make_im(spec))
        armed(world.client)
        self._connect_then_send_with_ttl(world, BLOCKED, ttl=1)
        icmp = [
            e for e in world.client.capture.filter(direction="rx")
            if e.packet.is_icmp
            and e.packet.icmp.icmp_type == IcmpType.TIME_EXCEEDED
        ]
        assert icmp
        assert icmp[-1].packet.src == world.r1.ip


class TestReassembly:
    def test_fragmented_get_still_triggers_im(self, world, spec):
        """IMs reassemble: fragmentation does not evade them."""
        world.attach_inline(make_im(spec))
        request = GetRequestSpec(domain=BLOCKED).to_bytes()
        result = http_fetch(world.net, world.client, world.server_host.ip,
                            request, segment_size=8)
        assert result.ok
        assert looks_like_block_page(result.first_response.body)

    def test_inline_middlebox_anonymizes_router(self, world, spec):
        world.attach_inline(make_im(spec))
        assert world.r2.anonymized
