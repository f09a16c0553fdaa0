"""Interceptive middleboxes (IM) — Idea and Vodafone.

An IM sits *in path*, like a transparent proxy (Figure 3) — the middlebox
family the paper reports discovering in the wild for the first time.
Its observable behaviour, reproduced here:

* On a censored GET inside an established flow it **consumes** the
  request (the origin never sees it), answers the client directly —
  either an overt ``HTTP 200`` notification with ``FIN|PSH|ACK``
  (Idea), or a bare covert ``RST`` (Vodafone) — and sends its *own*
  forged ``RST`` to the server, whose sequence number differs from
  anything the client sent (the tell the paper's controlled-server
  experiment catches).
* After triggering, **every** client→server packet of that flow is
  dropped, so the client's 4-way teardown times out and it finally
  emits its own RST — which also never reaches the server.
* A censored request whose TTL expires at or beyond the IM's hop is
  consumed all the same, so no ICMP Time-Exceeded ever comes back from
  hops at or past the box (section 4.2.1) — this falls out of the
  engine's hook ordering.
* Uncensored traffic is forwarded untouched, with normal TTL semantics.

Unlike the wiretap boxes, an IM reassembles the client byte stream
(it is a proxy), so fragmented GETs do not slip past it; and it wins
every race, so blocking is total ("all attempts to open the website
were unsuccessful").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..netsim.addressing import Prefix
from ..netsim.engine import CONSUMED, DROP, FORWARD
from ..netsim.packets import Packet, TCPFlags, make_tcp_packet
from .base import Middlebox
from .notification import NotificationProfile
from .triggers import TriggerSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.devices import Router

#: Mode constants.
OVERT = "overt"
COVERT = "covert"

#: Offset making the IM's forged server-side RST sequence number
#: distinguishable from any sequence number the client used.
FORGED_RST_SEQ_OFFSET = 1000

#: IM processing delay before its responses leave the box.
IM_REACTION = 0.0002


class InterceptiveMiddlebox(Middlebox):
    """In-path censoring proxy."""

    kind = "interceptive"

    def __init__(
        self,
        name: str,
        isp: str,
        spec: TriggerSpec,
        *,
        mode: str = OVERT,
        notification: Optional[NotificationProfile] = None,
        flow_timeout: float = 150.0,
        source_prefixes: Optional[Sequence[Prefix]] = None,
        require_handshake: bool = True,
        **session_kwargs,
    ) -> None:
        if mode not in (OVERT, COVERT):
            raise ValueError(f"unknown IM mode: {mode}")
        if mode == OVERT and notification is None:
            raise ValueError("overt interceptive middlebox needs a notification")
        super().__init__(name, isp, spec, flow_timeout=flow_timeout,
                         source_prefixes=source_prefixes,
                         require_handshake=require_handshake,
                         **session_kwargs)
        self.mode = mode
        self.notification = notification

    # -- inline interface ----------------------------------------------------

    def process(self, packet: Packet, now: float, router: "Router") -> str:
        """Inline verdict for one transiting packet."""
        if not packet.is_tcp:
            return FORWARD
        record = self.flows.observe(packet, now)
        if self.flows.events:
            for kind, _detail in self.session_events(packet, now, router):
                if kind == "overload-fail-closed":
                    # In-path refusal: reset the client, eat the SYN.
                    self._refuse_flow(packet, router)
                    return DROP

        if record is not None and record.censored:
            if record.is_from_client(packet):
                # Post-censor blackhole of the client side of the flow.
                self.stats.dropped_post_censor += 1
                return DROP
            return FORWARD

        if not self.is_client_to_server_http(packet):
            return FORWARD
        self.stats.inspected += 1
        if not self.flow_gate_open(record):
            self.stats.not_established += 1
            return FORWARD
        client_ip = record.client_ip if record is not None else packet.src
        if not self.in_scope(client_ip):
            self.stats.out_of_scope += 1
            return FORWARD

        # Proxy-style reassembly of the client stream.  The buffer cap
        # is the flow table's to enforce; the box only narrates the
        # first overflow.
        segment = packet.tcp
        if record is not None:
            if self.flows.append_payload(record, segment.payload):
                self.note_truncation(packet, record, now, router)
            inspectable = bytes(record.buffer)
        else:
            inspectable = segment.payload
        domain = self.spec.matched_domain(inspectable)
        if domain is None:
            return FORWARD

        self.stats.record_trigger(domain)
        if record is not None:
            self.flows.mark_censored(record, domain, now)
        network = router.network
        trace = network.trace if network is not None else None
        if trace is not None and trace.active:
            from ..obs.trace import flow_id

            trace.emit("im-intercept", now, box=self.name, isp=self.isp,
                       node=router.name, domain=domain,
                       flow=flow_id(packet))
        self._respond_to_client(packet, domain, router)
        self._reset_server_side(packet, router)
        return CONSUMED

    # -- forged packets --------------------------------------------------------

    def _refuse_flow(self, request: Packet, router: "Router") -> None:
        """Fail-closed overload: reset the refused client's connection.

        The consumed SYN never reaches the server, so the reset is the
        only answer the client sees — a connection refused at the box.
        """
        segment = request.tcp
        network = router.network
        assert network is not None
        advance = len(segment.payload)
        if segment.has(TCPFlags.SYN) or segment.has(TCPFlags.FIN):
            advance += 1
        reset = make_tcp_packet(
            request.dst, request.src,
            segment.dst_port, segment.src_port,
            seq=segment.ack, ack=segment.seq + advance,
            flags=TCPFlags.RST | TCPFlags.ACK,
        )
        network.call_later(IM_REACTION, network.inject_at, router, reset)

    def _respond_to_client(self, request: Packet, domain: str,
                           router: "Router") -> None:
        segment = request.tcp
        network = router.network
        assert network is not None
        server_seq = segment.ack
        client_ack = segment.seq + len(segment.payload)

        if self.mode == OVERT:
            assert self.notification is not None
            body = self.notification.response_bytes(domain)
            reply = make_tcp_packet(
                request.dst, request.src,
                segment.dst_port, segment.src_port,
                seq=server_seq, ack=client_ack,
                flags=TCPFlags.FIN | TCPFlags.PSH | TCPFlags.ACK,
                payload=body,
            )
        else:
            reply = make_tcp_packet(
                request.dst, request.src,
                segment.dst_port, segment.src_port,
                seq=server_seq, ack=client_ack,
                flags=TCPFlags.RST,
            )
        network.call_later(IM_REACTION, network.inject_at, router, reply)

    def _reset_server_side(self, request: Packet, router: "Router") -> None:
        segment = request.tcp
        network = router.network
        assert network is not None
        # Forged client->server RST.  The server's rcv_nxt equals the
        # consumed request's seq (the request never arrived), so a
        # nearby in-window sequence number is accepted — and it is
        # visibly not a sequence number the client ever used.
        forged_seq = segment.seq + len(segment.payload) + FORGED_RST_SEQ_OFFSET
        reset = make_tcp_packet(
            request.src, request.dst,
            segment.src_port, segment.dst_port,
            seq=forged_seq, ack=segment.ack,
            flags=TCPFlags.RST,
        )
        network.call_later(IM_REACTION, network.inject_at, router, reset)
