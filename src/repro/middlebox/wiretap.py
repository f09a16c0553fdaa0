"""Wiretap middleboxes (WM) — Airtel and Reliance Jio.

A WM is a host hanging off a tap: it receives a *copy* of every packet
crossing its router and can only react by injecting new, forged packets
(Figure 4).  On seeing a censored GET inside an established flow it
injects, toward the client:

1. an ``HTTP 200 OK`` censorship notification with the server's forged
   source address, correct sequence/acknowledgement numbers and
   ``FIN|PSH|ACK`` set — forcing the client's browser into connection
   teardown; then
2. a bare ``RST`` finishing the job.

Because the WM works on a copy it cannot outpace the genuine traffic
reliably: the paper observed the real page rendering in roughly 3 of 10
attempts.  That race is modelled with a ``miss_rate``: on a miss the
box reacts too slowly (its injection is delayed past any plausible
response time) and the genuine response wins.

Airtel's boxes have a famous tell: every injected packet carries the
fixed IP-ID 242 (section 6.3) — which the client-side firewall evasion
keys on (section 5-I).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from ..netsim.addressing import Prefix
from ..netsim.packets import Packet, TCPFlags, make_tcp_packet
from .base import Middlebox
from .notification import NotificationProfile
from .triggers import TriggerSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.devices import Router

#: How quickly a (winning) WM reacts after seeing the request copy.
FAST_REACTION = 0.0004
#: Reaction time on a lost race: far beyond any response RTT.
SLOW_REACTION = 2.0
#: Gap between the forged FIN notification and the follow-up RST.
RST_FOLLOWUP_GAP = 0.0006


class WiretapMiddlebox(Middlebox):
    """Out-of-band injector fed by a router tap."""

    kind = "wiretap"

    def __init__(
        self,
        name: str,
        isp: str,
        spec: TriggerSpec,
        notification: NotificationProfile,
        *,
        miss_rate: float = 0.0,
        fixed_ip_id: Optional[int] = None,
        seed: int = 0,
        flow_timeout: float = 150.0,
        source_prefixes: Optional[Sequence[Prefix]] = None,
        require_handshake: bool = True,
        **session_kwargs,
    ) -> None:
        super().__init__(name, isp, spec, flow_timeout=flow_timeout,
                         source_prefixes=source_prefixes,
                         require_handshake=require_handshake,
                         **session_kwargs)
        self.notification = notification
        self.miss_rate = miss_rate
        self.fixed_ip_id = fixed_ip_id
        self._rng = random.Random(seed)

    # -- tap interface -----------------------------------------------------

    def on_copy(self, packet: Packet, now: float, router: "Router") -> None:
        """Inspect one copied packet; maybe inject forged responses."""
        if not packet.is_tcp:
            return
        record = self.flows.observe(packet, now)
        if self.flows.events:
            for kind, _detail in self.session_events(packet, now, router):
                if kind in ("overload-fail-closed", "residual-block"):
                    # The box cannot drop (it has a copy): it kills the
                    # refused/residually-blocked flow with a forged RST.
                    self._refuse_flow(packet, router)
        if not self.is_client_to_server_http(packet):
            return
        self.stats.inspected += 1
        if not self.flow_gate_open(record):
            self.stats.not_established += 1
            return
        client_ip = record.client_ip if record is not None else packet.src
        if not self.in_scope(client_ip):
            self.stats.out_of_scope += 1
            return
        domain = self.spec.matched_domain(packet.tcp.payload)
        if domain is None:
            return

        self.stats.record_trigger(domain)
        if record is not None:
            self.flows.mark_censored(record, domain, now)

        lost_race = self._rng.random() < self.miss_rate
        network = router.network
        trace = network.trace if network is not None else None
        if trace is not None and trace.active:
            from ..obs.trace import flow_id

            trace.emit("wm-trigger", now, box=self.name, isp=self.isp,
                       node=router.name, domain=domain,
                       flow=flow_id(packet), lost_race=lost_race)
        if lost_race:
            self.stats.missed_race += 1
            reaction = SLOW_REACTION
        else:
            reaction = FAST_REACTION
        self._inject_censorship(packet, domain, router, reaction)

    # -- forged packet construction -----------------------------------------

    def _refuse_flow(self, request: Packet, router: "Router") -> None:
        """Forged connection-refused RST toward the client.

        Used when the session table refuses a new flow (fail-closed
        overload) or a residual-censorship entry blocks it at the SYN.
        The ack field mirrors what a refusing server would send
        (``seq + payload``, plus one for the SYN), which is what the
        client stack requires to accept a reset in SYN_SENT.
        """
        segment = request.tcp
        network = router.network
        assert network is not None
        advance = len(segment.payload)
        if segment.has(TCPFlags.SYN) or segment.has(TCPFlags.FIN):
            advance += 1
        reset = make_tcp_packet(
            request.dst, request.src,            # forged: from the server
            segment.dst_port, segment.src_port,
            seq=segment.ack, ack=segment.seq + advance,
            flags=TCPFlags.RST | TCPFlags.ACK,
            ip_id=self.fixed_ip_id,
        )
        network.call_later(FAST_REACTION, network.inject_at, router, reset)

    def _inject_censorship(self, request: Packet, domain: str,
                           router: "Router", reaction: float) -> None:
        segment = request.tcp
        network = router.network
        assert network is not None

        # The client's own request tells the injector everything it
        # needs: its ack field is the next server sequence number, its
        # seq+len is what the server will acknowledge.
        server_seq = segment.ack
        client_ack = segment.seq + len(segment.payload)

        body = self.notification.response_bytes(domain)
        notification = make_tcp_packet(
            request.dst, request.src,            # forged: from the server
            segment.dst_port, segment.src_port,
            seq=server_seq, ack=client_ack,
            flags=TCPFlags.FIN | TCPFlags.PSH | TCPFlags.ACK,
            payload=body,
            ip_id=self.fixed_ip_id,
        )
        # FIN consumes one sequence number after the payload.
        reset = make_tcp_packet(
            request.dst, request.src,
            segment.dst_port, segment.src_port,
            seq=server_seq + len(body) + 1, ack=client_ack,
            flags=TCPFlags.RST,
            ip_id=self.fixed_ip_id,
        )
        network.call_later(reaction, network.inject_at, router, notification)
        network.call_later(reaction + RST_FOLLOWUP_GAP,
                           network.inject_at, router, reset)
