"""Network devices: hosts and routers.

A :class:`Host` terminates traffic: it owns a TCP stack, UDP services,
an optional client-side firewall (the anti-censorship iptables rules of
section 5) and a pcap-style capture that records while a reader holds
it open.  A :class:`Router` forwards traffic and may carry censorship
middleboxes, either *inline* (interceptive) or attached to a *tap*
(wiretap).  Routers may be *anonymized*: they never send ICMP
Time-Exceeded and therefore show up as asterisks in traceroute,
exactly as the paper reports for middlebox routers (section 6.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .capture import Capture
from .errors import PortInUseError
from .packets import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import Network
    from .tcp import TCPStack

#: Signature of a UDP service handler: (host, packet, now) -> None.
UdpHandler = Callable[["Host", Packet, float], None]


class Node:
    """Base class for anything attached to the topology."""

    def __init__(self, name: str, asn: int = 0) -> None:
        self.name = name
        self.asn = asn
        self.ips: List[str] = []
        self.network: Optional["Network"] = None

    @property
    def ip(self) -> str:
        """The node's primary interface address."""
        if not self.ips:
            raise ValueError(f"node {self.name} has no address assigned")
        return self.ips[0]

    def add_ip(self, ip: str) -> None:
        self.ips.append(ip)
        if self.network is not None:
            self.network.register_ip(ip, self)

    def owns_ip(self, ip: str) -> bool:
        return ip in self.ips

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.ips[:1]}>"


class Router(Node):
    """A forwarding element, optionally hosting middleboxes.

    Attributes:
        anonymized: if True the router never answers expired-TTL packets
            with ICMP Time-Exceeded (asterisked hop in traceroute).
        inline_middlebox: an in-path device consulted for every
            transiting packet; it can forward, drop or consume packets
            and inject new ones (interceptive middleboxes).
        taps: passive devices receiving a copy of every transiting
            packet; they can only inject new packets (wiretap
            middleboxes).
    """

    def __init__(self, name: str, asn: int = 0, *, anonymized: bool = False) -> None:
        super().__init__(name, asn)
        self.anonymized = anonymized
        self.inline_middlebox = None
        self.taps: List[object] = []

    def attach_inline(self, middlebox) -> None:
        """Install an inline (interceptive) middlebox on this router."""
        if self.inline_middlebox is not None:
            raise ValueError(f"router {self.name} already has an inline middlebox")
        self.inline_middlebox = middlebox
        middlebox.attach(self)
        self.anonymized = True
        self._middleboxes_changed()

    def attach_tap(self, middlebox) -> None:
        """Install a wiretap middlebox receiving copies of all traffic."""
        self.taps.append(middlebox)
        middlebox.attach(self)
        self.anonymized = True
        self._middleboxes_changed()

    def _middleboxes_changed(self) -> None:
        # Middlebox placement is part of what path-derived caches (the
        # express probing layer's in particular) summarize; moving the
        # topology generation retires them.
        if self.network is not None:
            self.network.invalidate_routing_caches()

    @property
    def middleboxes(self) -> List[object]:
        boxes = list(self.taps)
        if self.inline_middlebox is not None:
            boxes.append(self.inline_middlebox)
        return boxes


class Host(Node):
    """An end host: TCP stack, UDP services, firewall and capture."""

    def __init__(self, name: str, asn: int = 0) -> None:
        super().__init__(name, asn)
        from .tcp import TCPStack  # local import: tcp.py never imports devices

        self.stack: "TCPStack" = TCPStack(self)
        self.udp_services: Dict[int, UdpHandler] = {}
        self.capture = Capture()
        self.firewall = None  # duck-typed: .allows(packet) -> bool
        self.sniffers: List[Callable[[float, Packet], None]] = []

    # -- sending --------------------------------------------------------

    def send_packet(self, packet: Packet) -> None:
        """Transmit *packet* into the network (raw-socket style)."""
        if self.network is None:
            raise RuntimeError(f"host {self.name} is not attached to a network")
        trace = self.network.trace
        if trace is not None and trace.active:
            from ..obs.trace import flow_id

            trace.emit("send", self.network.now, node=self.name,
                       flow=flow_id(packet), proto=packet.flow_key()[0],
                       dst=packet.dst, ttl=packet.ttl)
        if self.capture.windows:
            self.capture.record(self.network.now, self.name, "tx", packet)
        self.network.transmit(self, packet)

    # -- receiving ------------------------------------------------------

    def deliver(self, packet: Packet, now: float) -> None:
        """Called by the engine when a packet arrives at this host.

        Order mirrors Linux: the capture (while armed) and sniffers see
        the packet first (pcap observes pre-netfilter), then the firewall
        may drop it, then it is demultiplexed to TCP / UDP / ICMP
        handlers.
        """
        if self.capture.windows:
            self.capture.record(now, self.name, "rx", packet)
        for sniffer in self.sniffers:
            sniffer(now, packet)
        if self.firewall is not None and not self.firewall.allows(packet):
            return
        if packet.is_tcp:
            self.stack.handle_packet(packet, now)
        elif packet.is_udp:
            handler = self.udp_services.get(packet.udp.dst_port)
            if handler is not None:
                handler(self, packet, now)
            else:
                self.stack.handle_unmatched_udp(packet, now)
        else:
            self.stack.handle_icmp(packet, now)

    # -- services -------------------------------------------------------

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        """Register a UDP service (e.g. a DNS resolver) on *port*."""
        if port in self.udp_services:
            raise PortInUseError(f"{self.name}: UDP port {port} already bound")
        self.udp_services[port] = handler

    def add_sniffer(self, sniffer: Callable[[float, Packet], None]) -> None:
        """Attach a live packet observer (pre-firewall, like libpcap)."""
        self.sniffers.append(sniffer)

    def remove_sniffer(self, sniffer: Callable[[float, Packet], None]) -> None:
        self.sniffers.remove(sniffer)
