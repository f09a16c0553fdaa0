"""traceroute over the simulator.

The paper's methodology begins almost every experiment with a
traceroute: establishing hop counts before TTL-limited probing, and
spotting the asterisked (anonymized) routers that hide middleboxes
(section 6.1).  Both UDP- and TCP-SYN-based probing are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .devices import Host
from .engine import Network
from .packets import (
    IcmpType,
    Packet,
    TCPFlags,
    make_tcp_packet,
    make_udp_packet,
)

#: Classic traceroute base destination port.
_UDP_BASE_PORT = 33434

#: First source port of a network's traceroute probes.
_PROBE_PORT_BASE = 52000


@dataclass
class TracerouteResult:
    """Outcome of a traceroute run.

    ``hops[i]`` is the responding router address for TTL ``i+1``; None
    marks an anonymized (asterisked) hop.  ``reached`` tells whether the
    destination itself ever answered; ``hop_count`` is the TTL at which
    it did (0 when unreached).
    """

    dst_ip: str
    hops: List[Optional[str]] = field(default_factory=list)
    reached: bool = False
    hop_count: int = 0

    @property
    def asterisks(self) -> int:
        """Number of anonymized hops observed."""
        return sum(1 for hop in self.hops if hop is None)

    def describe(self) -> str:
        lines = [f"traceroute to {self.dst_ip}"]
        for index, hop in enumerate(self.hops, start=1):
            lines.append(f"{index:3d}  {hop if hop else '*'}")
        if self.reached:
            lines.append(f"{self.hop_count:3d}  {self.dst_ip}  <- destination")
        return "\n".join(lines)


def traceroute(
    network: Network,
    source: Host,
    dst_ip: str,
    *,
    max_hops: int = 32,
    proto: str = "udp",
    probe_timeout: float = 0.5,
    probes_per_hop: Optional[int] = None,
) -> TracerouteResult:
    """Run traceroute from *source* toward *dst_ip*.

    Args:
        proto: ``"udp"`` (classic) or ``"tcp"`` (SYN probes to port 80,
            useful when UDP is filtered).
        probes_per_hop: probes sent per TTL before the hop is recorded
            as silent — real traceroute's ``-q``.  On a lossy network a
            single probe would misread lost packets as anonymized
            routers; ``None`` defers to the network's hardening policy
            (1 on a fault-free network).
    """
    if proto not in ("udp", "tcp"):
        raise ValueError(f"unsupported traceroute protocol: {proto}")
    if probes_per_hop is None:
        probes_per_hop = network.hardening.traceroute_probes_per_hop

    result = TracerouteResult(dst_ip=dst_ip)
    for ttl in range(1, max_hops + 1):
        reply = None
        for _ in range(max(1, probes_per_hop)):
            reply = _probe_once(network, source, dst_ip, ttl, proto,
                                probe_timeout)
            if reply is not None:
                break
        if reply is None:
            result.hops.append(None)
            continue
        reply_src, is_destination = reply
        if is_destination:
            result.reached = True
            result.hop_count = ttl
            break
        result.hops.append(reply_src)
    return result


def _probe_once(
    network: Network,
    source: Host,
    dst_ip: str,
    ttl: int,
    proto: str,
    probe_timeout: float,
):
    """Send one probe at *ttl*; return (reply_src, reached_dst) or None."""
    src_port = network.next_probe_port(_PROBE_PORT_BASE)
    if proto == "udp":
        probe = make_udp_packet(
            source.ip, dst_ip, src_port, _UDP_BASE_PORT + ttl, b"probe", ttl=ttl,
        )
    else:
        probe = make_tcp_packet(
            source.ip, dst_ip, src_port, 80,
            seq=1, flags=TCPFlags.SYN, ttl=ttl,
        )

    answer: List[tuple] = []

    def sniffer(now: float, packet: Packet) -> None:
        if answer:
            return
        match = _match_reply(packet, dst_ip, src_port, proto)
        if match is not None:
            answer.append(match)

    source.add_sniffer(sniffer)
    try:
        source.send_packet(probe)
        network.run(until=network.now + probe_timeout)
    finally:
        source.remove_sniffer(sniffer)
    return answer[0] if answer else None


def _match_reply(packet: Packet, dst_ip: str, src_port: int, proto: str):
    """Classify a packet as the reply to our probe, if it is one."""
    if packet.is_icmp:
        message = packet.icmp
        original = message.original
        if original is None:
            return None
        original_sport = (
            original.udp.src_port if original.is_udp
            else original.tcp.src_port if original.is_tcp
            else None
        )
        if original_sport != src_port:
            return None
        if message.icmp_type == IcmpType.TIME_EXCEEDED:
            return (packet.src, False)
        if (message.icmp_type == IcmpType.DEST_UNREACHABLE
                and packet.src == dst_ip):
            return (packet.src, True)
        return None
    if proto == "tcp" and packet.is_tcp and packet.src == dst_ip:
        segment = packet.tcp
        if segment.dst_port == src_port and (
                segment.has(TCPFlags.SYN) or segment.has(TCPFlags.RST)):
            return (packet.src, True)
    return None
