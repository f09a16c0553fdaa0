"""Client-side packet filtering — the iptables rules of section 5.

The wiretap-middlebox evasions install kernel-level drop rules on the
*client*: packets carrying FIN or RST from the blocked site's address
are discarded before the TCP stack sees them, so the injected
notification-cum-disconnection packets do nothing while the genuine
content sails through.  Airtel's fixed IP-ID 242 permits a surgical
general rule: drop FIN/RST packets whose IP-ID is 242, from anyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ...netsim.packets import Packet, TCPFlags


@dataclass(frozen=True)
class FirewallRule:
    """One drop rule, iptables-style.  All given criteria must match."""

    description: str
    src_ip: Optional[str] = None
    #: Match packets having ANY of these TCP flags set.
    tcp_flags_any: TCPFlags = TCPFlags(0)
    ip_id: Optional[int] = None

    def matches(self, packet: Packet) -> bool:
        if self.src_ip is not None and packet.src != self.src_ip:
            return False
        if self.ip_id is not None and packet.ip_id != self.ip_id:
            return False
        if self.tcp_flags_any:
            if not packet.is_tcp:
                return False
            if not (packet.tcp.flags & self.tcp_flags_any):
                return False
        return True


@dataclass
class ClientFirewall:
    """An ordered drop-rule chain installed on a host.

    Satisfies the host's duck-typed firewall interface
    (``allows(packet) -> bool``); dropped packets are logged, the way
    the authors verified their rules with pcap.
    """

    rules: List[FirewallRule] = field(default_factory=list)
    dropped: List[Packet] = field(default_factory=list)

    def allows(self, packet: Packet) -> bool:
        for rule in self.rules:
            if rule.matches(packet):
                self.dropped.append(packet)
                return False
        return True


def drop_fin_rst_from(server_ip: str) -> FirewallRule:
    """Drop all FIN/RST packets claiming to come from *server_ip* —
    the per-site rule used against Jio's wiretap boxes."""
    return FirewallRule(
        description=f"drop FIN/RST from {server_ip}",
        src_ip=server_ip,
        tcp_flags_any=TCPFlags.FIN | TCPFlags.RST,
    )


def drop_fin_rst_with_ip_id(ip_id: int = 242) -> FirewallRule:
    """Drop FIN/RST packets with a fixed IP-ID — the general rule that
    filters every Airtel injection regardless of the forged source."""
    return FirewallRule(
        description=f"drop FIN/RST with IP-ID {ip_id}",
        tcp_flags_any=TCPFlags.FIN | TCPFlags.RST,
        ip_id=ip_id,
    )
