"""Packet model: IPv4 headers with TCP, UDP and ICMP payloads.

Packets are small mutable dataclasses.  Routers mutate the TTL in place
on a per-hop copy; endpoints and middleboxes treat received packets as
immutable.  ``clone()`` produces deep-enough copies for wiretaps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

DEFAULT_TTL = 64


class TCPFlags(enum.IntFlag):
    """TCP header flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


class IcmpType(enum.IntEnum):
    """The ICMP types the simulator generates."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


@dataclass(slots=True)
class TCPSegment:
    """A TCP segment: ports, sequence space, flags and payload bytes."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags(0)
    payload: bytes = b""
    window: int = 65535

    def has(self, flag: TCPFlags) -> bool:
        """Return True if *flag* is set on this segment."""
        # Raw int test: IntFlag.__and__ + __bool__ dominate the TCP
        # hot path otherwise.  Falls back for plain-int flags.
        try:
            return (self.flags._value_ & flag._value_) != 0
        except AttributeError:
            return bool(self.flags & flag)

    @property
    def seg_len(self) -> int:
        """Sequence-space length: payload bytes plus SYN/FIN."""
        length = len(self.payload)
        try:
            bits = self.flags._value_
        except AttributeError:
            bits = int(self.flags)
        if bits & 0x02:  # SYN
            length += 1
        if bits & 0x01:  # FIN
            length += 1
        return length

    def describe(self) -> str:
        """Short human-readable rendering, e.g. ``SYN|ACK seq=1 ack=1``."""
        names = [f.name for f in TCPFlags if self.flags & f and f.name]
        flag_text = "|".join(names) if names else "-"
        return (
            f"{flag_text} seq={self.seq} ack={self.ack} "
            f"len={len(self.payload)}"
        )


@dataclass(slots=True)
class UDPDatagram:
    """A UDP datagram carrying opaque application payload."""

    src_port: int
    dst_port: int
    payload: object = b""


@dataclass
class IcmpMessage:
    """An ICMP message.

    For TIME_EXCEEDED / DEST_UNREACHABLE, ``original`` holds the packet
    that triggered the error, mimicking the quoted header bytes a real
    ICMP error carries (enough for traceroute to match probes).
    """

    icmp_type: IcmpType
    code: int = 0
    original: Optional["Packet"] = None
    ident: int = 0
    seq: int = 0


Payload = Union[TCPSegment, UDPDatagram, IcmpMessage]


@dataclass
class Packet:
    """An IPv4 packet: addressing, TTL, identification and payload."""

    src: str
    dst: str
    payload: Payload
    ttl: int = DEFAULT_TTL
    #: ``None`` until the packet enters a network, which then gives it
    #: its next IP-ID (``Network.next_ip_id``); a forged packet may
    #: carry a fixed one instead.
    ip_id: Optional[int] = None

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.payload, TCPSegment)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.payload, UDPDatagram)

    @property
    def is_icmp(self) -> bool:
        return isinstance(self.payload, IcmpMessage)

    @property
    def tcp(self) -> TCPSegment:
        """The TCP payload; raises TypeError for non-TCP packets."""
        if not isinstance(self.payload, TCPSegment):
            raise TypeError(f"not a TCP packet: {self!r}")
        return self.payload

    @property
    def udp(self) -> UDPDatagram:
        """The UDP payload; raises TypeError for non-UDP packets."""
        if not isinstance(self.payload, UDPDatagram):
            raise TypeError(f"not a UDP packet: {self!r}")
        return self.payload

    @property
    def icmp(self) -> IcmpMessage:
        """The ICMP payload; raises TypeError for non-ICMP packets."""
        if not isinstance(self.payload, IcmpMessage):
            raise TypeError(f"not an ICMP packet: {self!r}")
        return self.payload

    def flow_key(self) -> tuple:
        """The 5-tuple identifying this packet's flow (TCP/UDP only)."""
        if self.is_tcp:
            seg = self.tcp
            return ("tcp", self.src, seg.src_port, self.dst, seg.dst_port)
        if self.is_udp:
            dgram = self.udp
            return ("udp", self.src, dgram.src_port, self.dst, dgram.dst_port)
        return ("icmp", self.src, 0, self.dst, 0)

    def clone(self) -> "Packet":
        """Copy the packet (payload dataclass copied, bytes shared)."""
        # Type-dispatched positional construction: dataclasses.replace
        # costs ~10% of a packet-level fetch; exact-type checks keep
        # payload subclasses on the general path.
        p = self.payload
        tp = type(p)
        if tp is TCPSegment:
            copied: Payload = TCPSegment(p.src_port, p.dst_port, p.seq,
                                         p.ack, p.flags, p.payload, p.window)
        elif tp is UDPDatagram:
            copied = UDPDatagram(p.src_port, p.dst_port, p.payload)
        else:
            copied = replace(p)
        return Packet(
            src=self.src,
            dst=self.dst,
            payload=copied,
            ttl=self.ttl,
            ip_id=self.ip_id,
        )

    def describe(self) -> str:
        """One-line rendering used in captures and debug output."""
        if self.is_tcp:
            seg = self.tcp
            detail = f"TCP {seg.src_port}->{seg.dst_port} {seg.describe()}"
        elif self.is_udp:
            dgram = self.udp
            detail = f"UDP {dgram.src_port}->{dgram.dst_port}"
        else:
            msg = self.icmp
            detail = f"ICMP type={msg.icmp_type.name}"
        return f"{self.src} > {self.dst} ttl={self.ttl} id={self.ip_id} {detail}"


def make_tcp_packet(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    *,
    seq: int = 0,
    ack: int = 0,
    flags: TCPFlags = TCPFlags(0),
    payload: bytes = b"",
    ttl: int = DEFAULT_TTL,
    ip_id: Optional[int] = None,
) -> Packet:
    """Convenience constructor for a TCP packet."""
    segment = TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        payload=payload,
    )
    return Packet(src=src, dst=dst, payload=segment, ttl=ttl, ip_id=ip_id)


def make_udp_packet(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    payload: object,
    *,
    ttl: int = DEFAULT_TTL,
) -> Packet:
    """Convenience constructor for a UDP packet."""
    datagram = UDPDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    return Packet(src=src, dst=dst, payload=datagram, ttl=ttl)


def make_time_exceeded(router_ip: str, offending: Packet) -> Packet:
    """Build the ICMP Time-Exceeded reply a router sends when TTL hits 0."""
    message = IcmpMessage(
        icmp_type=IcmpType.TIME_EXCEEDED,
        code=0,
        original=offending.clone(),
    )
    return Packet(src=router_ip, dst=offending.src, payload=message)


def make_dest_unreachable(router_ip: str, offending: Packet, code: int = 1) -> Packet:
    """Build an ICMP Destination-Unreachable reply (default: host unreachable)."""
    message = IcmpMessage(
        icmp_type=IcmpType.DEST_UNREACHABLE,
        code=code,
        original=offending.clone(),
    )
    return Packet(src=router_ip, dst=offending.src, payload=message)

