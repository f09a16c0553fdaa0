"""repro.netsim — a deterministic packet-level IPv4 network simulator.

This package substitutes for the live networks the paper measured: it
provides hosts with real TCP state machines, routers with TTL/ICMP
semantics and hash-based ECMP, pcap-style captures, traceroute, and the
attachment points censorship middleboxes need (inline and wiretap).
"""

from .addressing import (
    BOGON_PREFIXES,
    Prefix,
    PrefixAllocator,
    int_to_ip,
    ip_in_prefixes,
    ip_to_int,
    is_bogon,
    is_valid_ip,
)
from .capture import Capture, CaptureEntry
from .devices import Host, Node, Router
from .engine import CONSUMED, DROP, FORWARD, Network
from .errors import (
    AddressError,
    ConnectionError_,
    NetSimError,
    PortInUseError,
    RoutingError,
    SimulationError,
    UnknownNodeError,
)
from .faults import (
    DEFAULT_HARDENING,
    NO_HARDENING,
    FaultInjector,
    FaultPlan,
    HardeningPolicy,
)
from .packets import (
    DEFAULT_TTL,
    IcmpMessage,
    IcmpType,
    Packet,
    TCPFlags,
    TCPSegment,
    UDPDatagram,
    make_dest_unreachable,
    make_tcp_packet,
    make_time_exceeded,
    make_udp_packet,
)
from .tcp import (
    CLOSE_WAIT,
    CLOSED,
    ESTABLISHED,
    FIN_WAIT_1,
    FIN_WAIT_2,
    LAST_ACK,
    SYN_RCVD,
    SYN_SENT,
    TIME_WAIT,
    TCPApp,
    TCPConnection,
    TCPStack,
)
from .traceroute import TracerouteResult, traceroute

__all__ = [
    "AddressError",
    "BOGON_PREFIXES",
    "CLOSED",
    "CLOSE_WAIT",
    "CONSUMED",
    "Capture",
    "CaptureEntry",
    "ConnectionError_",
    "DEFAULT_HARDENING",
    "DEFAULT_TTL",
    "DROP",
    "ESTABLISHED",
    "FaultInjector",
    "FaultPlan",
    "HardeningPolicy",
    "NO_HARDENING",
    "FIN_WAIT_1",
    "FIN_WAIT_2",
    "FORWARD",
    "Host",
    "IcmpMessage",
    "IcmpType",
    "LAST_ACK",
    "NetSimError",
    "Network",
    "Node",
    "Packet",
    "PortInUseError",
    "Prefix",
    "PrefixAllocator",
    "Router",
    "RoutingError",
    "SYN_RCVD",
    "SYN_SENT",
    "SimulationError",
    "TCPApp",
    "TCPConnection",
    "TCPFlags",
    "TCPSegment",
    "TCPStack",
    "TIME_WAIT",
    "TracerouteResult",
    "TracerouteResult",
    "UDPDatagram",
    "UnknownNodeError",
    "int_to_ip",
    "ip_in_prefixes",
    "ip_to_int",
    "is_bogon",
    "is_valid_ip",
    "make_dest_unreachable",
    "make_tcp_packet",
    "make_time_exceeded",
    "make_udp_packet",
    "traceroute",
]
