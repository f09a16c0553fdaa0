"""Recursive resolvers: honest and poisoned.

MTNL and BSNL censor by *DNS poisoning*: the ISP's own recursive
resolvers answer queries for blocked domains with a manipulated
address — a static ISP-owned IP or a bogon (section 3.2).  A poisoned
resolver is otherwise perfectly functional, which is exactly what lets
the paper's open-resolver scan find them: they resolve innocuous names
correctly and lie only about their per-resolver blocklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Optional

from ..netsim.devices import Host
from ..netsim.packets import Packet, make_udp_packet
from .message import DNS_PORT, DNSQuery, DNSResponse
from .zones import DEFAULT_REGION, GlobalDNS

#: Chooses the lie told for a blocked domain; returns one address.
PoisonStrategy = Callable[[str], str]


@dataclass
class ResolverConfig:
    """Behavioural knobs for one recursive resolver."""

    region: str = DEFAULT_REGION
    #: Domains this resolver lies about (empty = honest resolver): any
    #: immutable set.  A world's poisoned resolvers each hold a
    #: :class:`~repro.isps.builder.ListSample`, a bit mask over their
    #: ISP's sorted DNS master list, which every sample shares.
    blocklist: AbstractSet[str] = frozenset()
    #: How the lie is produced (required when blocklist is non-empty).
    poison_strategy: Optional[PoisonStrategy] = None
    #: Resolvers answering queries from anyone are "open" — the ones
    #: the paper's scan enumerates.  Closed resolvers only answer
    #: queries from inside their own prefixes (predicate provided).
    open_to_world: bool = True
    client_filter: Optional[Callable[[str], bool]] = None

    @property
    def is_poisoned(self) -> bool:
        return bool(self.blocklist)


class ResolverService:
    """A recursive resolver installed on a simulated host (UDP 53)."""

    def __init__(self, global_dns: GlobalDNS, config: ResolverConfig) -> None:
        self.global_dns = global_dns
        self.config = config
        #: DNS queries received, whether answered or refused by the
        #: client filter (metrics: dns_queries_total).
        self.queries = 0
        #: Lies told so far (metrics: dns_poisoned_answers_total).
        self.poisoned_answers = 0

    def install(self, host: Host) -> None:
        host.bind_udp(DNS_PORT, self.handle)

    def handle(self, host: Host, packet: Packet, now: float) -> None:
        query = packet.udp.payload
        if not isinstance(query, DNSQuery):
            return
        self.queries += 1
        if not self.config.open_to_world:
            allowed = self.config.client_filter
            if allowed is None or not allowed(packet.src):
                return
        response = self.answer(query, host.ip)
        network = host.network
        if self._is_blocked(query.qname) and network is not None:
            trace = network.trace
            if trace is not None and trace.active:
                trace.emit("dns-poisoned", now, node=host.name,
                           resolver=host.ip, domain=query.qname,
                           answer=response.ips[0] if response.ips else None)
        host.send_packet(make_udp_packet(
            host.ip, packet.src, DNS_PORT, packet.udp.src_port, response,
        ))

    def answer(self, query: DNSQuery, own_ip: str) -> DNSResponse:
        """Produce the (possibly poisoned) answer for *query*."""
        domain = query.qname
        if self._is_blocked(domain):
            poison = self.config.poison_strategy
            if poison is None:
                raise ValueError(
                    f"resolver {own_ip} has a blocklist but no poison strategy"
                )
            self.poisoned_answers += 1
            return DNSResponse(
                qname=domain, qid=query.qid,
                ips=(poison(domain),), authority=own_ip,
            )
        addresses = self.global_dns.lookup(domain, self.config.region)
        if addresses is None:
            return DNSResponse(qname=domain, qid=query.qid,
                               rcode="NXDOMAIN", authority=own_ip)
        return DNSResponse(qname=domain, qid=query.qid,
                           ips=tuple(addresses), authority=own_ip)

    def _is_blocked(self, domain: str) -> bool:
        if domain in self.config.blocklist:
            return True
        # Poisoning also catches the www alias of a blocked name.
        return domain.startswith("www.") and domain[4:] in self.config.blocklist


def static_ip_poison(static_ip: str) -> PoisonStrategy:
    """Every blocked domain resolves to one ISP-owned static address —
    the pattern the paper's frequency analysis catches (section 3.2-II)."""
    return lambda domain: static_ip


def bogon_poison(bogon_ip: str = "127.0.0.2") -> PoisonStrategy:
    """Blocked domains resolve to a bogon address."""
    return lambda domain: bogon_ip


def mixed_poison(static_ip: str, bogon_ip: str,
                 bogon_fraction_hash: int = 4) -> PoisonStrategy:
    """Deterministically mix static-IP and bogon lies per domain.

    Roughly ``1/bogon_fraction_hash`` of blocked domains get the bogon
    answer; the rest get the ISP static IP.  Both patterns appear in the
    paper's observations.
    """
    def strategy(domain: str) -> str:
        digest = sum(domain.encode("ascii", "ignore")) % bogon_fraction_hash
        return bogon_ip if digest == 0 else static_ip

    return strategy
