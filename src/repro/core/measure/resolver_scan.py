"""Open-resolver scanning and censorious-resolver identification.

Section 3.2-III: sweep the ISP's address space with queries for a
known-good name (open resolvers answer), then interrogate each open
resolver with all 1,200 PBW queries; a resolver returning even one
manipulated answer (ISP-internal or bogon address) is censorious.

The sweep and interrogation use the express DNS layer (hundreds of
thousands of queries); packet-level equivalence for sampled resolvers
is covered by tests.  The sweep counts every address of every prefix
it is given, but an address no node owns has nothing to answer it, so
it probes only the owned ones (read from ``Network.ip_owner``) in
ascending address order -- the list, order included, that probing all
of them would give.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ...netsim.addressing import (
    Prefix,
    int_to_ip,
    ip_to_int,
    is_bogon,
    is_valid_ip,
)
from ..vantage import VantagePoint
from .fastprobe import express_dns_probe


@dataclass
class ResolverScanResult:
    """Everything the scan learned about one ISP's resolvers."""

    isp: str
    swept_addresses: int = 0
    open_resolvers: List[str] = field(default_factory=list)
    #: resolver -> set of domains it answered with a manipulated IP.
    censorious: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def censorious_resolvers(self) -> List[str]:
        return sorted(self.censorious)

    @property
    def coverage(self) -> float:
        """Fraction of open resolvers that are poisoned (Figure 2)."""
        if not self.open_resolvers:
            return 0.0
        return len(self.censorious) / len(self.open_resolvers)

    def blocked_union(self) -> Set[str]:
        merged: Set[str] = set()
        for blocked in self.censorious.values():
            merged |= blocked
        return merged


def sweep_open_resolvers(
    world,
    isp_name: str,
    *,
    probe_domain: Optional[str] = None,
    prefixes: Optional[List[Prefix]] = None,
) -> ResolverScanResult:
    """Sweep the ISP's address space for open resolvers.

    ``probe_domain`` must be an uncensored name with a known answer —
    the paper uses their own institution's site; we default to the
    top-ranked Alexa destination.
    """
    deployment = world.isp(isp_name)
    vantage = VantagePoint.inside(world, isp_name)
    if probe_domain is None:
        probe_domain = world.alexa[0].domain
        expected = {world.alexa[0].ip}
    else:
        expected = set(world.global_dns.all_addresses(probe_domain))
    if prefixes is None:
        prefixes = [deployment.pool]

    result = ResolverScanResult(isp=isp_name)
    network = world.network
    # Only owned addresses can answer, so the sweep probes those alone,
    # in ascending order: the list probing every address would give.  A
    # key that does not parse is not an address any prefix holds.
    owned = sorted(ip_to_int(ip) for ip in network.ip_owner
                   if is_valid_ip(ip))
    for prefix in prefixes:
        result.swept_addresses += prefix.size
        first = bisect_left(owned, prefix.network)
        last = bisect_left(owned, prefix.network + prefix.size)
        for value in owned[first:last]:
            ip = int_to_ip(value)
            answer = express_dns_probe(network, vantage.host, ip,
                                       probe_domain)
            if answer.ok and set(answer.ips) & expected:
                result.open_resolvers.append(ip)
    return result


def identify_censorious(
    world,
    isp_name: str,
    scan: ResolverScanResult,
    domains: Optional[Iterable[str]] = None,
) -> ResolverScanResult:
    """Interrogate every open resolver with the PBW list.

    A resolver is censorious when any answer is manipulated — bogon, or
    inside the scanned ISP itself (no PBW is hosted there).
    """
    deployment = world.isp(isp_name)
    vantage = VantagePoint.inside(world, isp_name)
    if domains is None:
        domains = world.corpus.domains()
    domains = list(domains)

    for resolver_ip in scan.open_resolvers:
        # One express probe establishes reachability and detects any
        # on-path injector; the per-domain interrogation then asks the
        # resolver directly (paths are static, re-walking them half a
        # million times would be pure overhead).
        first = express_dns_probe(world.network, vantage.host,
                                  resolver_ip, domains[0])
        if not first.responded:
            continue
        manipulated: Set[str] = set()
        if first.injected:
            for domain in domains:
                answer = express_dns_probe(world.network, vantage.host,
                                           resolver_ip, domain)
                if answer.ok and _is_manipulated(answer.ips, deployment):
                    manipulated.add(domain)
        else:
            from ...dnssim.message import DNSQuery
            from .fastprobe import resolver_service_at

            service = resolver_service_at(world.network, resolver_ip)
            if service is None:
                continue
            for domain in domains:
                query = DNSQuery(qname=domain, qid=world.network.next_qid())
                answer = service.answer(query, resolver_ip)
                if answer.rcode != "NOERROR" or not answer.ips:
                    continue
                if _is_manipulated(answer.ips, deployment):
                    manipulated.add(domain)
        if manipulated:
            scan.censorious[resolver_ip] = manipulated
    return scan


def scan_isp_resolvers(
    world,
    isp_name: str,
    domains: Optional[Iterable[str]] = None,
    **sweep_kwargs,
) -> ResolverScanResult:
    """Convenience: sweep then interrogate."""
    scan = sweep_open_resolvers(world, isp_name, **sweep_kwargs)
    return identify_censorious(world, isp_name, scan, domains)


def _is_manipulated(ips, deployment) -> bool:
    for ip in ips:
        if is_bogon(ip):
            return True
        if deployment.pool.contains(ip):
            return True
    return False
