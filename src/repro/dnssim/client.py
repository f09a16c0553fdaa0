"""Client-side DNS lookups over the simulated network."""

from __future__ import annotations

from typing import List, Optional

from ..netsim.devices import Host
from ..netsim.engine import Network
from ..netsim.faults import backoff
from ..netsim.packets import Packet, make_udp_packet
from .message import DNS_PORT, DNSLookupResult, DNSQuery, DNSResponse

DEFAULT_DNS_TIMEOUT = 2.0

#: First ephemeral source port of DNS lookups, a pool of the network's
#: probe ports (:meth:`~repro.netsim.engine.Network.next_probe_port`).
_CLIENT_PORT_BASE = 30000


def dns_lookup(
    network: Network,
    client: Host,
    resolver_ip: str,
    qname: str,
    *,
    timeout: float = DEFAULT_DNS_TIMEOUT,
    ttl: int = 64,
    attempts: Optional[int] = None,
) -> DNSLookupResult:
    """Resolve *qname* via *resolver_ip*, retrying silent timeouts.

    One UDP query per attempt, each with a fresh qid and source port, an
    exponential-backoff pause between attempts.  Only *silence* is
    retried — any response, including NXDOMAIN or an injected poisoned
    answer, ends the lookup, so censorship signals are never masked by
    the retry loop.  ``attempts=None`` defers to the network's
    :class:`~repro.netsim.faults.HardeningPolicy` (a single attempt on a
    fault-free network, preserving seed behaviour).
    """
    total = (network.hardening.dns_attempts if attempts is None
             else max(1, attempts))
    result = DNSLookupResult(qname=qname, resolver_ip=resolver_ip)
    for attempt in range(1, total + 1):
        result = _lookup_once(network, client, resolver_ip, qname,
                              timeout=timeout, ttl=ttl)
        result.attempts = attempt
        if result.responded:
            break
        if attempt < total:
            network.client_retries["dns"] += 1
            trace = network.trace
            if trace is not None and trace.active:
                trace.emit("retry", network.now, layer="dns",
                           qname=qname, attempt=attempt)
            network.run(until=network.now + backoff(attempt))
    return result


def _lookup_once(
    network: Network,
    client: Host,
    resolver_ip: str,
    qname: str,
    *,
    timeout: float,
    ttl: int,
) -> DNSLookupResult:
    """Send one query and run the network until answered or timed out.

    The query can be TTL-limited (the DNS variant of Iterative Network
    Tracing sends the same query with increasing TTL to learn *which
    hop* answers — a middlebox injecting en route, or the resolver
    itself; section 3.2-III).
    """
    result = DNSLookupResult(qname=qname, resolver_ip=resolver_ip)
    src_port = network.next_probe_port(_CLIENT_PORT_BASE)
    query = DNSQuery(qname=qname, qid=network.next_qid())
    packet = make_udp_packet(client.ip, resolver_ip, src_port, DNS_PORT,
                             query, ttl=ttl)
    started = network.now

    def sniffer(now: float, incoming: Packet) -> None:
        if result.responded or not incoming.is_udp:
            return
        payload = incoming.udp.payload
        if not isinstance(payload, DNSResponse):
            return
        if payload.qid != query.qid or incoming.udp.dst_port != src_port:
            return
        result.responded = True
        result.responder_ip = incoming.src
        result.rcode = payload.rcode
        result.ips = list(payload.ips)
        result.rtt = now - started

    client.add_sniffer(sniffer)
    try:
        client.send_packet(packet)
        deadline = started + timeout
        while not result.responded and network.now < deadline:
            if network.pending_events == 0:
                break
            network.run(until=min(deadline, network.now + 0.25))
        if not result.responded:
            network.run(until=deadline)
    finally:
        client.remove_sniffer(sniffer)
    return result


def resolve_all(
    network: Network,
    client: Host,
    resolver_ip: str,
    qnames: List[str],
    **kwargs,
) -> List[DNSLookupResult]:
    """Sequentially resolve many names through one resolver."""
    return [dns_lookup(network, client, resolver_ip, qname, **kwargs)
            for qname in qnames]
