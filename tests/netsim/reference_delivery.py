"""Hop-by-hop forwarding and seed express walks, kept as test-only
reference oracles for delivery plans.

:class:`repro.netsim.Network` forwards every packet by a compiled
delivery plan, which fuses chains of pure-transit routers into one
event, and the express probes of ``repro.core.measure.fastprobe``
answer from compiled per-path plans.  Both are memoization, so both
must agree with what this module does from scratch:

* :func:`hop_by_hop` makes one ``Network`` instance send each packet
  one link at a time, asking ``network.next_hop`` at every router;
* :func:`http_verdict`, :func:`canonical_verdict` and
  :func:`dns_answer` walk the boxes on a
  :class:`~tests.netsim.reference_router.ReferenceRouter` path on
  every call and apply each box's trigger spec directly.
"""

import contextlib
from typing import Optional

from repro.core.measure.fastprobe import (
    NO_ANSWER,
    NOT_CENSORED,
    ExpressDNSAnswer,
    ExpressVerdict,
    resolver_service_at,
)
from repro.dnssim.message import DNSQuery
from repro.middlebox.dns_injector import DNSInjectorMiddlebox
from repro.netsim.engine import Network
from repro.netsim.errors import RoutingError

from .reference_router import ReferenceRouter


@contextlib.contextmanager
def hop_by_hop(network: Network):
    """Forward every packet on *network* one link at a time while the
    block runs: no compiled plan, no transit fusion."""

    def dispatch(node, packet, transit):
        if network.ip_owner.get(packet.dst) is node:
            network.call_later(0.0, network._deliver_local, node, packet)
            return
        nxt = network.next_hop(node, packet.dst, packet.src)
        if nxt is None:
            network._drop(f"no-route:{node.name}" if transit
                          else "no-route", packet)
            return
        network._forward_link(node, nxt, packet,
                              network.adjacency[node.name][nxt.name])

    network._dispatch = dispatch
    try:
        yield network
    finally:
        del network._dispatch


def _inspecting(router: ReferenceRouter, client, dst_ip: str,
                client_ip: str, dst_port: int):
    """``(hop, box, spec)`` for each box on the path that inspects
    *dst_port* traffic from *client_ip*."""
    for hop, box in router.boxes_along(client, dst_ip, client_ip):
        spec = getattr(box, "spec", None)
        if (spec is not None and spec.inspects_port(dst_port)
                and box.in_scope(client_ip)):
            yield hop, box, spec


def http_verdict(router: ReferenceRouter, client, dst_ip: str,
                 payload: bytes, *, dst_port: int = 80,
                 client_ip: Optional[str] = None) -> ExpressVerdict:
    """What ``express_http_probe`` must answer."""
    client_ip = client_ip or client.ip
    for hop, box, spec in _inspecting(router, client, dst_ip, client_ip,
                                      dst_port):
        domain = spec.matched_domain(payload)
        if domain is not None:
            return ExpressVerdict(censored=True, domain=domain, box=box,
                                  hop=hop)
    return NOT_CENSORED


def canonical_verdict(router: ReferenceRouter, client, dst_ip: str,
                      domain: str, *, client_ip: Optional[str] = None
                      ) -> ExpressVerdict:
    """Whether ``express_canonical_blocked`` must count *domain* as
    censored down this path."""
    client_ip = client_ip or client.ip
    wanted = domain.lower()
    for hop, box, spec in _inspecting(router, client, dst_ip, client_ip,
                                      80):
        if wanted in spec.blocklist:
            return ExpressVerdict(censored=True, domain=wanted, box=box,
                                  hop=hop)
    return NOT_CENSORED


def dns_answer(router: ReferenceRouter, client, resolver_ip: str,
               qname: str) -> ExpressDNSAnswer:
    """What ``express_dns_probe`` must answer: an injector on the path
    answers first, then the resolver service itself."""
    try:
        path = router.path_to(client, resolver_ip)
    except RoutingError:
        return NO_ANSWER
    bare = qname[4:] if qname.startswith("www.") else qname
    for node in path[1:-1]:
        box = getattr(node, "inline_middlebox", None)
        if (isinstance(box, DNSInjectorMiddlebox)
                and (qname in box.blocklist or bare in box.blocklist)):
            return ExpressDNSAnswer(
                responded=True, ips=(box.poison_strategy(qname),),
                rcode="NOERROR", injected=True, injector=box)
    service = resolver_service_at(router.network, resolver_ip)
    if service is None:
        return NO_ANSWER
    config = service.config
    if not config.open_to_world:
        allowed = config.client_filter
        if allowed is None or not allowed(client.ip):
            return NO_ANSWER
    query = DNSQuery(qname=qname, qid=router.network.next_qid())
    response = service.answer(query, resolver_ip)
    return ExpressDNSAnswer(responded=True, ips=tuple(response.ips),
                            rcode=response.rcode)
