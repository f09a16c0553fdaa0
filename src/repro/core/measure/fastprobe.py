"""Express probing: path-walk verdicts without packet simulation.

Full packet simulation costs ~2 ms per fetch; the coverage experiments
of section 4.2.2 need millions of (destination, Host) probes.  The
express layer answers "would this request be censored, and by which
box?" by walking the ECMP path once and applying each middlebox's
trigger discipline directly — the same :class:`TriggerSpec` objects the
packet-level middleboxes use, so there is no second implementation of
matching to drift.

Express probing intentionally assumes a *patient* prober: wiretap
race-losses (miss_rate) are ignored, matching the paper's methodology
of counting a path poisoned when even a single probe elicits
censorship.  Equivalence with the packet engine is covered by property
tests in ``tests/measure/test_fastprobe_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ...dnssim.message import DNSQuery, DNSResponse
from ...dnssim.resolver import ResolverService
from ...httpsim.message import GetRequestSpec
from ...middlebox.dns_injector import DNSInjectorMiddlebox
from ...netsim.devices import Host, Router
from ...netsim.engine import Network
from ...netsim.errors import RoutingError


@dataclass
class ExpressVerdict:
    """Outcome of one express HTTP probe."""

    censored: bool
    domain: Optional[str] = None
    box: Optional[object] = None
    hop: Optional[int] = None

    @property
    def box_kind(self) -> Optional[str]:
        return getattr(self.box, "kind", None) if self.box else None

    @property
    def box_isp(self) -> Optional[str]:
        return getattr(self.box, "isp", None) if self.box else None

    @property
    def covert(self) -> bool:
        """True when censorship manifests as a bare reset."""
        return getattr(self.box, "mode", None) == "covert"


NOT_CENSORED = ExpressVerdict(censored=False)


def _memo(network: Network, name: str) -> Dict:
    """The network's *name* memo (see ``Network.express_memos``).

    Stamped with the topology generation, so any topology or
    middlebox change retires it.
    """
    generation = network.topology_generation
    entry = network.express_memos.get(name)
    if entry is None or entry[0] != generation:
        entry = (generation, {})
        network.express_memos[name] = entry
    return entry[1]


def middleboxes_along(network: Network, client: Host, dst_ip: str,
                      client_ip: Optional[str] = None
                      ) -> Optional[List[tuple]]:
    """(hop, box) pairs on the ECMP path, in traversal order, or
    ``None`` when no route reaches *dst_ip*.

    Cached per (client, destination, source address) until the
    network's topology generation moves, unroutable paths included.
    Only :func:`express_dns_probe` asks, so the memo holds resolver
    paths; HTTP paths live compiled in :func:`_http_plan`'s memo
    instead.  Callers must treat the returned list as read-only — the
    express probes only iterate it.
    """
    client_ip = client_ip or client.ip
    boxes = _memo(network, "boxes")
    key = (client.name, dst_ip, client_ip)
    try:
        return boxes[key]
    except KeyError:
        found = boxes[key] = _walk_middleboxes(network, client, dst_ip,
                                               client_ip)
        return found


def _walk_middleboxes(network: Network, client: Host, dst_ip: str,
                      client_ip: str) -> Optional[List[tuple]]:
    try:
        path = network.path_to(client, dst_ip, src_ip=client_ip)
    except RoutingError:
        return None
    found = []
    for hop, node in enumerate(path[1:], start=1):
        if isinstance(node, Router):
            for box in node.taps:
                found.append((hop, box))
            if node.inline_middlebox is not None:
                found.append((hop, node.inline_middlebox))
    return found


# ---------------------------------------------------------------------------
# Precompiled delivery plans
# ---------------------------------------------------------------------------

# Compiled HTTP plans live in the network's "plans" memo, keyed
# (client, dst_ip, client_ip, dst_port).


def _http_plan(network: Network, client: Host, dst_ip: str,
               client_ip: str, dst_port: int) -> tuple:
    """Compiled HTTP probe plan: ``(hop, box, matcher, blocklist)``.

    The per-box port and scope gates run once at compile time
    (:meth:`Middlebox.express_profile`); probing a payload is then one
    bound-method call per surviving box.  Boxes without a profile hook
    (e.g. the DNS injector) compile to nothing.  A miss walks the path
    itself (:func:`_walk_middleboxes`) rather than through
    :func:`middleboxes_along`, so the plan is the only memo that keeps
    an HTTP path.
    """
    plans = _memo(network, "plans")
    key = (client.name, dst_ip, client_ip, dst_port)
    plan = plans.get(key)
    if plan is not None:
        network.express_plan_hits += 1
        return plan
    network.express_plan_builds += 1
    compiled = []
    for hop, box in _walk_middleboxes(network, client, dst_ip,
                                      client_ip) or ():
        profile = getattr(box, "express_profile", None)
        if profile is not None:
            view = profile(client_ip, dst_port)
            if view is not None:
                compiled.append((hop, box, view[0], view[1]))
    plan = tuple(compiled)
    plans[key] = plan
    return plan


def express_http_probe(
    network: Network,
    client: Host,
    dst_ip: str,
    payload: bytes,
    *,
    dst_port: int = 80,
    client_ip: Optional[str] = None,
) -> ExpressVerdict:
    """Would this request payload be censored en route?"""
    client_ip = client_ip or client.ip
    verdict = NOT_CENSORED
    for hop, box, matcher, _blocklist in _http_plan(
            network, client, dst_ip, client_ip, dst_port):
        domain = matcher(payload)
        if domain is not None:
            verdict = ExpressVerdict(censored=True, domain=domain,
                                     box=box, hop=hop)
            break
    trace = network.trace
    if trace is not None and trace.active:
        trace.emit("probe", network.now, client=client.name, dst=dst_ip,
                   censored=verdict.censored, domain=verdict.domain,
                   hop=verdict.hop)
    return verdict


def express_canonical_blocked(
    network: Network,
    client: Host,
    dst_ip: str,
    domains: Sequence[str],
    *,
    client_ip: Optional[str] = None,
) -> Set[str]:
    """Which of *domains* a *stock-browser* request down this path
    would have censored.

    A canonical request's Host line matches every trigger discipline,
    so the per-box check reduces to blocklist membership over the
    path's port-80 plan, compiled once for all *domains* — orders of
    magnitude faster than byte matching when sweeping the full corpus.
    """
    blocked: Set[str] = set()
    for _hop, _box, _matcher, blocklist in _http_plan(
            network, client, dst_ip, client_ip or client.ip, 80):
        blocked.update(domain for domain in domains
                       if domain.lower() in blocklist)
    return blocked


def canonical_payload(domain: str) -> bytes:
    """The stock-browser request express probes model."""
    return GetRequestSpec(domain=domain).to_bytes()


# ---------------------------------------------------------------------------
# DNS express probing
# ---------------------------------------------------------------------------

@dataclass
class ExpressDNSAnswer:
    """Outcome of one express DNS probe."""

    responded: bool
    ips: tuple = ()
    rcode: Optional[str] = None
    injected: bool = False
    injector: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.responded and self.rcode == "NOERROR" and bool(self.ips)


NO_ANSWER = ExpressDNSAnswer(responded=False)


def resolver_service_at(network: Network, resolver_ip: str
                        ) -> Optional[ResolverService]:
    """The resolver service listening at *resolver_ip*, if any."""
    owner = network.owner_of(resolver_ip)
    if not isinstance(owner, Host):
        return None
    handler = owner.udp_services.get(53)
    if handler is None:
        return None
    service = getattr(handler, "__self__", None)
    if isinstance(service, ResolverService):
        return service
    return None


def express_dns_probe(
    network: Network,
    client: Host,
    resolver_ip: str,
    qname: str,
) -> ExpressDNSAnswer:
    """Would this query get an answer, and what would it say?

    Walks the path for inline DNS injectors first (they answer from
    mid-path), then consults the resolver service itself.  The
    resolver-service lookup and its config checks (open_to_world,
    client_filter) run per call: services can be bound and operators
    flip those at runtime, neither of which moves the topology
    generation.
    """
    boxes = middleboxes_along(network, client, resolver_ip)
    if boxes is None:
        return NO_ANSWER
    bare = qname[4:] if qname.startswith("www.") else qname
    for _hop, box in boxes:
        if (isinstance(box, DNSInjectorMiddlebox)
                and (qname in box.blocklist or bare in box.blocklist)):
            return ExpressDNSAnswer(
                responded=True,
                ips=(box.poison_strategy(qname),),
                rcode="NOERROR", injected=True, injector=box,
            )
    service = resolver_service_at(network, resolver_ip)
    if service is None:
        return NO_ANSWER
    config = service.config
    if not config.open_to_world:
        allowed = config.client_filter
        if allowed is None or not allowed(client.ip):
            return NO_ANSWER
    query = DNSQuery(qname=qname, qid=network.next_qid())
    response: DNSResponse = service.answer(query, resolver_ip)
    return ExpressDNSAnswer(responded=True, ips=tuple(response.ips),
                            rcode=response.rcode)
