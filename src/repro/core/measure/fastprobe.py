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
from typing import Dict, List, Optional

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
                      client_ip: Optional[str] = None) -> List[tuple]:
    """(hop, box) pairs on the ECMP path, in traversal order.

    Cached per (client, destination, source address) until the
    network's topology generation moves.  Callers must treat the
    returned list as read-only — both express probe flavours only
    iterate it.
    """
    client_ip = client_ip or client.ip
    boxes = _memo(network, "boxes")
    key = (client.name, dst_ip, client_ip)
    found = boxes.get(key)
    if found is None:
        found = _walk_middleboxes(network, client, dst_ip, client_ip)
        boxes[key] = found
    return found


def _walk_middleboxes(network: Network, client: Host, dst_ip: str,
                      client_ip: str) -> List[tuple]:
    try:
        path = network.path_to(client, dst_ip, src_ip=client_ip)
    except RoutingError:
        return []
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

# Compiled delivery plans live in the network's "plans" memo, keyed
# (client, dst_ip, client_ip, dst_port) for HTTP plans and
# ("dns", client, resolver_ip) for DNS plans.

#: DNS-plan sentinel for unroutable resolvers (a miss we also memoize).
_UNROUTABLE = ("unroutable", ())


def _http_plan(network: Network, client: Host, dst_ip: str,
               client_ip: str, dst_port: int) -> tuple:
    """Compiled HTTP probe plan: ``(hop, box, matcher, blocklist)``.

    The per-box port and scope gates run once at compile time
    (:meth:`Middlebox.express_profile`); probing a payload is then one
    bound-method call per surviving box.  Boxes without a profile hook
    or a trigger spec (e.g. the DNS injector) compile to nothing, same
    as the seed loop's ``spec is None`` skip.
    """
    plans = _memo(network, "plans")
    key = (client.name, dst_ip, client_ip, dst_port)
    plan = plans.get(key)
    if plan is not None:
        network.express_plan_hits += 1
        return plan
    network.express_plan_builds += 1
    compiled = []
    for hop, box in middleboxes_along(network, client, dst_ip, client_ip):
        profile = getattr(box, "express_profile", None)
        if profile is not None:
            view = profile(client_ip, dst_port)
            if view is not None:
                compiled.append((hop, box, view[0], view[1]))
            continue
        spec = getattr(box, "spec", None)
        if (spec is not None and spec.inspects_port(dst_port)
                and box.in_scope(client_ip)):
            compiled.append((hop, box, spec.matched_domain, spec.blocklist))
    plan = tuple(compiled)
    plans[key] = plan
    return plan


def _dns_plan(network: Network, client: Host, resolver_ip: str) -> tuple:
    """Compiled DNS probe plan: ``(kind, injectors)``.

    ``injectors`` is the path's DNS injector boxes in traversal order.
    The resolver-service lookup and its config checks (open_to_world,
    client_filter) stay per-call — services can be bound and operators
    flip those at runtime, neither of which moves the topology
    generation.
    """
    plans = _memo(network, "plans")
    key = ("dns", client.name, resolver_ip)
    plan = plans.get(key)
    if plan is not None:
        network.express_plan_hits += 1
        return plan
    network.express_plan_builds += 1
    try:
        path = network.path_to(client, resolver_ip)
    except RoutingError:
        plan = _UNROUTABLE
    else:
        injectors = tuple(
            node.inline_middlebox
            for node in path[1:-1]
            if isinstance(node, Router)
            and isinstance(node.inline_middlebox, DNSInjectorMiddlebox)
        )
        plan = ("ok", injectors)
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
    if network.delivery_plans_enabled:
        for hop, box, matcher, _blocklist in _http_plan(
                network, client, dst_ip, client_ip, dst_port):
            domain = matcher(payload)
            if domain is not None:
                verdict = ExpressVerdict(censored=True, domain=domain,
                                         box=box, hop=hop)
                break
    else:
        for hop, box in middleboxes_along(network, client, dst_ip, client_ip):
            spec = getattr(box, "spec", None)
            if spec is None or not spec.inspects_port(dst_port):
                continue
            if not box.in_scope(client_ip):
                continue
            domain = spec.matched_domain(payload)
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


def express_canonical_probe(
    network: Network,
    client: Host,
    dst_ip: str,
    domain: str,
    *,
    client_ip: Optional[str] = None,
    boxes: Optional[List[tuple]] = None,
) -> ExpressVerdict:
    """Express probe for a *stock-browser* request for *domain*.

    A canonical request's Host line matches every trigger discipline,
    so the per-box check reduces to blocklist membership (plus scope) —
    orders of magnitude faster than byte matching when sweeping the
    full corpus.  Pass precomputed ``boxes`` when probing many domains
    down one path.
    """
    client_ip = client_ip or client.ip
    wanted = domain.lower()
    if boxes is None:
        if network.delivery_plans_enabled:
            for hop, box, _matcher, blocklist in _http_plan(
                    network, client, dst_ip, client_ip, 80):
                if wanted in blocklist:
                    return ExpressVerdict(censored=True, domain=wanted,
                                          box=box, hop=hop)
            return NOT_CENSORED
        boxes = middleboxes_along(network, client, dst_ip, client_ip)
    for hop, box in boxes:
        spec = getattr(box, "spec", None)
        if spec is None or not spec.inspects_port(80):
            continue
        if not box.in_scope(client_ip):
            continue
        if wanted in spec.blocklist:
            return ExpressVerdict(censored=True, domain=wanted,
                                  box=box, hop=hop)
    return NOT_CENSORED


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
    mid-path), then consults the resolver service itself.
    """
    if network.delivery_plans_enabled:
        kind, injectors = _dns_plan(network, client, resolver_ip)
        if kind == "unroutable":
            return NO_ANSWER
        bare = qname[4:] if qname.startswith("www.") else qname
        for box in injectors:
            if qname in box.blocklist or bare in box.blocklist:
                return ExpressDNSAnswer(
                    responded=True,
                    ips=(box.poison_strategy(qname),),
                    rcode="NOERROR", injected=True, injector=box,
                )
        service = resolver_service_at(network, resolver_ip)
    else:
        try:
            path = network.path_to(client, resolver_ip)
        except RoutingError:
            return NO_ANSWER
        for node in path[1:-1]:
            if isinstance(node, Router) and node.inline_middlebox is not None:
                box = node.inline_middlebox
                if isinstance(box, DNSInjectorMiddlebox):
                    bare = qname[4:] if qname.startswith("www.") else qname
                    if qname in box.blocklist or bare in box.blocklist:
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
    response: DNSResponse = service.answer(DNSQuery(qname=qname), resolver_ip)
    return ExpressDNSAnswer(responded=True, ips=tuple(response.ips),
                            rcode=response.rcode)
