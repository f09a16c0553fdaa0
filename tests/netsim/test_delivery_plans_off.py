"""Delivery plans are pure memoization: without them nothing changes.

The oracles in ``reference_delivery.py`` stand for a network without
delivery plans: a forwarder that sends every packet hop by hop from
``next_hop``, and express walks over the seed router's path per call.
Two fresh worlds, one forwarding hop by hop, must agree on packet
fetches, DNS lookups and traceroutes down to the clock, the event count
and every drop; and every express HTTP, canonical and DNS verdict over
the corpus must equal the walks'.
"""

from contextlib import nullcontext

from repro.core.measure import canonical_payload, express_http_probe
from repro.core.measure.fastprobe import (
    express_canonical_blocked,
    express_dns_probe,
)
from repro.dnssim import dns_lookup
from repro.dnssim.resolver import ResolverConfig, ResolverService
from repro.httpsim import fetch_url
from repro.isps import build_world
from repro.middlebox import (COVERT, DNSInjectorMiddlebox,
                             InterceptiveMiddlebox, TriggerSpec)
from repro.netsim.devices import Router
from repro.netsim.traceroute import traceroute

from .reference_delivery import (canonical_verdict, dns_answer,
                                 hop_by_hop, http_verdict)
from .reference_router import ReferenceRouter

SEED = 1808
SCALE = 0.15

#: A host with a resolver service bound but no link, and an address no
#: node owns: express DNS probes to either must get no answer.
ISLAND_RESOLVER_IP = "198.51.100.53"
UNOWNED_IP = "198.51.100.54"


def _box(box):
    return None if box is None else (box.kind, getattr(box, "isp", None))


def _bare_router(path, behind_a_box=False):
    """The first router on *path* with neither a tap nor an inline
    box; with *behind_a_box*, the first such after one that has a box."""
    boxed = False
    for node in path[1:-1]:
        if not isinstance(node, Router):
            continue
        bare = not node.taps and node.inline_middlebox is None
        if bare and (boxed or not behind_a_box):
            return node
        boxed = boxed or not bare
    return None


def _world():
    """A fresh world, plus a DNS injector on airtel's path to 8.8.8.8
    (built worlds censor DNS only at resolvers), a second HTTP box
    behind the first on one of airtel's censored paths (built worlds
    put at most one box on a path, so the nearer of two matching boxes
    must win somewhere), and an unlinked resolver host (built worlds
    route to every resolver)."""
    world = build_world(seed=SEED, scale=SCALE)
    network = world.network
    client = world.client_of("airtel")
    blocked = sorted(world.blocklists.union_http())[:2]
    _bare_router(network.path_to(client, world.google_dns.ip)).attach_inline(
        DNSInjectorMiddlebox("injector", "airtel", frozenset(blocked),
                             lambda domain: "127.0.0.2"))
    airtel_blocked = frozenset(world.blocklists.http["airtel"])
    behind = next(filter(None, (
        _bare_router(network.path_to(client,
                                     world.hosting.ip_for(domain, "in")),
                     behind_a_box=True)
        for domain in sorted(airtel_blocked))))
    behind.attach_inline(InterceptiveMiddlebox(
        "second", "airtel", TriggerSpec(blocklist=airtel_blocked),
        mode=COVERT))
    island = network.add_host("island-resolver", ISLAND_RESOLVER_IP)
    ResolverService(world.global_dns, ResolverConfig(region="us")).install(
        island)
    return world, network


def _resolvers(world, deployment):
    ips = [world.google_dns.ip]
    if deployment.default_resolver_ip is not None:
        ips.append(deployment.default_resolver_ip)
    return ips


def _packet_level(forwarding):
    world, network = _world()
    with forwarding(network):
        return _fetch_resolve_trace(world, network)


def _fetch_resolve_trace(world, network):
    open_sites = [s.domain for s in world.corpus][:3]
    seen = []
    for name in sorted(world.isps):
        deployment = world.isp(name)
        client = deployment.client
        blocked = sorted(world.blocklists.http.get(name)
                         or world.blocklists.union_http())[:3]
        for domain in blocked + open_sites:
            ip = world.hosting.ip_for(domain, "in")
            result = fetch_url(network, client, ip, domain)
            seen.append((name, domain, result.connected, result.raw_stream,
                         result.got_fin, result.got_rst, result.timed_out,
                         result.started_at, result.finished_at,
                         result.attempts))
        for resolver_ip in _resolvers(world, deployment):
            for domain in blocked[:2] + open_sites[:1]:
                answer = dns_lookup(network, client, resolver_ip, domain)
                seen.append((name, domain, answer.ips, answer.rcode,
                             answer.responded, answer.responder_ip,
                             answer.rtt, answer.attempts))
        trace = traceroute(network, client,
                           world.hosting.ip_for(blocked[0], "in"))
        seen.append((name, trace.hops, trace.reached, trace.hop_count))
    network.run_until_idle()
    return (seen, network.now, network.events_processed,
            network.drop_stats(collapse=False))


def _express(world, http, canonical, dns):
    seen = []
    names = sorted(world.isps)
    for name, neighbour in zip(names, names[1:] + names[:1]):
        deployment = world.isp(name)
        client = deployment.client
        # Another ISP's address, outside this ISP's source-scoped boxes.
        foreign_ip = world.isp(neighbour).client.ip
        # Canonical probes send several Hosts down each path.
        blocked = sorted(world.blocklists.http.get(name)
                         or world.blocklists.union_http())[:4]
        for domain in world.corpus.domains():
            ip = world.hosting.ip_for(domain, "in")
            payload = canonical_payload(domain)
            for verdict in (
                    http(client, ip, payload),
                    http(client, ip, payload, dst_port=8080),
                    http(client, ip, payload, client_ip=foreign_ip)):
                seen.append((verdict.censored, verdict.domain, verdict.hop,
                             _box(verdict.box)))
            hosts = [domain.upper()] + blocked
            seen.append(canonical(client, ip, hosts))
            seen.append(canonical(client, ip, hosts, client_ip=foreign_ip))
            for resolver_ip in _resolvers(world, deployment) + [
                    ISLAND_RESOLVER_IP, UNOWNED_IP]:
                answer = dns(client, resolver_ip, domain)
                seen.append((answer.responded, answer.ips, answer.rcode,
                             answer.injected, _box(answer.injector)))
    return seen


def test_packet_level_outcomes_match_with_plans_off():
    with_plans = _packet_level(nullcontext)
    assert with_plans[2] > 1000  # the batch really ran
    assert with_plans == _packet_level(hop_by_hop)


def test_express_verdicts_match_with_plans_off():
    world, network = _world()
    with_plans = _express(
        world,
        lambda *args, **kw: express_http_probe(network, *args, **kw),
        lambda *args, **kw: express_canonical_blocked(network, *args, **kw),
        lambda *args: express_dns_probe(network, *args))
    assert any(entry[0] is True for entry in with_plans
               if isinstance(entry, tuple))
    assert any(entry for entry in with_plans if isinstance(entry, set))
    router = ReferenceRouter(network)
    assert with_plans == _express(
        world,
        lambda *args, **kw: http_verdict(router, *args, **kw),
        lambda client, ip, hosts, **kw: {
            host for host in hosts
            if canonical_verdict(router, client, ip, host, **kw).censored},
        lambda *args: dns_answer(router, *args))
