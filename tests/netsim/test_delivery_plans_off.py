"""Delivery plans are pure memoization: turning them off changes nothing.

``Network.delivery_plans_enabled = False`` sends every packet hop by
hop over the FIB and makes express probes walk the middlebox chain per
call.  Two fresh worlds, one with the switch off, must agree on packet
fetches, DNS lookups and traceroutes down to the clock, the event count
and every drop, and on every express HTTP, canonical and DNS verdict
over the corpus.
"""

from repro.core.measure import canonical_payload, express_http_probe
from repro.core.measure.fastprobe import (
    express_canonical_probe,
    express_dns_probe,
)
from repro.dnssim import dns_lookup
from repro.httpsim import fetch_url
from repro.isps import build_world
from repro.middlebox import DNSInjectorMiddlebox
from repro.netsim.devices import Router
from repro.netsim.traceroute import traceroute

SEED = 1808
SCALE = 0.15


def _box(box):
    return None if box is None else (box.kind, getattr(box, "isp", None))


def _world(plans: bool):
    """A fresh world, plus a DNS injector on airtel's path to 8.8.8.8
    (built worlds censor DNS only at resolvers)."""
    world = build_world(seed=SEED, scale=SCALE)
    network = world.network
    blocked = sorted(world.blocklists.union_http())[:2]
    path = network.path_to(world.client_of("airtel"), world.google_dns.ip)
    router = next(node for node in path[1:-1] if isinstance(node, Router)
                  and node.inline_middlebox is None)
    router.attach_inline(DNSInjectorMiddlebox(
        "injector", "airtel", frozenset(blocked), lambda domain: "127.0.0.2"))
    network.delivery_plans_enabled = plans
    return world, network


def _resolvers(world, deployment):
    ips = [world.google_dns.ip]
    if deployment.default_resolver_ip is not None:
        ips.append(deployment.default_resolver_ip)
    return ips


def _packet_level(plans: bool):
    world, network = _world(plans)
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


def _express(plans: bool):
    world, network = _world(plans)
    seen = []
    for name in sorted(world.isps):
        deployment = world.isp(name)
        client = deployment.client
        for domain in world.corpus.domains():
            ip = world.hosting.ip_for(domain, "in")
            for verdict in (
                    express_http_probe(network, client, ip,
                                       canonical_payload(domain)),
                    express_canonical_probe(network, client, ip, domain)):
                seen.append((verdict.censored, verdict.domain, verdict.hop,
                             _box(verdict.box)))
            for resolver_ip in _resolvers(world, deployment):
                answer = express_dns_probe(network, client, resolver_ip,
                                           domain)
                seen.append((answer.responded, answer.ips, answer.rcode,
                             answer.injected, _box(answer.injector)))
    return seen


def test_packet_level_outcomes_match_with_plans_off():
    with_plans = _packet_level(True)
    assert with_plans[2] > 1000  # the batch really ran
    assert with_plans == _packet_level(False)


def test_express_verdicts_match_with_plans_off():
    with_plans = _express(True)
    assert any(entry[0] is True for entry in with_plans)
    assert with_plans == _express(False)
