"""Express-layer / packet-engine equivalence.

The benchmarks trust express probing for scale; these tests pin it to
the packet engine's behaviour on sampled (client, site) pairs.
"""

import random

import pytest

from repro.core.measure import (
    canonical_payload,
    express_dns_probe,
    express_http_probe,
    resolver_service_at,
)
from repro.dnssim import dns_lookup
from repro.httpsim import fetch_url
from repro.middlebox import looks_like_block_page


def engine_observes_censorship(world, client, ip, domain,
                               attempts=6) -> bool:
    """Packet-level fetch, retried to defeat wiretap races."""
    for _ in range(attempts):
        with client.capture.armed():
            result = fetch_url(world.network, client, ip, domain)
            world.network.run(until=world.network.now + 2.6)
            response = result.first_response
            if response is not None and looks_like_block_page(response.body):
                return True
            if result.got_rst and not result.ok:
                return True
            # A late (lost-race) injection still proves the trigger fired.
            if _late_block_page(client, ip):
                return True
    return False


def _late_block_page(client, ip) -> bool:
    assert client.capture.windows, "an unarmed capture records nothing"
    for entry in client.capture.entries[-40:]:
        packet = entry.packet
        if (entry.direction == "rx" and packet.is_tcp
                and packet.src == ip and packet.tcp.payload
                and looks_like_block_page(packet.tcp.payload)):
            return True
    return False


@pytest.fixture(scope="module")
def sampled_pairs(small_world):
    rng = random.Random(99)
    pairs = []
    for isp in ("airtel", "idea", "vodafone", "jio"):
        client = small_world.client_of(isp)
        blocked = sorted(small_world.blocklists.http[isp])
        clean = [s.domain for s in small_world.corpus.sites
                 if s.domain not in small_world.blocklists
                 .all_blocked_domains()]
        for domain in rng.sample(blocked, min(4, len(blocked))):
            pairs.append((isp, client, domain))
        for domain in rng.sample(clean, 2):
            pairs.append((isp, client, domain))
    return pairs


class TestHTTPEquivalence:
    def test_express_matches_engine(self, small_world, sampled_pairs):
        world = small_world
        for isp, client, domain in sampled_pairs:
            ip = world.hosting.ip_for(domain, "in")
            express = express_http_probe(world.network, client, ip,
                                         canonical_payload(domain))
            engine = engine_observes_censorship(world, client, ip, domain)
            assert express.censored == engine, (
                f"{isp}/{domain}: express={express.censored} "
                f"engine={engine}")

    def test_express_hop_matches_middlebox_router(self, small_world):
        world = small_world
        client = world.client_of("idea")
        for domain in sorted(world.blocklists.http["idea"])[:8]:
            ip = world.hosting.ip_for(domain, "in")
            verdict = express_http_probe(world.network, client, ip,
                                         canonical_payload(domain))
            if not verdict.censored:
                continue
            path = world.network.path_to(client, ip)
            assert path[verdict.hop] is verdict.box.router
            return
        pytest.skip("no censored idea domain in sample")


class TestDNSEquivalence:
    def test_express_matches_engine_for_resolvers(self, small_world):
        world = small_world
        rng = random.Random(7)
        deployment = world.isp("mtnl")
        client = deployment.client
        resolvers = [ip for ip, _ in deployment.resolvers]
        sample_domains = rng.sample(world.corpus.domains(), 5)
        for resolver_ip in rng.sample(resolvers, min(6, len(resolvers))):
            for domain in sample_domains:
                express = express_dns_probe(world.network, client,
                                            resolver_ip, domain)
                engine = dns_lookup(world.network, client, resolver_ip,
                                    domain, timeout=1.5)
                assert express.responded == engine.responded
                if engine.responded:
                    assert list(express.ips) == engine.ips

    def test_express_nonresolver_silent(self, small_world):
        world = small_world
        client = world.client_of("mtnl")
        answer = express_dns_probe(world.network, client,
                                   world.alexa[0].ip, "x.com")
        assert not answer.responded

    def test_resolver_service_lookup(self, small_world):
        world = small_world
        deployment = world.isp("mtnl")
        ip, service = deployment.resolvers[0]
        assert resolver_service_at(world.network, ip) is service
        assert resolver_service_at(world.network, world.alexa[0].ip) is None
