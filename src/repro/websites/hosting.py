"""Deploying the corpus into the simulated Internet.

Creates the hosting substrate — content farms, CDN edges, parking
providers — attaches them behind a given core router, registers every
site in the global DNS with realistic address structure, and returns a
deployment object the measurement layer can query for ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dnssim.zones import GlobalDNS, REGIONS
from ..httpsim.parsing import ParsedRequest
from ..httpsim.server import OriginServer
from ..netsim.addressing import PrefixAllocator
from ..netsim.devices import Host
from ..netsim.engine import Network
from .content import PARKING_PROVIDERS, page_response, parked_response
from .corpus import Corpus, Website

#: Number of shared-hosting farm hosts.
FARM_COUNT = 24
#: Number of sites sharing one address on a shared-hosting farm.
SHARED_SITES_PER_IP = 4

HOSTING_ASN_BASE = 60000


@dataclass
class HostingDeployment:
    """Where every site ended up."""

    network: Network
    global_dns: GlobalDNS
    farms: List[Host] = field(default_factory=list)
    cdn_edges: Dict[str, Host] = field(default_factory=dict)
    parking_hosts: Dict[str, Host] = field(default_factory=dict)
    origin_servers: Dict[str, OriginServer] = field(default_factory=dict)
    https_servers: Dict[str, object] = field(default_factory=dict)
    #: Prefixes whose clients are served the "in" regional variants
    #: (parking-page localization); the world assembler appends every
    #: Indian ISP pool here after building it.
    indian_prefixes: List = field(default_factory=list)

    def client_region(self, client_ip: str) -> str:
        for prefix in self.indian_prefixes:
            if prefix.contains(client_ip):
                return "in"
        return "us"
    #: domain -> the address a client in `region` should reach.
    regional_ip: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def authoritative_ips(self, domain: str) -> List[str]:
        """Every legitimate address for *domain*, any region."""
        return self.global_dns.all_addresses(domain)

    def ip_for(self, domain: str, region: str = "us") -> Optional[str]:
        per_region = self.regional_ip.get(domain)
        if per_region is None:
            return None
        return per_region.get(region) or next(iter(per_region.values()), None)


def deploy_corpus(
    network: Network,
    corpus: Corpus,
    global_dns: GlobalDNS,
    attach_router: str,
    allocator: PrefixAllocator,
    *,
    seed: int = 1808,
    link_delay: float = 0.004,
) -> HostingDeployment:
    """Build the hosting substrate and register all corpus sites."""
    rng = random.Random(seed)
    deployment = HostingDeployment(network=network, global_dns=global_dns)

    _build_farms(network, deployment, attach_router, allocator, link_delay)
    _build_cdn(network, deployment, attach_router, allocator, link_delay)
    _build_parking(network, deployment, attach_router, allocator, link_delay)

    shared_slots: List[dict] = []  # currently-filling shared-hosting slot
    for site in corpus:
        if site.hosting == "dead":
            _host_dead_site(site, deployment, rng)
        elif site.hosting == "cdn":
            _host_cdn_site(site, deployment, allocator)
        elif site.hosting == "shared":
            _host_shared_site(site, deployment, allocator, rng, shared_slots)
        else:
            _host_normal_site(site, deployment, allocator, rng)
    return deployment


# ---------------------------------------------------------------------------
# Substrate construction
# ---------------------------------------------------------------------------

def _build_farms(network, deployment, attach_router, allocator, delay):
    for index in range(FARM_COUNT):
        ip = allocator.allocate_address()
        host = network.add_host(f"farm{index}", ip,
                                asn=HOSTING_ASN_BASE + index)
        network.link(host.name, attach_router, delay=delay)
        server = OriginServer(name=host.name)
        server.install(host)
        deployment.farms.append(host)
        deployment.origin_servers[host.name] = server


def _build_cdn(network, deployment, attach_router, allocator, delay):
    for region in REGIONS:
        ip = allocator.allocate_address()
        host = network.add_host(f"cdn-{region}", ip,
                                asn=HOSTING_ASN_BASE + 500)
        network.link(host.name, attach_router, delay=delay)
        server = OriginServer(name=host.name)
        server.install(host)
        deployment.cdn_edges[region] = host
        deployment.origin_servers[host.name] = server


def _build_parking(network, deployment, attach_router, allocator, delay):
    for provider in PARKING_PROVIDERS:
        ip = allocator.allocate_address()
        host = network.add_host(f"park-{provider}", ip,
                                asn=HOSTING_ASN_BASE + 900)
        network.link(host.name, attach_router, delay=delay)
        server = OriginServer(name=host.name)
        server.install(host)
        deployment.parking_hosts[provider] = host
        deployment.origin_servers[host.name] = server


# ---------------------------------------------------------------------------
# Per-site hosting
# ---------------------------------------------------------------------------

def _normal_handler(site: Website, region: str):
    serial = {"n": 0}

    def handler(request: ParsedRequest, client_ip: str):
        serial["n"] += 1
        # Dynamic pages change per fetch; static ones never do.
        nonce = serial["n"] if site.dynamic else 0
        return page_response(site, region=region, nonce=nonce)

    return handler


def _host_normal_site(site, deployment, allocator, rng):
    farm = rng.choice(deployment.farms)
    ip = allocator.allocate_address()
    farm.add_ip(ip)
    server = deployment.origin_servers[farm.name]
    if site.https:
        _host_https_site(site, deployment, farm, server)
    else:
        server.add_domain(site.domain, _normal_handler(site, "us"))
    deployment.global_dns.add_simple(site.domain, [ip])
    deployment.regional_ip[site.domain] = {r: ip for r in REGIONS}


def _host_https_site(site, deployment, farm, http_server):
    """TLS-served site: port 443 carries the content, port 80 only a
    redirect — so middlebox censorship has no HTTP payload to match."""
    from ..httpsim.https import HTTPSOriginServer
    from ..httpsim.message import make_response

    def redirect_handler(request: ParsedRequest, client_ip: str,
                         domain=site.domain):
        return make_response(
            301,
            (f"<html><body>Moved to https://{domain}/"
             f"</body></html>").encode("latin-1"),
            extra_headers=(("Location", f"https://{domain}/"),),
        )

    http_server.add_domain(site.domain, redirect_handler)

    https_server = deployment.https_servers.get(farm.name)
    if https_server is None:
        https_server = HTTPSOriginServer(name=f"{farm.name}-tls")
        https_server.install(farm)
        deployment.https_servers[farm.name] = https_server

    def tls_handler(sni: str, client_ip: str, s=site):
        return page_response(s, region="us")

    https_server.add_domain(site.domain, tls_handler)


def _host_shared_site(site, deployment, allocator, rng, shared_slots):
    # ``shared_slots`` holds the currently-filling slot: several sites
    # deliberately share one address, the legitimate-shared-hosting case
    # the authors' frequency analysis must not misfire on.
    if not shared_slots or shared_slots[0]["count"] >= SHARED_SITES_PER_IP:
        farm = rng.choice(deployment.farms)
        ip = allocator.allocate_address()
        farm.add_ip(ip)
        shared_slots[:] = [{"ip": ip, "farm": farm.name, "count": 0}]
    slot = shared_slots[0]
    slot["count"] += 1
    server = deployment.origin_servers[slot["farm"]]
    server.add_domain(site.domain, _normal_handler(site, "us"))
    deployment.global_dns.add_simple(site.domain, [slot["ip"]])
    deployment.regional_ip[site.domain] = {r: slot["ip"] for r in REGIONS}


def _host_cdn_site(site, deployment, allocator):
    by_region: Dict[str, List[str]] = {}
    for region, edge in deployment.cdn_edges.items():
        ip = allocator.allocate_address()
        edge.add_ip(ip)
        server = deployment.origin_servers[edge.name]
        server.add_domain(site.domain, _normal_handler(site, region))
        by_region[region] = [ip]
    deployment.global_dns.add_regional(site.domain, by_region)
    deployment.regional_ip[site.domain] = {
        region: ips[0] for region, ips in by_region.items()
    }


def _host_dead_site(site, deployment, rng):
    provider = rng.choice(PARKING_PROVIDERS)
    park_host = deployment.parking_hosts[provider]
    server = deployment.origin_servers[park_host.name]

    def handler(request: ParsedRequest, client_ip: str,
                domain=site.domain, provider=provider):
        # Parking pages localize by requester origin: clients inside
        # the (late-registered) Indian ISP prefixes see the "in" ads.
        region = deployment.client_region(client_ip)
        return parked_response(domain, provider, region)

    server.add_domain(site.domain, handler)
    ip = park_host.ip
    deployment.global_dns.add_simple(site.domain, [ip])
    deployment.regional_ip[site.domain] = {r: ip for r in REGIONS}
