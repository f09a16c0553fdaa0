"""Assembling the whole measured world.

``build_world`` produces the complete simulated Internet the paper's
experiments run against:

* a two-router global core;
* the hosting substrate (content farms, CDN edges, parking providers)
  carrying the 1,200-site PBW corpus, plus the Alexa-style top-1000;
* the nine Indian ISPs and TATA, with their middlebox / poisoned-
  resolver deployments;
* stub-to-transit peering (with the Table 3 peering boxes);
* the external measurement estate: PlanetLab-style vantage points, the
  OONI control server, a Tor exit, Google public DNS (8.8.8.8) and a
  controlled remote web server.

Everything is seeded; ``scale`` shrinks corpus, Alexa list, resolver
counts and blocklists proportionally so tests can run on a small world
while the paper cells are judged on the full-size one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dnssim.resolver import ResolverConfig, ResolverService
from ..dnssim.zones import GlobalDNS
from ..httpsim.server import OriginServer
from ..netsim.addressing import Prefix, PrefixAllocator
from ..netsim.devices import Host, Router
from ..netsim.engine import Network
from ..netsim.faults import FaultInjector, FaultPlan, HardeningPolicy
from ..websites.alexa import AlexaSite, build_alexa_destinations
from ..websites.blocklists import BlocklistPlan, build_blocklists
from ..websites.corpus import Corpus
from ..websites.hosting import HostingDeployment, deploy_corpus
from .builder import ISPBuilder, ISPDeployment
from .profiles import PROFILES

DEFAULT_SEED = 1808

CORE_DELAY = 0.008
PEERING_DELAY = 0.004

#: Addresses of the external estate.
GOOGLE_DNS_IP = "8.8.8.8"
CONTROL_SERVER_IP = "38.100.0.10"
TOR_EXIT_IP = "171.25.193.10"
REMOTE_SERVER_IP = "141.212.120.10"


@dataclass
class World:
    """The fully-assembled simulated Internet."""

    network: Network
    global_dns: GlobalDNS
    corpus: Corpus
    blocklists: BlocklistPlan
    hosting: HostingDeployment
    alexa: List[AlexaSite]
    isps: Dict[str, ISPDeployment]
    core_routers: List[Router]
    vantage_points: List[Host]
    control_server: Host
    tor_exit: Host
    google_dns: Host
    remote_server: Host
    remote_origin: OriginServer
    remote_servers: List[Host] = field(default_factory=list)
    remote_origins: List[OriginServer] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    scale: float = 1.0

    def isp(self, name: str) -> ISPDeployment:
        try:
            return self.isps[name]
        except KeyError:
            raise KeyError(f"unknown ISP {name!r}; "
                           f"known: {sorted(self.isps)}") from None

    def client_of(self, isp: str) -> Host:
        return self.isp(isp).client

    def isp_owning(self, ip: str) -> Optional[str]:
        """Which ISP's address space contains *ip* (if any)."""
        for name, deployment in self.isps.items():
            if deployment.owns_ip(ip):
                return name
        return None

    def all_middleboxes(self) -> List[object]:
        boxes: List[object] = []
        for deployment in self.isps.values():
            boxes.extend(deployment.middleboxes)
            boxes.extend(deployment.peering_boxes.values())
        return boxes

    def install_faults(self, plan: FaultPlan,
                       hardening: Optional[HardeningPolicy] = None,
                       ) -> FaultInjector:
        """Activate faults (and client hardening) on this world's network."""
        return self.network.install_faults(plan, hardening)


def build_world(
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    *,
    isp_names: Optional[List[str]] = None,
) -> World:
    """Build the world.  ``isp_names`` restricts which ISPs exist
    (upstreams of selected stubs are always included)."""
    if isp_names is None:
        isp_names = list(PROFILES)
    isp_names = _close_over_upstreams(isp_names)

    network = Network()
    global_dns = GlobalDNS()
    rng = random.Random(seed)

    corpus_size = max(40, round(1200 * scale))
    alexa_size = max(30, round(1000 * scale))
    corpus = Corpus.build(seed=seed, size=corpus_size)
    blocklists = build_blocklists(corpus, seed=seed, scale=scale)

    core1 = network.add_router("core1", "5.0.0.1", asn=1)
    core2 = network.add_router("core2", "5.0.0.2", asn=1)
    network.link("core1", "core2", delay=CORE_DELAY)

    hosting_allocator = PrefixAllocator(Prefix.parse("95.0.0.0/12"))
    hosting = deploy_corpus(network, corpus, global_dns, "core2",
                            hosting_allocator, seed=seed)
    alexa = build_alexa_destinations(network, global_dns, "core1",
                                     hosting_allocator, size=alexa_size,
                                     seed=seed)

    isps: Dict[str, ISPDeployment] = {}
    builders: Dict[str, ISPBuilder] = {}
    for name in isp_names:
        isp_profile = PROFILES[name]
        builder = ISPBuilder(
            network, global_dns, isp_profile,
            http_blocklist=blocklists.http.get(name, frozenset()),
            dns_blocklist=blocklists.dns.get(name, frozenset()),
            seed=seed, scale=scale,
        )
        deployment = builder.build()
        isps[name] = deployment
        builders[name] = builder
        # Parking/CDN localization keys on Indian client addresses.
        hosting.indian_prefixes.append(deployment.pool)
        if isp_profile.connects_to_core:
            network.link(deployment.border.name, "core1", delay=CORE_DELAY)

    _wire_peering(network, isps, builders, scale)
    estate = _build_external_estate(network, global_dns, rng)

    return World(
        network=network,
        global_dns=global_dns,
        corpus=corpus,
        blocklists=blocklists,
        hosting=hosting,
        alexa=alexa,
        isps=isps,
        core_routers=[core1, core2],
        seed=seed,
        scale=scale,
        **estate,
    )


def _close_over_upstreams(names: List[str]) -> List[str]:
    """Include every selected stub's transit providers."""
    selected = list(dict.fromkeys(names))
    changed = True
    while changed:
        changed = False
        for name in list(selected):
            for upstream, _ in PROFILES[name].upstreams:
                if upstream not in selected:
                    selected.append(upstream)
                    changed = True
    return selected


def _wire_peering(network: Network, isps: Dict[str, ISPDeployment],
                  builders: Dict[str, ISPBuilder], scale: float) -> None:
    """Connect stubs to their transit providers through peering routers
    carrying the Table 3 collateral-damage boxes."""
    for stub_name, deployment in isps.items():
        stub_profile = deployment.profile
        for upstream_name, weight in stub_profile.upstreams:
            transit = isps[upstream_name]
            transit_builder = builders[upstream_name]
            peer_router = network.add_router(
                f"{upstream_name}-peer-{stub_name}",
                transit_builder.allocator.allocate_address(),
                transit.profile.asn,
            )
            network.link(peer_router.name, transit.border.name,
                         delay=PEERING_DELAY)
            list_size = transit.profile.peering_list_sizes.get(stub_name, 0)
            if transit.profile.censors_http and list_size > 0:
                scaled = max(1, round(list_size * scale))
                transit_builder.add_peering_box(stub_name, peer_router,
                                                scaled)
            # Parallel equal-cost feeders implement the traffic split.
            for lane in range(weight):
                feeder = network.add_router(
                    f"{stub_name}-up-{upstream_name}-{lane}",
                    builders[stub_name].allocator.allocate_address(),
                    stub_profile.asn,
                )
                network.link(deployment.border.name, feeder.name,
                             delay=PEERING_DELAY)
                network.link(feeder.name, peer_router.name,
                             delay=PEERING_DELAY)


def _build_external_estate(network: Network, global_dns: GlobalDNS,
                           rng: random.Random) -> dict:
    """Vantage points, control server, Tor exit, Google DNS, remote
    controlled server."""
    vantage_points: List[Host] = []
    for index in range(5):
        vp = network.add_host(f"vp{index}", f"198.160.{index}.10",
                              asn=20000 + index)
        network.link(vp.name, "core2", delay=CORE_DELAY)
        vantage_points.append(vp)

    google_dns = network.add_host("google-dns", GOOGLE_DNS_IP, asn=15169)
    network.link(google_dns.name, "core1", delay=CORE_DELAY)
    ResolverService(global_dns, ResolverConfig(region="us")).install(
        google_dns)

    control_server = network.add_host("ooni-control", CONTROL_SERVER_IP,
                                      asn=394089)
    network.link(control_server.name, "core2", delay=CORE_DELAY)

    tor_exit = network.add_host("tor-exit", TOR_EXIT_IP, asn=198093)
    network.link(tor_exit.name, "core2", delay=CORE_DELAY)

    # "An array of hosts we controlled in different networks" —
    # PlanetLab nodes, cloud instances, university machines
    # (section 4.2.1).  Several addresses in distinct ASes give the
    # controlled-server experiments path diversity inside each ISP.
    remote_addresses = (
        (REMOTE_SERVER_IP, 36375),       # PlanetLab-style
        ("128.232.10.10", 786),          # university
        ("13.107.42.10", 8075),          # cloud
        ("160.36.10.10", 3450),          # university
        ("35.160.10.10", 16509),         # cloud
        ("104.196.10.10", 15169),        # cloud
        ("192.33.90.10", 559),           # university
        ("129.97.10.10", 12093),         # university
        ("51.15.10.10", 12876),          # cloud
        ("139.19.10.10", 680),           # research
    )
    remote_servers: List[Host] = []
    remote_origins: List[OriginServer] = []
    for index, (ip, asn) in enumerate(remote_addresses):
        host = network.add_host(f"remote-server{index}" if index else
                                "remote-server", ip, asn=asn)
        network.link(host.name, "core2" if index % 2 == 0 else "core1",
                     delay=CORE_DELAY)
        origin = OriginServer(name=host.name)
        origin.install(host)
        remote_servers.append(host)
        remote_origins.append(origin)

    return {
        "vantage_points": vantage_points,
        "control_server": control_server,
        "tor_exit": tor_exit,
        "google_dns": google_dns,
        "remote_server": remote_servers[0],
        "remote_origin": remote_origins[0],
        "remote_servers": remote_servers,
        "remote_origins": remote_origins,
    }
