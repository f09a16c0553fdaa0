"""Section 3.2-III — DNS poisoning vs injection, by iterative tracing.

For censorious resolvers in MTNL and BSNL, send the blocked query with
increasing TTL: the manipulated answer must arrive only from the last
hop (poisoning).  As a control, the same tracer is pointed at a
synthetic GFW-style injector deployment where the answer provably comes
from an intermediate hop — demonstrating the tracer can tell the two
mechanisms apart.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Dict, List

from ..core.measure.fastprobe import resolver_service_at
from ..core.measure.tracer import DNSTraceResult, dns_iterative_trace
from ..dnssim.resolver import ResolverConfig, ResolverService
from ..dnssim.zones import GlobalDNS
from ..isps.profiles import DNS_FILTERING_ISPS
from ..middlebox.dns_injector import DNSInjectorMiddlebox
from ..netsim.engine import Network
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
)


#: Censorious resolvers traced per ISP.
RESOLVERS_PER_ISP = 5

#: Campaign decomposition: one unit per DNS-censoring ISP plus the
#: synthetic GFW-style injector control.
CAMPAIGN = TableSpec(
    title="Section 3.2-III: DNS poisoning vs injection",
    headers=("ISP", "resolvers traced", "answer hop = last hop",
             "mechanism"),
)

#: Paper cells (§3.2-III): MTNL and BSNL poison their resolvers; the
#: synthetic control shows what the GFW's injection looks like.
CELLS = (
    Cell("mtnl", "mechanism", "poisoning", "poisoning"),
    Cell("bsnl", "mechanism", "poisoning", "poisoning"),
    Cell("synthetic-injector", "mechanism", "injection", "injection"),
)

CHECKS = (
    Check("every traced resolver answers from its own hop",
          lambda m: all(m[isp]["traced"] > 0
                        and m[isp]["answered at last hop"]
                        == m[isp]["traced"]
                        for isp in DNS_FILTERING_ISPS)),
    Check("the injector's answer arrives before the resolver's hop",
          lambda m: m["synthetic-injector"]["answer hop"]
          < m["synthetic-injector"]["resolver hop"]),
)


def measured(rows: List[List]) -> Dict[str, object]:
    """A unit's trace findings from its payload rows: traces, those
    answered from the resolver's own hop, and the mechanism; the
    synthetic injector's row gives the hops instead."""
    name, traced, hops, mechanism = rows[0]
    if name == "(synthetic GFW)":
        answer, _, resolver = hops.replace("answer at hop ", "").partition(
            " of ")
        return {"traced": traced, "answer hop": int(answer),
                "resolver hop": int(resolver), "mechanism": mechanism}
    last_hop, _, _ = hops.partition("/")
    return {"traced": traced, "answered at last hop": int(last_hop),
            "mechanism": mechanism}


def units():
    """One campaign unit per DNS-censoring ISP, plus the synthetic
    injector control."""
    for isp in DNS_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))
    yield Unit("synthetic-injector", _measure_injector)


def _measure(isp: str, world, domains):
    """Trace a blocked query to each of *isp*'s first censorious
    resolvers and tell where the manipulated answer came from."""
    deployment = world.isp(isp)
    client = deployment.client
    traces: List[DNSTraceResult] = []
    for resolver_ip in deployment.poisoned_resolver_ips()[:RESOLVERS_PER_ISP]:
        service = resolver_service_at(world.network, resolver_ip)
        blocked = sorted(service.config.blocklist)
        if not blocked:
            continue
        traces.append(dns_iterative_trace(world, client, resolver_ip,
                                          blocked[0]))
    last_hop = sum(1 for t in traces if t.answer_hop == t.resolver_hop)
    mechanisms = sorted({trace.mechanism for trace in traces})
    return campaign_payload([[isp, len(traces), f"{last_hop}/{len(traces)}",
                              "/".join(mechanisms)]])


def _measure_injector(world, domains):
    """Trace a standalone China-style injection path for contrast; the
    campaign's world goes unused."""
    network = Network()
    client = network.add_host("client", "10.0.0.1")
    resolver_host = network.add_host("resolver", "10.9.0.53")
    previous = "client"
    for index in range(1, 5):
        network.add_router(f"r{index}", f"10.1.0.{index}")
        network.link(previous, f"r{index}")
        previous = f"r{index}"
    network.link(previous, "resolver")

    global_dns = GlobalDNS()
    global_dns.add_simple("blocked.example", ["198.100.50.1"])
    ResolverService(global_dns, ResolverConfig()).install(resolver_host)
    injector = DNSInjectorMiddlebox(
        "gfw", "synthetic", frozenset({"blocked.example"}),
        lambda domain: "127.0.0.2")
    network.node("r2").attach_inline(injector)

    trace = dns_iterative_trace(SimpleNamespace(network=network), client,
                                resolver_host.ip, "blocked.example")
    return campaign_payload([[
        "(synthetic GFW)", 1,
        f"answer at hop {trace.answer_hop} of {trace.resolver_hop}",
        trace.mechanism]])
