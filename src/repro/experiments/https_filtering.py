"""Section 4.2 (closing remark) — HTTPS filtering is really DNS.

"We observed fewer than five instances of HTTPS filtering which were
actually due to manipulated DNS responses by poisoned resolvers."

From inside every tested ISP, fetch all HTTPS-served PBWs the way a
browser would (resolve via the client's default resolver, then TLS to
the answer).  The expected shape: in the HTTP-middlebox ISPs every
HTTPS site loads — port-443 flows carry nothing the boxes match — and
the only failures occur in the DNS-poisoning ISPs, where the resolver
handed back a non-serving address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.vantage import VantagePoint
from ..httpsim.https import https_fetch
from ..isps.profiles import OONI_TESTED_ISPS
from ..netsim.addressing import is_bogon
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
    format_table,
)


@dataclass
class HTTPSFilteringInstance:
    domain: str
    outcome: str
    cause: str  # "dns-poisoning" | "unknown"


@dataclass
class HTTPSFilteringResult:
    per_isp: Dict[str, List[HTTPSFilteringInstance]] = field(
        default_factory=dict)
    tested: Dict[str, int] = field(default_factory=dict)

    def instances(self, isp: str) -> List[HTTPSFilteringInstance]:
        return self.per_isp.get(isp, [])

    @property
    def all_instances_dns_caused(self) -> bool:
        return all(instance.cause == "dns-poisoning"
                   for instances in self.per_isp.values()
                   for instance in instances)

    def render(self) -> str:
        return format_table(list(CAMPAIGN.headers), _body_rows(self),
                            title=CAMPAIGN.title)


#: Campaign decomposition: one resumable unit per tested ISP.
CAMPAIGN = TableSpec(
    title="Section 4.2: HTTPS filtering instances "
          "(paper: <5, all DNS-caused)",
    headers=("ISP", "HTTPS sites tested", "filtering instances",
             "causes"),
)

#: Paper cells (§4.2): fewer than five HTTPS sites failed, all in the
#: DNS-poisoning ISPs.
CELLS = (
    Cell("mtnl", "filtering instances", (1, 4), (7, 14),
         "MTNL's resolvers poison HTTPS sites like any other, so the "
         "count follows the corpus's HTTPS share (EXPERIMENTS.md, §4.2)"),
) + tuple(Cell(isp, "filtering instances", 0, (0, 0))
          for isp in OONI_TESTED_ISPS if isp != "mtnl")

CHECKS = (
    Check("every HTTPS filtering instance is DNS-caused",
          lambda m: all(cells["causes"] in ("-", "dns-poisoning")
                        for cells in m.values())),
)


def _body_rows(result: "HTTPSFilteringResult") -> List[List]:
    body = []
    for isp, count in result.tested.items():
        instances = result.per_isp.get(isp, [])
        causes = sorted({i.cause for i in instances}) or ["-"]
        body.append([isp, count, len(instances), ", ".join(causes)])
    return body


def measured(rows: List[List]) -> Dict[str, object]:
    """A unit's HTTPS findings from its payload rows."""
    return dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))


def units(isps=OONI_TESTED_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, isps=(isp,))
        return campaign_payload(_body_rows(result))
    return unit_fn


def run(world, isps=OONI_TESTED_ISPS) -> HTTPSFilteringResult:
    """Fetch every HTTPS PBW from inside each ISP."""
    https_sites = [site for site in world.corpus if site.https]
    result = HTTPSFilteringResult()
    for isp in isps:
        vantage = VantagePoint.inside(world, isp)
        deployment = world.isp(isp)
        instances: List[HTTPSFilteringInstance] = []
        for site in https_sites:
            lookup = vantage.resolve(site.domain)
            if not lookup.ok:
                instances.append(HTTPSFilteringInstance(
                    site.domain, "no-resolution", "dns-poisoning"))
                continue
            dst_ip = lookup.ips[0]
            fetch = https_fetch(world.network, vantage.host, dst_ip,
                                site.domain)
            if fetch.ok:
                continue
            cause = "unknown"
            if is_bogon(dst_ip) or deployment.pool.contains(dst_ip):
                cause = "dns-poisoning"
            instances.append(HTTPSFilteringInstance(
                site.domain, fetch.outcome(), cause))
        result.per_isp[isp] = instances
        result.tested[isp] = len(https_sites)
    return result
