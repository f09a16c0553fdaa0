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

from functools import partial
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
)


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


def measured(rows: List[List]) -> Dict[str, object]:
    """A unit's HTTPS findings from its payload rows."""
    return dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))


def units():
    """One campaign unit per tested ISP."""
    for isp in OONI_TESTED_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains):
    """Fetch every HTTPS PBW from inside *isp* and name the cause of
    each failure: ``dns-poisoning`` when resolution failed or answered
    a bogon or one of the ISP's own addresses, else ``unknown``."""
    https_sites = [site for site in world.corpus if site.https]
    vantage = VantagePoint.inside(world, isp)
    deployment = world.isp(isp)
    causes: List[str] = []
    for site in https_sites:
        lookup = vantage.resolve(site.domain)
        if not lookup.ok:
            causes.append("dns-poisoning")
            continue
        dst_ip = lookup.ips[0]
        fetch = https_fetch(world.network, vantage.host, dst_ip,
                            site.domain)
        if fetch.ok:
            continue
        poisoned = is_bogon(dst_ip) or deployment.pool.contains(dst_ip)
        causes.append("dns-poisoning" if poisoned else "unknown")
    return campaign_payload([[isp, len(https_sites), len(causes),
                              ", ".join(sorted(set(causes)) or ["-"])]])
