"""Section 3.4-III/IV — what triggers censorship, per ISP.

For every HTTP-censoring ISP, find a (site, path) pair with a live
middlebox and run the full trigger battery: paired TTL n−1/n requests,
crafted-header bypass, and Host-offset fudging.  The paper's conclusion
— request-only inspection keyed solely on the Host field — must hold
for every ISP.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..core.measure.trigger import analyze_trigger
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    TableSpec,
    Unit,
    campaign_payload,
    censored_sites,
    fmt_cell,
)


#: Campaign decomposition: one resumable unit per HTTP-censoring ISP.
CAMPAIGN = TableSpec(
    title="Section 3.4: what triggers the middleboxes",
    headers=("ISP", "TTL n-1 censored", "crafted bypass",
             "Host-only trigger", "conclusion"),
)

#: Paper cells (§3.4): in every ISP the TTL n-1 request draws
#: censorship, only the Host field triggers, and the box inspects
#: requests only.  Every seed at scale 1.0 agrees.
CELLS = tuple(
    Cell(isp, column, paper, paper)
    for isp in HTTP_FILTERING_ISPS
    for column, paper in (("TTL n-1 censored", "True"),
                          ("Host-only trigger", "True"),
                          ("conclusion", "request-only")))


def measured(rows: List[List[str]]) -> Dict[str, str]:
    """A unit's trigger findings from its payload rows."""
    return dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))


def units():
    """One campaign unit per HTTP-censoring ISP."""
    for isp in HTTP_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains):
    """The trigger battery against the first censored site found from
    *isp*'s client."""
    found = censored_sites(world, isp, 1)
    if not found:
        return campaign_payload(
            [[isp, "-", "-", "-", "no censored path found"]])
    [(domain, dst_ip)] = found
    analysis = analyze_trigger(world, isp, domain, dst_ip=dst_ip)
    return campaign_payload([[
        isp,
        fmt_cell(analysis.censored_at_ttl_n_minus_1),
        fmt_cell(analysis.crafted_variant_bypassing or "-"),
        fmt_cell(analysis.host_field_triggers
                 and not analysis.domain_in_path_triggers),
        "request-only" if "request-only" in analysis.conclusion
        else "inconclusive",
    ]])
