"""Section 3.4-III/IV — what triggers censorship, per ISP.

For every HTTP-censoring ISP, find a (site, path) pair with a live
middlebox and run the full trigger battery: paired TTL n−1/n requests,
crafted-header bypass, and Host-offset fudging.  The paper's conclusion
— request-only inspection keyed solely on the Host field — must hold
for every ISP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.measure.fastprobe import canonical_payload, express_http_probe
from ..core.measure.trigger import TriggerAnalysis, analyze_trigger
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
    format_table,
)


@dataclass
class TriggerExperimentResult:
    analyses: Dict[str, TriggerAnalysis] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    def render(self) -> str:
        return format_table(list(CAMPAIGN.headers), _body_rows(self),
                            title=CAMPAIGN.title)


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


def _body_rows(result: "TriggerExperimentResult") -> List[List[str]]:
    body = []
    for isp, analysis in result.analyses.items():
        body.append([
            isp,
            fmt_cell(analysis.censored_at_ttl_n_minus_1),
            fmt_cell(analysis.crafted_variant_bypassing or "-"),
            fmt_cell(analysis.host_field_triggers
                     and not analysis.domain_in_path_triggers),
            "request-only" if "request-only" in analysis.conclusion
            else "inconclusive",
        ])
    for isp in result.skipped:
        body.append([isp, "-", "-", "-", "no censored path found"])
    return body


def measured(rows: List[List[str]]) -> Dict[str, str]:
    """A unit's trigger findings from its payload rows."""
    return dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))


def units(isps=HTTP_FILTERING_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, isps=(isp,))
        return campaign_payload(_body_rows(result))
    return unit_fn


def _censored_target(world, isp: str):
    client = world.client_of(isp)
    for domain in sorted(world.blocklists.http.get(isp, ())):
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(domain))
        if verdict.censored:
            return domain, dst_ip
    return None, None


def run(world, isps=HTTP_FILTERING_ISPS) -> TriggerExperimentResult:
    """Run the trigger analysis for every HTTP-censoring ISP."""
    result = TriggerExperimentResult()
    for isp in isps:
        domain, dst_ip = _censored_target(world, isp)
        if domain is None:
            result.skipped.append(isp)
            continue
        result.analyses[isp] = analyze_trigger(world, isp, domain,
                                               dst_ip=dst_ip)
    return result
