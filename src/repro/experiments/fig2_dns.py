"""Figure 2 — consistency of DNS resolvers (MTNL vs BSNL).

Open-resolver sweep over each ISP's address space, interrogation of
every open resolver with the PBW list, then the Figure 2 series: for
every website blocked by at least one poisoned resolver, the percentage
of that ISP's poisoned resolvers blocking it — plus the coverage and
consistency aggregates of section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.measure.metrics import blocking_series, consistency
from ..core.measure.resolver_scan import ResolverScanResult, scan_isp_resolvers
from ..isps.profiles import DNS_FILTERING_ISPS
from .common import (
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    domain_sample,
    fmt_cell,
    format_table,
    run_degradable,
)

#: Paper values: ISP -> (total resolvers, poisoned, coverage %, consistency %).
PAPER_FIG2 = {
    "mtnl": (448, 383, 77.0, 42.4),
    "bsnl": (182, 17, 9.3, 7.5),
}


@dataclass
class Fig2Result:
    scans: Dict[str, ResolverScanResult] = field(default_factory=dict)
    #: ISP -> [(site_id, % of poisoned resolvers blocking it)]
    series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    consistency: Dict[str, float] = field(default_factory=dict)
    degradation: Degradation = field(default_factory=Degradation)

    def coverage(self, isp: str) -> float:
        return self.scans[isp].coverage

    def render(self) -> str:
        table = format_table(list(CAMPAIGN.headers), _body_rows(self),
                             title=CAMPAIGN.title)
        extra = self.degradation.describe()
        return table + ("\n" + extra if extra else "")

    def render_series(self, isp: str, limit: int = 20) -> str:
        rows = [(site_id, round(pct, 1))
                for site_id, pct in self.series[isp][:limit]]
        return format_table(["Website ID", "% resolvers blocking"], rows,
                            title=f"Figure 2 series ({isp}, first {limit})")


#: Campaign decomposition: one resumable unit per DNS-censoring ISP.
CAMPAIGN = TableSpec(
    title="Figure 2 aggregates: DNS resolver coverage and consistency",
    headers=("ISP", "Resolvers", "Poisoned", "Coverage%",
             "Consistency%", "paper (tot, poi, cov%, cons%)"),
)


def _body_rows(result: "Fig2Result") -> List[List[str]]:
    return [
        [isp,
         fmt_cell(len(scan.open_resolvers)),
         fmt_cell(len(scan.censorious)),
         fmt_cell(round(scan.coverage * 100, 1)),
         fmt_cell(round(result.consistency[isp] * 100, 1)),
         fmt_cell(PAPER_FIG2.get(isp, "-"))]
        for isp, scan in result.scans.items()
    ]


def units(isps=DNS_FILTERING_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, domains=domains, isps=(isp,))
        return campaign_payload(_body_rows(result), result.degradation)
    return unit_fn


def run(world, domains: Optional[List[str]] = None,
        isps=DNS_FILTERING_ISPS) -> Fig2Result:
    """Regenerate Figure 2."""
    if domains is None:
        domains = domain_sample(world)
    site_ids = {site.domain: site.site_id for site in world.corpus}
    result = Fig2Result()
    for isp in isps:
        ok, scan = run_degradable(result.degradation,
                                  f"resolver-scan@{isp}",
                                  scan_isp_resolvers, world, isp, domains)
        if not ok:
            continue
        result.scans[isp] = scan
        per_resolver = dict(scan.censorious)
        result.consistency[isp] = consistency(per_resolver)
        result.series[isp] = blocking_series(per_resolver, site_ids)
    return result
