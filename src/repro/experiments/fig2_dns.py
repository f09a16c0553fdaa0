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
    Cell,
    Check,
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
    format_table,
    parse_number,
    run_degradable,
)

#: Paper values: ISP -> (total resolvers, poisoned, coverage %, consistency %).
PAPER_FIG2 = {
    "mtnl": (448, 383, 77.0, 42.4),
    "bsnl": (182, 17, 9.3, 7.5),
}

#: Seed bands in the shape of PAPER_FIG2.
BANDS_FIG2 = {
    "mtnl": ((449, 449), (383, 383), (85.3, 85.3), (42.2, 42.6)),
    "bsnl": ((183, 183), (17, 17), (9.3, 9.3), (9.7, 10.9)),
}

_HONEST = ("the scan also finds the honest resolver every ISP runs for "
           "its clients (EXPERIMENTS.md, Figure 2)")

#: Known deviations: (ISP, cell) -> cause.
DEVIATIONS_FIG2 = {
    ("mtnl", "resolvers"): _HONEST,
    ("bsnl", "resolvers"): _HONEST,
    ("mtnl", "coverage %"): ("the paper gives 77% although 383/448 is "
                             "85.5% (EXPERIMENTS.md, Figure 2)"),
    ("bsnl", "consistency %"): ("the 1/#resolvers floor: one of 17 "
                                "poisoned resolvers already reads 5.9% "
                                "(EXPERIMENTS.md, Figure 2)"),
}

_COLUMNS = ("resolvers", "poisoned", "coverage %", "consistency %")

CELLS = tuple(
    Cell(isp, name, paper[index], BANDS_FIG2[isp][index],
         DEVIATIONS_FIG2.get((isp, name), ""))
    for isp, paper in PAPER_FIG2.items()
    for index, name in enumerate(_COLUMNS))

CHECKS = (
    Check("MTNL runs over ten times BSNL's poisoned resolvers",
          lambda m: m["mtnl"]["poisoned"] > 10 * m["bsnl"]["poisoned"]),
    Check("MTNL's consistency is over three times BSNL's",
          lambda m: m["mtnl"]["consistency %"]
          > 3 * m["bsnl"]["consistency %"]),
)


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


def measured(rows: List[List[str]]) -> Dict[str, Optional[float]]:
    """A unit's Figure 2 aggregates from its payload rows."""
    row = rows[0]
    return {"resolvers": parse_number(row[1]),
            "poisoned": parse_number(row[2]),
            "coverage %": parse_number(row[3]),
            "consistency %": parse_number(row[4])}


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
        domains = world.corpus.domains()
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
