"""Figure 5 — consistency of HTTP middleboxes (Airtel, Vodafone, Idea).

Reuses the inside-VP coverage campaign's per-path blocked sets: for
every website blocked on at least one poisoned path, the percentage of
poisoned paths blocking it, and the per-ISP averages the paper quotes
(Idea 76.8%, Airtel 12.3%, Vodafone 11.6%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.measure.coverage import CoverageResult, measure_coverage_inside
from ..core.measure.metrics import blocking_series
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

#: Paper consistency averages (percent).
PAPER_FIG5 = {
    "idea": 76.8,
    "airtel": 12.3,
    "vodafone": 11.6,
}

FIG5_ISPS = ("airtel", "vodafone", "idea")


@dataclass
class Fig5Result:
    campaigns: Dict[str, CoverageResult] = field(default_factory=dict)
    series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    degradation: Degradation = field(default_factory=Degradation)

    def consistency(self, isp: str) -> float:
        return self.campaigns[isp].consistency

    def render(self) -> str:
        table = format_table(list(CAMPAIGN.headers), _body_rows(self),
                             title=CAMPAIGN.title)
        extra = self.degradation.describe()
        return table + ("\n" + extra if extra else "")

    def render_series(self, isp: str, limit: int = 20) -> str:
        rows = [(site_id, round(pct, 1))
                for site_id, pct in self.series[isp][:limit]]
        return format_table(["Website ID", "% paths blocking"], rows,
                            title=f"Figure 5 series ({isp}, first {limit})")


#: Campaign decomposition: one resumable unit per middlebox ISP.
CAMPAIGN = TableSpec(
    title="Figure 5 aggregates: middlebox consistency per ISP",
    headers=("ISP", "Poisoned paths", "Consistency%", "paper%"),
)


def _body_rows(result: "Fig5Result") -> List[List[str]]:
    return [
        [isp,
         f"{campaign.n_poisoned}/{campaign.n_paths}",
         fmt_cell(round(campaign.consistency * 100, 1)),
         fmt_cell(PAPER_FIG5.get(isp, "-"))]
        for isp, campaign in result.campaigns.items()
    ]


def units(isps=FIG5_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, domains=domains, isps=(isp,))
        return campaign_payload(_body_rows(result), result.degradation)
    return unit_fn


def run(world, domains: Optional[List[str]] = None,
        isps=FIG5_ISPS) -> Fig5Result:
    """Regenerate Figure 5."""
    if domains is None:
        domains = domain_sample(world)
    site_ids = {site.domain: site.site_id for site in world.corpus}
    result = Fig5Result()
    for isp in isps:
        ok, campaign = run_degradable(result.degradation,
                                      f"coverage-in@{isp}",
                                      measure_coverage_inside, world, isp,
                                      domains=domains)
        if not ok:
            continue
        result.campaigns[isp] = campaign
        result.series[isp] = blocking_series(campaign.per_path_blocked(),
                                             site_ids)
    return result
