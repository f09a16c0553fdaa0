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

#: Paper consistency averages (percent).
PAPER_FIG5 = {
    "idea": 76.8,
    "airtel": 12.3,
    "vodafone": 11.6,
}

FIG5_ISPS = ("airtel", "vodafone", "idea")

#: Seed bands of the consistency averages (percent).
BANDS_FIG5 = {
    "idea": (75.9, 77.4),
    "airtel": (12.8, 15.6),
    "vodafone": (13.9, 15.0),
}

_FLOOR = ("the 1/#boxes floor of a sparse deployment (EXPERIMENTS.md, "
          "Figure 5)")

CELLS = tuple(
    Cell(isp, "consistency %", paper, BANDS_FIG5[isp],
         _FLOOR if isp != "idea" else "")
    for isp, paper in PAPER_FIG5.items())

CHECKS = (
    Check("Idea's consistency is over three times Airtel's and "
          "Vodafone's",
          lambda m: m["idea"]["consistency %"] > 3 * max(
              m["airtel"]["consistency %"],
              m["vodafone"]["consistency %"])),
)


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


def measured(rows: List[List[str]]) -> Dict[str, Optional[float]]:
    """A unit's Figure 5 consistency average from its payload rows."""
    return {"consistency %": parse_number(rows[0][2])}


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
        domains = world.corpus.domains()
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
