"""Figure 5 — consistency of HTTP middleboxes (Airtel, Vodafone, Idea).

Reuses the inside-VP coverage campaign's per-path blocked sets: for
every website blocked on at least one poisoned path, the percentage of
poisoned paths blocking it, averaged per ISP as the paper quotes (Idea
76.8%, Airtel 12.3%, Vodafone 11.6%).  The per-website series the
figure plots comes from the same campaign through
:func:`repro.core.measure.reporting.coverage_series_csv`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..core.measure.coverage import measure_coverage_inside
from .common import (
    Cell,
    Check,
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
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


#: Campaign decomposition: one resumable unit per middlebox ISP.
CAMPAIGN = TableSpec(
    title="Figure 5 aggregates: middlebox consistency per ISP",
    headers=("ISP", "Poisoned paths", "Consistency%", "paper%"),
)


def measured(rows: List[List[str]]) -> Dict[str, Optional[float]]:
    """A unit's Figure 5 consistency average from its payload rows."""
    return {"consistency %": parse_number(rows[0][2])}


def units():
    """One campaign unit per middlebox ISP."""
    for isp in FIG5_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains: List[str]):
    """Figure 5's aggregate for *isp*: its poisoned paths and how
    consistently they block *domains*."""
    degradation = Degradation()
    ok, campaign = run_degradable(degradation, f"coverage-in@{isp}",
                                  measure_coverage_inside, world, isp,
                                  domains=domains)
    if not ok:
        return campaign_payload([], degradation)
    row = [isp,
           f"{campaign.n_poisoned}/{campaign.n_paths}",
           fmt_cell(round(campaign.consistency * 100, 1)),
           fmt_cell(PAPER_FIG5[isp])]
    return campaign_payload([row], degradation)
