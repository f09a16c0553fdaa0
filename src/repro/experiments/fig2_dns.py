"""Figure 2 — consistency of DNS resolvers (MTNL vs BSNL).

Open-resolver sweep over each ISP's address space, interrogation of
every open resolver with the PBW list, then the coverage and
consistency aggregates of section 4.1.  The per-website series the
figure plots comes from the same scan through
:func:`repro.core.measure.reporting.resolver_series_csv`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..core.measure.metrics import consistency
from ..core.measure.resolver_scan import scan_isp_resolvers
from ..isps.profiles import DNS_FILTERING_ISPS
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


#: Campaign decomposition: one resumable unit per DNS-censoring ISP.
CAMPAIGN = TableSpec(
    title="Figure 2 aggregates: DNS resolver coverage and consistency",
    headers=("ISP", "Resolvers", "Poisoned", "Coverage%",
             "Consistency%", "paper (tot, poi, cov%, cons%)"),
)


def measured(rows: List[List[str]]) -> Dict[str, Optional[float]]:
    """A unit's Figure 2 aggregates from its payload rows."""
    row = rows[0]
    return {"resolvers": parse_number(row[1]),
            "poisoned": parse_number(row[2]),
            "coverage %": parse_number(row[3]),
            "consistency %": parse_number(row[4])}


def units():
    """One campaign unit per DNS-censoring ISP."""
    for isp in DNS_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains: List[str]):
    """Figure 2's aggregates for *isp*: its open resolvers, the
    poisoned ones, and how consistently they block *domains*."""
    degradation = Degradation()
    ok, scan = run_degradable(degradation, f"resolver-scan@{isp}",
                              scan_isp_resolvers, world, isp, domains)
    if not ok:
        return campaign_payload([], degradation)
    row = [isp,
           fmt_cell(len(scan.open_resolvers)),
           fmt_cell(len(scan.censorious)),
           fmt_cell(round(scan.coverage * 100, 1)),
           fmt_cell(round(consistency(dict(scan.censorious)) * 100, 1)),
           fmt_cell(PAPER_FIG2[isp])]
    return campaign_payload([row], degradation)
