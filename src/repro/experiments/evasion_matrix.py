"""Section 5 — anti-censorship effectiveness matrix.

For each censoring ISP, try every proxy-free strategy against a sample
of sites actually censored on the client's paths, and verify the
paper's headline: every blocked site is reachable by at least one
strategy, in every ISP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.evasion.engine import EvasionMatrix, evade_all, evaluate_matrix
from ..core.evasion.strategies import STRATEGIES
from ..core.measure.fastprobe import canonical_payload, express_http_probe
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
    format_table,
    parse_number,
)

#: The strategy the paper highlights per middlebox family.
PAPER_EXPECTED = {
    "airtel": {"host-keyword-case", "drop-fin-rst"},
    "jio": {"host-keyword-case", "drop-fin-rst"},
    "idea": {"host-value-whitespace", "host-value-tab",
             "host-trailing-space"},
    "vodafone": {"trailing-uncensored-host"},
}


@dataclass
class EvasionExperimentResult:
    matrices: Dict[str, EvasionMatrix] = field(default_factory=dict)
    winners: Dict[str, Dict[str, Optional[str]]] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    def all_sites_evaded(self, isp: str) -> bool:
        return all(winner is not None
                   for winner in self.winners.get(isp, {}).values())

    def render(self) -> str:
        return format_table(
            list(CAMPAIGN.headers), _body_rows(self),
            title=CAMPAIGN.title) + "\n" + CAMPAIGN.footer


#: Campaign decomposition: one resumable unit per censoring ISP.
CAMPAIGN = TableSpec(
    title="Section 5: evasion strategy effectiveness",
    headers=("ISP",) + tuple(s.name for s in STRATEGIES)
    + ("all evaded",),
    footer="(* = strategy the paper reports for this ISP)",
)

#: Paper cells (§5): the strategy the paper reports for each box family
#: evades every sampled site (percent), and every censored site falls
#: to some strategy.  Every seed at scale 1.0 agrees.
CELLS = tuple(
    Cell(isp, name, 100, (100, 100))
    for isp, names in PAPER_EXPECTED.items() for name in sorted(names)
) + tuple(Cell(isp, "all evaded", "True", "True")
          for isp in PAPER_EXPECTED)


def _rates(m, isps, name):
    return [m[isp][name] for isp in isps]


CHECKS = (
    Check("fragmented GET evades the wiretap boxes (Airtel, Jio)",
          lambda m: min(_rates(m, ("airtel", "jio"),
                               "fragmented-get")) >= 80),
    Check("whitespace fudging fails against the wiretap boxes and "
          "Vodafone",
          lambda m: max(_rates(m, ("airtel", "jio", "vodafone"),
                               "host-value-whitespace")) <= 20),
    Check("case fudging and the client firewall fail against Idea",
          lambda m: max(m["idea"]["host-keyword-case"],
                        m["idea"]["drop-fin-rst"]) <= 20),
)


def _body_rows(result: "EvasionExperimentResult") -> List[List[str]]:
    body = []
    for isp, matrix in result.matrices.items():
        row = [isp]
        for strat in STRATEGIES:
            rate = matrix.success_rate(strat.name)
            cell = f"{rate:.0%}"
            if strat.name in PAPER_EXPECTED.get(isp, ()):
                cell += "*"
            row.append(cell)
        row.append(fmt_cell(result.all_sites_evaded(isp)))
        body.append(row)
    for isp in result.skipped:
        body.append([isp] + ["-"] * len(STRATEGIES)
                    + ["no censored path"])
    return body


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's success rate (percent) per strategy and its "all
    evaded" verdict from its payload rows."""
    row = rows[0]
    cells: Dict[str, object] = {
        strat.name: parse_number(cell.rstrip("*%"))
        for strat, cell in zip(STRATEGIES, row[1:-1])}
    cells["all evaded"] = row[-1]
    return cells


def units(isps=HTTP_FILTERING_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, isps=(isp,))
        return campaign_payload(_body_rows(result))
    return unit_fn


def censored_sample(world, isp: str, limit: int) -> List[str]:
    client = world.client_of(isp)
    found: List[str] = []
    for domain in sorted(world.blocklists.http.get(isp, ())):
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(domain))
        if verdict.censored:
            found.append(domain)
            if len(found) >= limit:
                break
    return found


def run(world, isps=HTTP_FILTERING_ISPS,
        sites_per_isp: int = 5) -> EvasionExperimentResult:
    """Build the evasion matrix for every censoring ISP."""
    result = EvasionExperimentResult()
    for isp in isps:
        sample = censored_sample(world, isp, sites_per_isp)
        if not sample:
            result.skipped.append(isp)
            continue
        result.matrices[isp] = evaluate_matrix(world, isp, sample)
        result.winners[isp] = evade_all(world, isp, sample)
    return result
