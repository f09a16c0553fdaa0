"""Section 5 — anti-censorship effectiveness matrix.

For each censoring ISP, try every proxy-free strategy against a sample
of sites actually censored on the client's paths, and verify the
paper's headline: every blocked site is reachable by at least one
strategy, in every ISP.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..core.evasion.engine import evade_all, evaluate_matrix
from ..core.evasion.strategies import STRATEGIES
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
    censored_sites,
    fmt_cell,
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

#: Censored sites sampled per ISP.
SITES_PER_ISP = 5

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


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's success rate (percent) per strategy and its "all
    evaded" verdict from its payload rows."""
    row = rows[0]
    cells: Dict[str, object] = {
        strat.name: parse_number(cell.rstrip("*%"))
        for strat, cell in zip(STRATEGIES, row[1:-1])}
    cells["all evaded"] = row[-1]
    return cells


def units():
    """One campaign unit per censoring ISP."""
    for isp in HTTP_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains):
    """Every strategy against the first censored sites found from
    *isp*'s client, and whether each site fell to one of them."""
    sample = [domain for domain, _ in
              censored_sites(world, isp, SITES_PER_ISP)]
    if not sample:
        return campaign_payload([[isp] + ["-"] * len(STRATEGIES)
                                 + ["no censored path"]])
    matrix = evaluate_matrix(world, isp, sample)
    winners = evade_all(world, isp, sample)
    row = [isp]
    for strat in STRATEGIES:
        cell = f"{matrix.success_rate(strat.name):.0%}"
        if strat.name in PAPER_EXPECTED[isp]:
            cell += "*"
        row.append(cell)
    row.append(fmt_cell(all(winner is not None
                            for winner in winners.values())))
    return campaign_payload([row])
