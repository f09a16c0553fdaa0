"""Table 3 — collateral damage within Indian ISPs.

From a client in each non-censoring stub ISP, fetch the PBW list and
attribute every censorship event to the neighbouring transit ISP that
caused it (notification fingerprints; path heuristics for covert
resets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.measure.collateral import (
    CollateralReport,
    measure_collateral_express,
)
from ..isps.profiles import COLLATERAL_ISPS
from .common import (
    Cell,
    Check,
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    format_table,
    parse_counts,
    run_degradable,
)

#: Paper values: stub -> {neighbour: blocked count}.
PAPER_TABLE3 = {
    "nkn": {"vodafone": 69, "tata": 8},
    "sify": {"tata": 142, "airtel": 2},
    "siti": {"airtel": 110},
    "mtnl": {"tata": 134, "airtel": 25},
    "bsnl": {"tata": 156, "airtel": 1},
}

#: Seed bands in the shape of PAPER_TABLE3.
BANDS_TABLE3 = {
    "nkn": {"vodafone": (56, 66), "tata": (0, 2)},
    "sify": {"tata": (108, 123), "airtel": (0, 2)},
    "siti": {"airtel": (110, 110)},
    "mtnl": {"tata": (100, 116), "airtel": (2, 7)},
    "bsnl": {"tata": (129, 138), "airtel": (0, 1)},
}

_UNDERCOUNT = ("cause unknown: the peering box holds the paper's count, yet "
          "some of its sites never read blocked from the stub "
          "(EXPERIMENTS.md, Table 3)")

#: Known deviations: (stub, neighbour) -> cause.
DEVIATIONS_TABLE3 = {
    ("nkn", "vodafone"): _UNDERCOUNT,
    ("nkn", "tata"): ("NKN reaches TATA on one path in nine "
                      "(EXPERIMENTS.md, Table 3)"),
    ("sify", "tata"): _UNDERCOUNT,
    ("mtnl", "tata"): _UNDERCOUNT,
    ("mtnl", "airtel"): _UNDERCOUNT,
    ("bsnl", "tata"): _UNDERCOUNT,
}

CELLS = tuple(
    Cell(stub, neighbour, count, BANDS_TABLE3[stub][neighbour],
         DEVIATIONS_TABLE3.get((stub, neighbour), ""))
    for stub, paper in PAPER_TABLE3.items()
    for neighbour, count in paper.items())


def _dominant(counts: Dict[str, int]) -> str:
    return max(counts, key=counts.get)


CHECKS = (
    Check("NKN is hurt mostly by Vodafone",
          lambda m: _dominant(m["nkn"]) == "vodafone"
          and m["nkn"]["vodafone"] > m["nkn"]["tata"]),
    Check("Sify, MTNL and BSNL are hurt mostly by TATA",
          lambda m: all(_dominant(m[stub]) == "tata"
                        and m[stub]["tata"] > m[stub]["airtel"]
                        for stub in ("sify", "mtnl", "bsnl"))),
    Check("Siti's damage comes from Airtel alone",
          lambda m: m["siti"]["airtel"] > 0 and not any(
              count for name, count in m["siti"].items()
              if name != "airtel")),
    Check("no stub censors with its own infrastructure",
          lambda m: all(stub not in counts for stub, counts in m.items())),
)


@dataclass
class Table3Result:
    reports: Dict[str, CollateralReport] = field(default_factory=dict)
    degradation: Degradation = field(default_factory=Degradation)

    def counts(self, stub: str) -> Dict[str, int]:
        return self.reports[stub].counts()

    def dominant_neighbour(self, stub: str) -> Optional[str]:
        counts = self.counts(stub)
        if not counts:
            return None
        return max(counts, key=counts.get)

    def render(self) -> str:
        table = format_table(list(CAMPAIGN.headers), _body_rows(self),
                             title=CAMPAIGN.title)
        extra = self.degradation.describe()
        return table + ("\n" + extra if extra else "")


#: Campaign decomposition: one resumable unit per non-censoring stub.
CAMPAIGN = TableSpec(
    title="Table 3: Collateral damage from censorious neighbours",
    headers=("Stub ISP", "Neighbours (measured)", "paper"),
)


def _body_rows(result: "Table3Result") -> List[List[str]]:
    body = []
    for stub, report in result.reports.items():
        measured = ", ".join(
            f"{neighbour} ({count})"
            for neighbour, count in sorted(report.counts().items(),
                                           key=lambda kv: -kv[1]))
        paper = ", ".join(
            f"{neighbour} ({count})"
            for neighbour, count in PAPER_TABLE3.get(stub, {}).items())
        body.append([stub, measured or "-", paper])
    return body


def measured(rows: List[List[str]]) -> Dict[str, int]:
    """A stub's blocked count per censoring neighbour (0 for a paper
    neighbour that blocked nothing) from its payload rows."""
    counts = {neighbour: 0 for paper in PAPER_TABLE3.values()
              for neighbour in paper}
    counts.update(parse_counts(rows[0][1]))
    return counts


def units(stubs=COLLATERAL_ISPS):
    """Named measurement units for the campaign runner."""
    for stub in stubs:
        yield Unit(stub, _campaign_unit(stub))


def _campaign_unit(stub: str):
    def unit_fn(world, domains):
        result = run(world, domains=domains, stubs=(stub,))
        return campaign_payload(_body_rows(result), result.degradation)
    return unit_fn


def run(world, domains: Optional[List[str]] = None,
        stubs=COLLATERAL_ISPS) -> Table3Result:
    """Regenerate Table 3."""
    if domains is None:
        domains = world.corpus.domains()
    result = Table3Result()
    for stub in stubs:
        ok, report = run_degradable(result.degradation,
                                    f"collateral@{stub}",
                                    measure_collateral_express, world,
                                    stub, domains)
        if ok:
            result.reports[stub] = report
    return result
