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
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    domain_sample,
    format_table,
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
        domains = domain_sample(world)
    result = Table3Result()
    for stub in stubs:
        ok, report = run_degradable(result.degradation,
                                    f"collateral@{stub}",
                                    measure_collateral_express, world,
                                    stub, domains)
        if ok:
            result.reports[stub] = report
    return result
