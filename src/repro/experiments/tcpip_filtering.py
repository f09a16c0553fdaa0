"""Section 3.3 — TCP/IP packet-filtering test.

Five handshakes, two virtual seconds apart, for Tor-reachable PBWs
from inside every ISP.  The paper's (negative) finding: no Indian ISP
filters on network/transport headers — and neither does any deployment
in this world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.measure.tcpip import TCPIPFilterReport, detect_tcpip_filtering
from ..isps.profiles import OONI_TESTED_ISPS
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
    format_table,
)


@dataclass
class TCPIPExperimentResult:
    reports: Dict[str, TCPIPFilterReport] = field(default_factory=dict)

    @property
    def any_filtering(self) -> bool:
        return any(report.any_filtering for report in self.reports.values())

    def render(self) -> str:
        return format_table(list(CAMPAIGN.headers), _body_rows(self),
                            title=CAMPAIGN.title)


#: Campaign decomposition: one resumable unit per tested ISP.
CAMPAIGN = TableSpec(
    title="Section 3.3: TCP/IP filtering test",
    headers=("ISP", "sites tested", "filtered", "finding"),
)

#: Paper cells (§3.3): no ISP filters on network or transport headers.
CELLS = tuple(Cell(isp, "filtered", 0, (0, 0))
              for isp in OONI_TESTED_ISPS)

CHECKS = (
    Check("every ISP tested sites",
          lambda m: all(cells["sites tested"] > 0
                        for cells in m.values())),
)


def _body_rows(result: "TCPIPExperimentResult") -> List[List]:
    body = []
    for isp, report in result.reports.items():
        filtered = report.filtered_domains()
        body.append([
            isp, len(report.successes), len(filtered),
            "TCP/IP filtering" if filtered else "none (as in paper)",
        ])
    return body


def measured(rows: List[List]) -> Dict[str, object]:
    """A unit's handshake findings from its payload rows."""
    return dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))


def units(isps=OONI_TESTED_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, domains=domains, isps=(isp,))
        return campaign_payload(_body_rows(result))
    return unit_fn


def run(world, domains: Optional[List[str]] = None,
        isps=OONI_TESTED_ISPS, sites_per_isp: int = 25
        ) -> TCPIPExperimentResult:
    """Run the five-handshake test in every ISP."""
    if domains is None:
        domains = world.corpus.domains()
    result = TCPIPExperimentResult()
    for isp in isps:
        result.reports[isp] = detect_tcpip_filtering(
            world, isp, domains[:sites_per_isp])
    return result
