"""Section 3.3 — TCP/IP packet-filtering test.

Five handshakes, two virtual seconds apart, for Tor-reachable PBWs
from inside every ISP.  The paper's (negative) finding: no Indian ISP
filters on network/transport headers — and neither does any deployment
in this world.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..core.measure.tcpip import detect_tcpip_filtering
from ..isps.profiles import OONI_TESTED_ISPS
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
)


#: Corpus sites handshaken per ISP.
SITES_PER_ISP = 25

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


def measured(rows: List[List]) -> Dict[str, object]:
    """A unit's handshake findings from its payload rows."""
    return dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))


def units():
    """One campaign unit per tested ISP."""
    for isp in OONI_TESTED_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains: List[str]):
    """Five handshakes to each of the first sites of *domains* from
    *isp*'s client."""
    report = detect_tcpip_filtering(world, isp, domains[:SITES_PER_ISP])
    filtered = report.filtered_domains()
    return campaign_payload([[
        isp, len(report.successes), len(filtered),
        "TCP/IP filtering" if filtered else "none (as in paper)"]])
