"""Section 4.2.1 caveat — are the middleboxes stateful?

Runs the five handshake probes and the flow-timeout bracketing against
every HTTP-censoring ISP with a reachable box on a controlled-server
path.  Expected outcome, everywhere: inspection begins only after a
complete 3-way handshake, and idle flow state is purged after 2–3
minutes (restartable by fresh packets).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..core.measure.stateful import estimate_flow_timeout, probe_statefulness
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    TableSpec,
    Unit,
    box_target,
    campaign_payload,
    fmt_cell,
    parse_pair,
)

#: Idle durations used to bracket the 150 s purge.
TIMEOUT_CANDIDATES = (60.0, 140.0, 170.0)

#: Campaign decomposition: one resumable unit per HTTP-censoring ISP.
CAMPAIGN = TableSpec(
    title="Section 4.2.1: middlebox statefulness probes",
    headers=("ISP", "no-hs", "SYN-only", "SYNACK-first",
             "no-final-ACK", "full-hs", "stateful",
             "timeout bracket (s)"),
)

#: Paper cells (§4.2.1): every box inspects only after a complete
#: handshake, and purges idle flows after 2-3 minutes.  Every seed at
#: scale 1.0 brackets the purge between 140 s and 170 s idle.
CELLS = tuple(
    Cell(isp, column, paper, band)
    for isp in HTTP_FILTERING_ISPS
    for column, paper, band in (
        ("no-hs", "False", "False"), ("SYN-only", "False", "False"),
        ("SYNACK-first", "False", "False"),
        ("no-final-ACK", "False", "False"),
        ("full-hs", "True", "True"), ("stateful", "True", "True"),
        ("timeout low (s)", (120, 180), (140.0, 140.0)),
        ("timeout high (s)", (120, 180), (170.0, 170.0))))


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's probe outcomes and timeout bracket from its payload
    rows (``"-"`` where no censored path was found)."""
    cells: Dict[str, object] = dict(zip(CAMPAIGN.headers[1:-1],
                                        rows[0][1:-1]))
    bracket = rows[0][-1]
    cells["timeout low (s)"], cells["timeout high (s)"] = (
        parse_pair(bracket) if bracket.startswith("(") else (None, None))
    return cells


def units():
    """One campaign unit per HTTP-censoring ISP."""
    for isp in HTTP_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains):
    """The five handshake probes and the flow-timeout bracket from
    *isp*'s client, against a box it reaches."""
    _, domain, dst_ip = box_target(world, isp)
    if domain is None:
        return campaign_payload([[isp, "-", "-", "-", "-", "-", "-",
                                  "no censored path"]])
    report = probe_statefulness(world, isp, domain, dst_ip)
    bracket = estimate_flow_timeout(world, isp, domain, dst_ip,
                                    idle_candidates=TIMEOUT_CANDIDATES)
    return campaign_payload([[
        isp, fmt_cell(report.no_handshake), fmt_cell(report.syn_only),
        fmt_cell(report.synack_first), fmt_cell(report.missing_final_ack),
        fmt_cell(report.full_handshake), fmt_cell(report.stateful),
        f"({bracket.lower_bound}, {bracket.upper_bound})"]])
