"""Section 4.2.1 caveat — are the middleboxes stateful?

Runs the five handshake probes and the flow-timeout bracketing against
every HTTP-censoring ISP with a reachable box on a controlled-server
path.  Expected outcome, everywhere: inspection begins only after a
complete 3-way handshake, and idle flow state is purged after 2–3
minutes (restartable by fresh packets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.measure.classify import find_controlled_target
from ..core.measure.stateful import (
    FlowTimeoutEstimate,
    StatefulnessReport,
    estimate_flow_timeout,
    probe_statefulness,
)
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
    format_table,
    parse_pair,
)

#: Idle durations used to bracket the 150 s purge.
TIMEOUT_CANDIDATES = (60.0, 140.0, 170.0)


@dataclass
class StatefulnessResult:
    reports: Dict[str, StatefulnessReport] = field(default_factory=dict)
    timeouts: Dict[str, FlowTimeoutEstimate] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    def render(self) -> str:
        return format_table(list(CAMPAIGN.headers), _body_rows(self),
                            title=CAMPAIGN.title)


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


def _body_rows(result: "StatefulnessResult") -> List[List[str]]:
    body = []
    for isp, report in result.reports.items():
        bracket = result.timeouts.get(isp)
        bracket_text = "-"
        if bracket is not None:
            bracket_text = (f"({bracket.lower_bound}, "
                            f"{bracket.upper_bound})")
        body.append([
            isp, fmt_cell(report.no_handshake), fmt_cell(report.syn_only),
            fmt_cell(report.synack_first),
            fmt_cell(report.missing_final_ack),
            fmt_cell(report.full_handshake), fmt_cell(report.stateful),
            bracket_text,
        ])
    for isp in result.skipped:
        body.append([isp, "-", "-", "-", "-", "-", "-",
                     "no censored path"])
    return body


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's probe outcomes and timeout bracket from its payload
    rows (``"-"`` where no censored path was found)."""
    cells: Dict[str, object] = dict(zip(CAMPAIGN.headers[1:-1],
                                        rows[0][1:-1]))
    bracket = rows[0][-1]
    cells["timeout low (s)"], cells["timeout high (s)"] = (
        parse_pair(bracket) if bracket.startswith("(") else (None, None))
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


def run(world, isps=HTTP_FILTERING_ISPS,
        with_timeout: bool = True) -> StatefulnessResult:
    """Run statefulness probing for every HTTP-censoring ISP."""
    result = StatefulnessResult()
    for isp in isps:
        candidates = sorted(world.blocklists.http.get(isp, ()))
        server, domain = find_controlled_target(world, isp, candidates)
        if server is not None:
            dst_ip = server.ip
        else:
            # No controlled host behind a box — probe against a
            # censored site directly (the TTL-limited GETs never reach
            # it, so the box remains the only possible responder).
            domain, dst_ip = _censored_site_target(world, isp, candidates)
            if domain is None:
                result.skipped.append(isp)
                continue
        result.reports[isp] = probe_statefulness(world, isp, domain, dst_ip)
        if with_timeout:
            result.timeouts[isp] = estimate_flow_timeout(
                world, isp, domain, dst_ip,
                idle_candidates=TIMEOUT_CANDIDATES)
    return result


def _censored_site_target(world, isp: str, candidates):
    from ..core.measure.fastprobe import (
        canonical_payload,
        express_http_probe,
    )

    client = world.client_of(isp)
    for domain in candidates:
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(domain))
        if verdict.censored:
            return domain, dst_ip
    return None, None
