"""Section 6.3 — idiosyncrasies of the middleboxes.

The paper closes with a grab-bag of measured quirks; each is
re-derived here:

1. every box inspects **TCP port 80 only** — the same censored Host on
   port 8080 passes untouched;
2. Airtel's injections carry a **fixed IP-ID (242)**; every other
   ISP's vary;
3. **stale blocklists**: sites that are long dead (their domain parked)
   are still censored;
4. flow state lives **2–3 minutes** and any fresh packet **restarts the
   timer** (keep-alives keep a flow inspectable indefinitely).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Set

from ..core.measure.classify import classify_middlebox
from ..core.measure.fastprobe import canonical_payload, express_http_probe
from ..core.measure.probes import CraftedFlow
from ..core.vantage import VantagePoint
from ..httpsim.message import GetRequestSpec
from ..isps.profiles import HTTP_FILTERING_ISPS
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
    controlled_target,
    fmt_cell,
)


@dataclass
class IdiosyncrasyReport:
    isp: str
    port80_censored: Optional[bool] = None
    port8080_censored: Optional[bool] = None
    fixed_ip_id: Optional[int] = None
    dead_sites_still_blocked: int = 0
    dead_sites_on_blocklist: int = 0
    keepalive_extends_flow: Optional[bool] = None

    @property
    def port_80_only(self) -> Optional[bool]:
        if self.port80_censored is None:
            return None
        return self.port80_censored and not self.port8080_censored


#: Campaign decomposition: one resumable unit per HTTP-censoring ISP.
CAMPAIGN = TableSpec(
    title="Section 6.3: middlebox idiosyncrasies",
    headers=("ISP", "port-80 only", "fixed IP-ID",
             "stale (dead blocked)", "keep-alive extends state"),
)

#: Paper cells (§6.3): every box inspects port 80 only and keeps a flow
#: alive on any fresh packet; only Airtel's injections carry IP-ID 242.
#: Some seeds find no controlled server behind a Jio or Vodafone box
#: (``-``).
CELLS = tuple(
    Cell(isp, column, paper, band)
    for isp in HTTP_FILTERING_ISPS
    for column, paper, band in (
        ("port-80 only", "True",
         "True" if isp in ("airtel", "idea") else ("True", "-")),
        ("fixed IP-ID", "242" if isp == "airtel" else "variable",
         "242" if isp == "airtel" else "variable"),
        ("keep-alive extends state", "True",
         "True" if isp in ("airtel", "idea") else ("True", "-"))))

CHECKS = (
    Check("dead (parked) sites stay on every blocklist",
          lambda m: all(cells["dead listed"] > 0 for cells in m.values())),
    Check("Idea still censors dead sites",
          lambda m: m["idea"]["dead blocked"] > 0),
)


def measured(rows: List[List[str]]) -> Dict[str, object]:
    """A unit's quirks from its payload rows (``"-"`` where no
    controlled path was found), the stale-blocklist cell split into
    its two counts."""
    cells: Dict[str, object] = dict(zip(CAMPAIGN.headers[1:], rows[0][1:]))
    blocked, _, listed = cells.pop("stale (dead blocked)").partition("/")
    cells["dead blocked"], cells["dead listed"] = int(blocked), int(listed)
    return cells


def units():
    """One campaign unit per HTTP-censoring ISP."""
    for isp in HTTP_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains):
    """The quirks of *isp*'s boxes, probed through a controlled server
    behind one, and its stale blocklist."""
    report = IdiosyncrasyReport(isp=isp)
    server, domain = controlled_target(world, isp)
    if server is not None:
        _probe_ports(world, isp, domain, server, report)
        _probe_ip_id(world, isp, domain, server, report)
        _probe_keepalive(world, isp, domain, server.ip, report)
    _count_stale_blocking(world, isp, report)
    return campaign_payload([[
        isp,
        fmt_cell(report.port_80_only)
        if report.port_80_only is not None else "-",
        fmt_cell(report.fixed_ip_id) if report.fixed_ip_id else "variable",
        f"{report.dead_sites_still_blocked}/"
        f"{report.dead_sites_on_blocklist}",
        fmt_cell(report.keepalive_extends_flow)
        if report.keepalive_extends_flow is not None else "-",
    ]])


def _probe_ports(world, isp, domain, server_host, report) -> None:
    """Same censored Host, port 80 vs 8080: only 80 draws censorship."""
    from ..httpsim.server import OriginServer

    if 8080 not in server_host.stack.listeners:
        OriginServer(name=f"{server_host.name}-alt").install(server_host,
                                                             port=8080)
    vantage = VantagePoint.inside(world, isp)
    report.port80_censored = _censored_on_port(
        world, vantage, server_host.ip, domain, 80)
    report.port8080_censored = _censored_on_port(
        world, vantage, server_host.ip, domain, 8080)


def _censored_on_port(world, vantage, dst_ip, domain, port,
                      attempts=4) -> bool:
    for _ in range(attempts):
        flow = CraftedFlow(world, vantage.host, dst_ip, dst_port=port)
        if not flow.open():
            continue
        observation = flow.probe_and_observe(
            domain, spec=GetRequestSpec(domain=domain), duration=1.0)
        flow.close()
        if observation.censored:
            return True
    return False


def _probe_ip_id(world, isp, domain, server_host, report) -> None:
    classification = classify_middlebox(world, isp, domain,
                                        server_host=server_host,
                                        attempts=8)
    report.fixed_ip_id = classification.fixed_ip_id


def _probe_keepalive(world, isp, domain, dst_ip, report) -> None:
    """Open a flow, idle past the purge in two halves separated by a
    keep-alive ACK: the timer restart keeps the flow inspectable."""
    vantage = VantagePoint.inside(world, isp)
    network = world.network
    for _ in range(4):
        flow = CraftedFlow(world, vantage.host, dst_ip)
        if not flow.open():
            continue
        # 2 x 100 s idle with a keep-alive between: total 200 s > purge.
        from ..netsim.packets import TCPFlags

        network.run(until=network.now + 100.0)
        flow.conn.send_raw_flags(TCPFlags.ACK)
        network.run(until=network.now + 100.0)
        observation = flow.probe_and_observe(domain, duration=1.0)
        flow.close()
        if observation.censored:
            report.keepalive_extends_flow = True
            return
    report.keepalive_extends_flow = False


def _count_stale_blocking(world, isp, report) -> None:
    """Dead (parked) sites still drawing censorship — stale blocklists."""
    client = world.client_of(isp)
    dead_blocked: Set[str] = {
        site.domain for site in world.corpus
        if site.is_dead and site.domain in world.blocklists.http.get(isp, ())
    }
    report.dead_sites_on_blocklist = len(dead_blocked)
    for domain in dead_blocked:
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(domain))
        if verdict.censored:
            report.dead_sites_still_blocked += 1
