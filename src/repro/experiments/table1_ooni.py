"""Table 1 — Accuracy of OONI: precision and recall per ISP.

Runs the OONI ``web_connectivity`` model over the PBW list from inside
each of the five tested ISPs, establishes ground truth behaviourally,
and reports (P, R) for Total / DNS / TCP / HTTP censorship — the cells
of the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.measure.metrics import PrecisionRecall, precision_recall
from ..core.measure.ooni import (
    BLOCKING_DNS,
    BLOCKING_HTTP,
    BLOCKING_TCP,
    OONIRun,
    run_ooni,
)
from ..isps.profiles import OONI_TESTED_ISPS
from .common import (
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    domain_sample,
    fmt_cell,
    format_table,
    ground_truth_any,
    run_degradable,
)

#: Paper values: ISP -> {column: (precision, recall)}.
PAPER_TABLE1 = {
    "mtnl": {"total": (0.57, 0.42), "dns": (0.44, 0.10),
             "tcp": (0.0, 0.0), "http": (0.60, 0.64)},
    "airtel": {"total": (0.19, 0.11), "dns": (0.0, 0.0),
               "tcp": (0.0, 0.0), "http": (0.19, 0.11)},
    "idea": {"total": (0.57, 0.62), "dns": (0.0, 0.0),
             "tcp": (0.0, 0.0), "http": (0.57, 0.62)},
    "vodafone": {"total": (0.69, 0.82), "dns": (0.0, 0.0),
                 "tcp": (0.0, 0.0), "http": (0.70, 0.78)},
    "jio": {"total": (0.34, 0.15), "dns": (0.0, 0.0),
            "tcp": (0.0, 0.0), "http": (0.36, 0.14)},
}


@dataclass
class Table1Row:
    isp: str
    total: Optional[PrecisionRecall] = None
    dns: Optional[PrecisionRecall] = None
    tcp: Optional[PrecisionRecall] = None
    http: Optional[PrecisionRecall] = None
    ooni_flagged: int = 0
    actually_censored: int = 0
    #: Client retries the OONI campaign spent inside this ISP.
    retries: int = 0


@dataclass
class Table1Result:
    rows: List[Table1Row] = field(default_factory=list)
    runs: Dict[str, OONIRun] = field(default_factory=dict)
    degradation: Degradation = field(default_factory=Degradation)

    def row(self, isp: str) -> Table1Row:
        for row in self.rows:
            if row.isp == isp:
                return row
        raise KeyError(isp)

    def render(self) -> str:
        table = format_table(list(CAMPAIGN.headers), _body_rows(self),
                             title=CAMPAIGN.title)
        extra = self.degradation.describe()
        return table + ("\n" + extra if extra else "")


#: Campaign decomposition: one resumable unit per OONI-tested ISP.
CAMPAIGN = TableSpec(
    title="Table 1: Accuracy of OONI — precision and recall",
    headers=("ISP", "Total(P,R)", "DNS(P,R)", "TCP(P,R)",
             "HTTP(P,R)", "paper Total", "paper HTTP"),
)


def _body_rows(result: "Table1Result") -> List[List[str]]:
    body = []
    for row in result.rows:
        paper = PAPER_TABLE1.get(row.isp, {})
        body.append([
            row.isp,
            fmt_cell(row.total.as_tuple()),
            fmt_cell(row.dns.as_tuple()),
            fmt_cell(row.tcp.as_tuple()),
            fmt_cell(row.http.as_tuple()),
            fmt_cell(paper.get("total", "-")),
            fmt_cell(paper.get("http", "-")),
        ])
    return body


def units(isps=OONI_TESTED_ISPS):
    """Named measurement units for the campaign runner."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, domains=domains, isps=(isp,))
        return campaign_payload(_body_rows(result), result.degradation)
    return unit_fn


def run(world, domains: Optional[List[str]] = None,
        isps=OONI_TESTED_ISPS) -> Table1Result:
    """Regenerate Table 1."""
    if domains is None:
        domains = domain_sample(world)
    result = Table1Result()
    for isp in isps:
        ok, ooni = run_degradable(result.degradation, f"ooni@{isp}",
                                  run_ooni, world, isp, domains)
        if not ok:
            continue
        result.runs[isp] = ooni
        campaign = ooni.degraded()
        result.degradation.retries += campaign["retries"]
        for domain, site in ooni.results.items():
            if site.error is not None:
                result.degradation.record_error(
                    f"ooni@{isp}:{domain}", site.error)
        truth = ground_truth_any(world, isp, domains)
        actual_all = set(truth)
        actual_dns = {d for d, m in truth.items() if m == "dns"}
        actual_http = {d for d, m in truth.items() if m == "http"}
        row = Table1Row(
            isp=isp,
            total=precision_recall(ooni.flagged(), actual_all),
            dns=precision_recall(ooni.flagged(BLOCKING_DNS), actual_dns),
            tcp=precision_recall(ooni.flagged(BLOCKING_TCP), set()),
            http=precision_recall(ooni.flagged(BLOCKING_HTTP), actual_http),
            ooni_flagged=len(ooni.flagged()),
            actually_censored=len(actual_all),
            retries=campaign["retries"],
        )
        result.rows.append(row)
    return result
